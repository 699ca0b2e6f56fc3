"""The telemetry hub: one object wiring tracing, metrics and attribution.

:class:`Telemetry` bundles the three pillars of the observability layer
— a :class:`~repro.trace.Tracer` (request-scoped causal tracing via
flow events), a :class:`~repro.telemetry.registry.Registry` (labeled
Prometheus-style metrics) and a
:class:`~repro.telemetry.attribution.LatencyAttributor` (per-request
latency decomposition) — behind small hook methods that the engines,
AQUA-LIB, the coordinator, the DMA layer and the fault injector call.

Every instrumented call site guards on ``telemetry is None``, so a run
without telemetry records nothing; determinism digests are
bit-identical either way.  With telemetry on, observation costs per
decode step, per completion and per scrape, never per token: engine
token counts are pulled from each engine's own metrics when the
registry is collected, and the labelled children the per-step hooks
touch are bound once (:class:`~repro.telemetry.registry.LabelIndex`).

Trace-ID propagation model
--------------------------
The trace ID of a request is its ``req_id``.  It travels as a plain
``Optional[int]`` (``ctx``): engines stamp it onto AQUA tensors at
allocation (``to_responsive_tensor(..., ctx=req_id)``), AQUA-LIB passes
it down to ``Server.transfer(..., ctx=...)``, and each completed DMA
hop reports back through :meth:`Telemetry.record_transfer`.  The hub
turns these sightings into Chrome flow events (``ph: s/t/f``) with the
``req_id`` as the flow id, so Perfetto draws arrows following one
request across the engine, ``aqua:*`` and ``link:*`` tracks, and
:meth:`Tracer.critical_path <repro.trace.Tracer.critical_path>` can
reconstruct the chain programmatically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.telemetry.attribution import LatencyAttributor
from repro.telemetry.registry import LabelIndex, Registry
from repro.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.dma import Transfer
    from repro.hardware.server import Server
    from repro.serving.engine import LLMEngineBase
    from repro.serving.request import Request

#: Histogram buckets for TTFT (sub-second matters) and RCT (minutes).
_LATENCY_BUCKETS = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    10.0, 30.0, 60.0, 120.0, 300.0, 600.0,
)

#: Buckets for TPOT (time per output token) — steady-state decode pace
#: is tens of milliseconds to a few seconds per token.
_TPOT_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.15, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: Samples each scraped series (and the SLO tracker's history) keeps.
SCRAPE_CAPACITY = 4096

#: Entries the flight recorder's ring keeps.
RECORDER_CAPACITY = 512


class Telemetry:
    """One server's telemetry, shared by every instrumented subsystem on it.

    Its :attr:`tracer` is the only one the server records into: engines,
    AQUA-LIB and the fault injector trace iff their server has a hub.

    Parameters
    ----------
    env:
        The simulation environment (provides the clock).
    """

    def __init__(self, env) -> None:
        self.env = env
        self.tracer = Tracer(clock=lambda: env.now)
        self.registry = Registry()
        self.attribution = LatencyAttributor()
        self._flow_started: set[int] = set()
        # Optional observability layer (see attach_observability).
        self.scraper = None
        self.slo = None
        self.recorder = None
        self._observability = None  # the settings it was attached with

        r = self.registry
        # -- engine family ------------------------------------------------
        self.requests_submitted = r.counter(
            "aqua_engine_requests_submitted_total",
            "Requests submitted to an engine.", ["engine"])
        self.requests_completed = r.counter(
            "aqua_engine_requests_completed_total",
            "Requests that generated their final token.", ["engine"])
        # Read from each attached engine's metrics (see attach_engine).
        self.tokens_generated = r.counter(
            "aqua_engine_tokens_generated_total",
            "Tokens generated.", ["engine"])
        self.requeues = r.counter(
            "aqua_engine_requeues_total",
            "Requests re-queued after losing inference context.", ["engine"])
        self.preemptions = r.counter(
            "aqua_engine_preemptions_total",
            "Sequences preempted for KV space.", ["engine"])
        self.batch_occupancy = r.gauge(
            "aqua_engine_batch_occupancy",
            "Sequences in the last decode batch.", ["engine"])
        self.ttft_seconds = r.histogram(
            "aqua_engine_ttft_seconds",
            "Time to first token.", ["engine"], buckets=_LATENCY_BUCKETS)
        self.rct_seconds = r.histogram(
            "aqua_engine_rct_seconds",
            "Request completion time.", ["engine"], buckets=_LATENCY_BUCKETS)
        self.tpot_seconds = r.histogram(
            "aqua_engine_tpot_seconds",
            "Time per output token after the first (steady-state decode "
            "pace), marked at request completion.",
            ["engine"], buckets=_TPOT_BUCKETS)
        # -- memory-pool family -------------------------------------------
        self.pool_used = r.gauge(
            "aqua_pool_used_bytes", "Bytes reserved in a memory pool.",
            ["device"])
        self.pool_capacity = r.gauge(
            "aqua_pool_capacity_bytes", "Memory pool capacity.", ["device"])
        self.pool_peak = r.gauge(
            "aqua_pool_peak_bytes",
            "High-water mark of pool usage.", ["device"])
        self.pool_reservations = r.gauge(
            "aqua_pool_reservations",
            "Live named reservations in a pool.", ["device"])
        # -- interconnect family ------------------------------------------
        self.link_bytes = r.counter(
            "aqua_link_bytes_total",
            "Bytes moved over a channel (full payload per hop).", ["channel"])
        self.link_transfers = r.counter(
            "aqua_link_transfers_total",
            "Transfers that traversed a channel.", ["channel"])
        self.link_contention = r.counter(
            "aqua_link_contention_seconds_total",
            "Time transfers spent waiting for a channel grant.", ["channel"])
        self.link_queue_depth = r.gauge(
            "aqua_link_queue_depth",
            "Transfers queued on a channel right now.", ["channel"])
        # -- AQUA control/data plane --------------------------------------
        self.tensor_allocations = r.counter(
            "aqua_tensor_allocations_total",
            "AQUA tensor placements by initial location.", ["location"])
        self.tensor_migrations = r.counter(
            "aqua_tensor_migrations_total",
            "Completed tensor migrations by target.", ["target"])
        self.migrations_queued = r.counter(
            "aqua_migrations_queued_total",
            "Migrations queued by the coordinator.", ["reason"])
        self.offload_bytes = r.counter(
            "aqua_offload_bytes_total",
            "Bytes fetched/flushed through AQUA-LIB.", ["gpu", "op"])
        self.transfer_retries = r.counter(
            "aqua_transfer_retries_total",
            "Transfer retries after DMA stalls.", ["gpu"])
        self.lost_tensors = r.counter(
            "aqua_lost_tensors_total",
            "Tensors lost to endpoint GPU failures.", ["gpu"])
        self.coordinator_requests = r.counter(
            "aqua_coordinator_requests_total",
            "Coordinator REST calls.", ["method", "path"])
        # -- faults family -------------------------------------------------
        self.faults = r.counter(
            "aqua_faults_total",
            "Fault injections by kind and phase.", ["kind", "phase"])

        # Children of the per-step and per-completion hooks, by engine or
        # channel name, each bound at its first use.
        self._submitted = LabelIndex(self.requests_submitted)
        self._completed = LabelIndex(self.requests_completed)
        self._requeues = LabelIndex(self.requeues)
        self._preemptions = LabelIndex(self.preemptions)
        self._occupancy = LabelIndex(self.batch_occupancy)
        self._ttft = LabelIndex(self.ttft_seconds)
        self._rct = LabelIndex(self.rct_seconds)
        self._tpot = LabelIndex(self.tpot_seconds)
        self._link_bytes = LabelIndex(self.link_bytes)
        self._link_transfers = LabelIndex(self.link_transfers)
        self._link_contention = LabelIndex(self.link_contention)
        self._engines: set[str] = set()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_server(self, server: "Server") -> None:
        """Make this the server's one hub: DMA hooks plus live pool/link
        gauges.  Refused once the server has a hub or components."""
        if server.telemetry is not None:
            raise ValueError(f"server {server.name} already has a hub")
        if server.hub_readers:
            readers = ", ".join(server.hub_readers)
            raise ValueError(f"server {server.name} already runs {readers} without a hub")
        server.telemetry = self
        # The hub sees every engine on the server in one record order:
        # the server's GPUs are one domain.
        for gpu in server.gpus[1:]:
            server.gpus[0].domain.merge(gpu.domain)
        for channel in server.interconnect.channels.values():
            self.link_queue_depth.labels(channel=channel.name).set_function(
                lambda ch=channel: len(ch.engine.queue)
            )
        for device in server.devices:
            pool = getattr(device, "hbm", None)
            if pool is None:
                pool = device.pool
            name = device.name
            self.pool_used.labels(device=name).set_function(
                lambda p=pool: p.used)
            self.pool_capacity.labels(device=name).set_function(
                lambda p=pool: p.capacity)
            self.pool_peak.labels(device=name).set_function(
                lambda p=pool: p.peak)
            self.pool_reservations.labels(device=name).set_function(
                lambda p=pool: len(p.reservations))

    def attach_engine(self, engine: "LLMEngineBase") -> None:
        """Export ``engine``'s token count, read from its metrics when
        the registry is collected.

        The engine name labels every engine family, so a second engine
        of the same name on this hub would merge into the first one's
        samples: that is refused.
        """
        name = engine.name
        if name in self._engines:
            raise ValueError(f"an engine named {name!r} is already attached to this hub")
        self._engines.add(name)
        metrics = engine.metrics
        self.tokens_generated.labels(engine=name).set_function(
            lambda: metrics.tokens_generated)

    def attach_observability(
        self,
        scrape_interval: float = 1.0,
        slo_policy=None,
        postmortem_dir: Optional[str] = None,
    ) -> "Telemetry":
        """Enable the time-resolved layer: scraper + SLO tracker + recorder.

        Starts a :class:`~repro.telemetry.timeseries.MetricScraper` at
        ``scrape_interval`` simulated seconds keeping
        :data:`SCRAPE_CAPACITY` samples per series, a
        :class:`~repro.telemetry.recorder.FlightRecorder` of
        :data:`RECORDER_CAPACITY` entries (dumping post-mortem bundles
        under ``postmortem_dir`` when given) and — when ``slo_policy``
        is provided — an :class:`~repro.telemetry.slo.SLOTracker` whose
        burn-rate alerts trigger recorder captures.  Everything attached
        here is observation-only: audit digests are identical with this
        layer on or off (``tests/test_determinism_golden.py``).

        Calling again with the same settings (the SLO policy compared by
        ``to_dict()``) returns the layer; other settings are refused.
        """
        settings = (scrape_interval, slo_policy and slo_policy.to_dict(), postmortem_dir)
        if self.scraper is not None:
            if settings != self._observability:
                raise ValueError(f"hub already observed with {self._observability}")
            return self
        self._observability = settings
        from repro.telemetry.recorder import FlightRecorder
        from repro.telemetry.timeseries import MetricScraper

        self.scraper = MetricScraper(
            self.env, self.registry, interval=scrape_interval, capacity=SCRAPE_CAPACITY
        )
        self.recorder = FlightRecorder(
            self.env, telemetry=self,
            capacity=RECORDER_CAPACITY, dump_dir=postmortem_dir,
        )
        if slo_policy is not None:
            from repro.telemetry.slo import SLOTracker

            self.slo = SLOTracker(
                self.env, slo_policy, telemetry=self, capacity=SCRAPE_CAPACITY
            )
            self.slo.on_alert.append(self.recorder.on_alert)
            # SLO evaluation runs before the recorder's delta pass so a
            # tick's alert and its metric movement land in ring order.
            self.scraper.observers.append(self.slo.on_scrape)
        self.scraper.observers.append(self.recorder.on_scrape)
        self.scraper.start()
        return self

    def observability_report(self) -> dict:
        """Pickle/JSON-safe export of the attached observability layer
        (empty dict when :meth:`attach_observability` was never called)."""
        if self.scraper is None:
            return {}
        report = {
            "scrape": self.scraper.to_dict(),
            "recorder": self.recorder.to_dict(),
        }
        if self.slo is not None:
            report["slo"] = self.slo.report()
        return report

    # ------------------------------------------------------------------
    # Flow events (request-scoped causal tracing)
    # ------------------------------------------------------------------
    def flow(self, ctx: Optional[int], track: str,
             time: Optional[float] = None, **args) -> None:
        """Add one step of a request's flow chain on ``track``.

        The first sighting of a trace ID emits the flow *start* (``s``),
        later sightings emit *steps* (``t``); :meth:`flow_end` closes
        the chain with ``f``.  ``ctx=None`` (telemetry disabled upstream
        or an un-stamped code path) is a no-op.
        """
        if ctx is None:
            return
        if time is None:
            time = self.env.now
        if ctx in self._flow_started:
            phase = "t"
        else:
            phase = "s"
            self._flow_started.add(ctx)
        self.tracer.add_flow("request", track, ctx, phase, time=time, **args)

    def flow_end(self, ctx: Optional[int], track: str,
                 time: Optional[float] = None, **args) -> None:
        if ctx is None or ctx not in self._flow_started:
            return
        if time is None:
            time = self.env.now
        self.tracer.add_flow("request", track, ctx, "f", time=time, **args)
        # A re-queued request that runs again starts a fresh chain.
        self._flow_started.discard(ctx)

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def request_submitted(self, engine: str, request: "Request") -> None:
        self._submitted[engine].inc()
        self.attribution.observe(request)

    def request_finished(self, engine: str, request: "Request") -> None:
        """Record a request's completion (called once, at its final token)."""
        self._completed[engine].inc()
        if request.ttft is not None:
            self._ttft[engine].observe(request.ttft)
            # TPOT from the first and last token timestamps only.
            if request.generated_tokens > 1:
                tpot = (request.rct - request.ttft) / (
                    request.generated_tokens - 1
                )
                self._tpot[engine].observe(tpot)
        self._rct[engine].observe(request.rct)
        self.flow_end(request.req_id, engine, time=request.finish_time)
        if self.slo is not None:
            self.slo.observe_request(engine, request)

    def request_requeued(self, engine: str) -> None:
        self._requeues[engine].inc()

    def preemption(self, engine: str) -> None:
        self._preemptions[engine].inc()

    def decode_batch(self, engine: str, size: int) -> None:
        self._occupancy[engine].set(size)

    # ------------------------------------------------------------------
    # DMA hook (called by Transfer.run on completion)
    # ------------------------------------------------------------------
    def record_transfer(self, transfer: "Transfer", channels) -> None:
        contention = transfer.acquired_at - transfer.started_at
        for channel in channels:
            name = channel.name
            self._link_bytes[name].inc(transfer.nbytes)
            self._link_transfers[name].inc()
            if contention > 0:
                self._link_contention[name].inc(contention)
        if transfer.ctx is not None:
            self.attribution.note_contention(transfer.ctx, contention)
            for channel in channels:
                track = f"link:{channel.name}"
                self.tracer.add_span(
                    "dma", track, transfer.acquired_at, transfer.finished_at,
                    request=transfer.ctx, nbytes=transfer.nbytes,
                )
                self.flow(transfer.ctx, track, time=transfer.acquired_at)

    # ------------------------------------------------------------------
    # Fault hook
    # ------------------------------------------------------------------
    def record_fault(self, kind: str, phase: str, targets=None) -> None:
        self.faults.labels(kind=kind, phase=phase).inc()
        if self.recorder is not None:
            self.recorder.on_fault(kind, phase, targets)

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def attribution_report(self) -> dict:
        return self.attribution.report()

    def prometheus_text(self) -> str:
        return self.registry.to_prometheus_text()

    def metrics_dict(self) -> dict:
        return self.registry.to_dict()
