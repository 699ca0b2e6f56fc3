"""Shared machinery for LLM serving engines.

:class:`LLMEngineBase` owns what every LLM engine needs: the weight and
workspace reservations, the paged KV cache sized like a real engine
(``gpu_memory_utilization`` budget), the waiting queue, metrics, and the
producer-side AQUA duties (periodic ``inform_stats`` with donate/grow
handling).  Concrete schedulers (continuous batching, CFS, FlexGen-style
streaming) subclass it.

It also owns the running batch that vLLM, Orca and CFS decode: requests
seated in it are counted off the KV cache's step clock, and a finish
heap names the requests each step completes (see :meth:`_seat`).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Generator, Optional

from repro.aqua.informers import EngineStats
from repro.memory.allocator import BlockAllocator
from repro.memory.kv_cache import PagedKVCache
from repro.models.llm import LLMSpec
from repro.serving.metrics import MetricsCollector
from repro.serving.request import Request
from repro.sim import AnyOf, Environment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.aqua.lib import AquaLib
    from repro.hardware.gpu import GPU
    from repro.hardware.server import Server


def watch(engine) -> None:
    """Make ``engine`` and its process global for good: a completion
    wakes an ``on_finish`` waiter, who may act in any domain."""
    engine.domain = None
    if engine._process is not None:
        engine._process.domain = None


class LLMEngineBase:
    """Common state and producer duties for LLM serving engines.

    Parameters
    ----------
    gpu, server:
        Where the engine runs.  It reports to the server's hub, if
        any; without one every hook is a single ``None`` check.
    model:
        The hosted LLM.
    block_tokens:
        Paged-attention block size in tokens.
    utilization:
        Fraction of HBM the engine may use (vLLM's
        ``gpu_memory_utilization``, default 0.9).
    workspace_tokens:
        Prefill chunk the activation workspace is sized for.
    aqua_lib:
        Optional AQUA-LIB instance.  With an informer attached the
        engine acts as a *producer*: every ``inform_every`` iterations
        it reports stats and donates / takes back KV memory.
    inform_every:
        Iterations between ``inform_stats`` calls.
    decode_coarsen:
        Must be 1.  Decode steps are never fused lossily; the vLLM
        engine fuses only steps nothing could observe (see
        ``VLLMEngine._decode_step``).
    """

    def __init__(
        self,
        gpu: "GPU",
        server: "Server",
        model: LLMSpec,
        block_tokens: int = 16,
        utilization: float = 0.9,
        workspace_tokens: int = 2048,
        aqua_lib: Optional["AquaLib"] = None,
        inform_every: int = 8,
        name: str = "llm-engine",
        decode_coarsen: int = 1,
    ) -> None:
        if not 0 < utilization <= 1:
            raise ValueError(f"utilization must be in (0, 1], got {utilization}")
        # Only 1 is accepted: the bench's chat workload still passes it.
        if decode_coarsen != 1:
            raise ValueError(f"decode_coarsen must be 1, got {decode_coarsen}")
        self.env: Environment = server.env
        self.gpu = gpu
        self.server = server
        self.model = model
        self.aqua_lib = aqua_lib
        self.inform_every = inform_every
        self.name = name
        #: The domain the engine acts in: its GPU's, or ``None`` (global)
        #: once it serves a request with an ``on_finish`` waiter.
        self.domain = gpu.domain
        self.telemetry = telemetry = server.hub_for(name)
        self.tracer = telemetry.tracer if telemetry is not None else None
        self.metrics = MetricsCollector(name)
        #: Decode step ends, appended without visiting the batch; the
        #: requests seated in it fold them into their attribution when
        #: touched (:class:`~repro.telemetry.attribution.StepLog`).
        self._step_ends = None
        if telemetry is not None:
            telemetry.attach_engine(self)
            self._step_ends = telemetry.attribution.step_log()

        pre_reserved = gpu.hbm.used  # e.g. a LoRA cache region
        gpu.hbm.reserve(f"{name}:weights", model.weight_bytes)
        gpu.hbm.reserve(
            f"{name}:workspace", model.activation_workspace_bytes(workspace_tokens)
        )
        kv_budget = (
            model.free_kv_bytes(
                gpu.spec, workspace_tokens=workspace_tokens, utilization=utilization
            )
            - pre_reserved
        )
        if kv_budget < 0:
            raise ValueError(
                f"{name}: {model.name}'s weights and workspace leave no KV "
                f"budget on {gpu.name} at utilization {utilization} "
                f"({kv_budget} bytes)"
            )
        block_bytes = model.kv_bytes_per_token * block_tokens
        self.allocator = BlockAllocator(
            n_blocks=kv_budget // block_bytes,
            block_bytes=block_bytes,
            pool=gpu.hbm,
            tag=f"{name}:kv-region",
        )
        self.kv = PagedKVCache(model, self.allocator, block_tokens=block_tokens)

        self.waiting: deque[Request] = deque()
        #: The running batch, in seat order (see :meth:`_seat`).
        self.running: list[Request] = []
        #: Min-heap of ``(finish step, seat, request)``: the step on
        #: which each seated request's last token is due, ties in batch
        #: order.  Entries of requests that left are skipped.
        self._finishes: list = []
        #: Context tokens of the running batch (prompt plus generated).
        self._context = 0
        self.total_submitted = 0
        self.iteration = 0
        self._arrival_event = self.env.event()
        self._process = None

    # ------------------------------------------------------------------
    # Client interface
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> None:
        """Enqueue a request for inference."""
        if request.on_finish is not None:
            watch(self)
        self.waiting.append(request)
        self.total_submitted += 1
        if self.telemetry is not None:
            self.telemetry.request_submitted(self.name, request)
        if not self._arrival_event.triggered:
            self._arrival_event.succeed()

    def start(self) -> None:
        """Begin serving (spawns the engine's simulation process)."""
        if self._process is not None:
            raise RuntimeError(f"{self.name} already started")
        self._process = self.env.process(self._serve())
        self._process.domain = self.domain

    def _serve(self) -> Generator:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Helpers for subclasses
    # ------------------------------------------------------------------
    def _wait_for_arrival(self, max_wait: float = 0.25) -> Generator:
        """Sleep until a request arrives or ``max_wait`` elapses.

        The timeout keeps producer duties ticking while idle (an idle
        LLM is exactly when it has memory to donate, Figure 10).
        """
        if self.waiting:
            return
        if self._arrival_event.triggered:
            self._arrival_event = self.env.event()
        yield AnyOf(self.env, [self._arrival_event, self.env.timeout(max_wait)])

    def _finish_tokens(self, requests) -> list[Request]:
        """Record one generated token for each of ``requests``, in order.

        Every token is stamped at the current ``env.now`` and counted
        in one metrics call.  Returns the requests this token completed,
        in order.  Telemetry hears only of completions: the hub reads
        token counts from :attr:`metrics` when it is collected.
        """
        now = self.env.now
        finished = [r for r in requests if r.record_token(now)]
        self.metrics.record_token(now, len(requests))
        if finished:
            self._record_completions(finished)
        return finished

    def _record_completions(self, finished) -> None:
        """Report ``finished`` (completed requests, in order)."""
        for request in finished:
            if self.telemetry is not None:
                self.telemetry.request_finished(self.name, request)
            self.metrics.record_completion(request)

    # ------------------------------------------------------------------
    # The running batch
    # ------------------------------------------------------------------
    def _join(self, request: Request) -> None:
        """Seat ``request`` at the end of the running batch; its KV
        grows with the batch (:meth:`PagedKVCache.join`)."""
        self._seat(request, self.kv.join(request.req_id))

    def _seat(self, request: Request, seat: int) -> None:
        """Append ``request`` to the running batch at batch position
        ``seat``, clocked in: each KV step counts its token without
        visiting it."""
        clock = self.kv.clock
        request.clock_in(clock, seat)
        self.running.append(request)
        if self.telemetry is not None:
            self.telemetry.attribution.join(request, self._step_ends)
        self._context += request.total_tokens
        finish = clock.steps + request.max_new_tokens - request.generated_tokens
        heappush(self._finishes, (finish, seat, request))

    def _leave(self, request: Request) -> None:
        """Take ``request`` out of the running batch, keeping its count
        and the decode steps it was seated for."""
        if self.telemetry is not None:
            self.telemetry.attribution.leave(request)
        self.running.remove(request)
        self._context -= request.total_tokens
        request.clock_out()

    def _steps_left(self) -> int:
        """Decode steps until the first running request completes."""
        heap = self._finishes
        while heap[0][2].seat != heap[0][1]:
            heappop(heap)
        return heap[0][0] - self.kv.clock.steps

    def _finishing(self) -> list[Request]:
        """The running requests the next step's token completes, in
        batch order."""
        heap = self._finishes
        step = self.kv.clock.steps + 1
        done = []
        while heap and heap[0][0] <= step:
            _, seat, request = heappop(heap)
            if request.seat == seat:
                done.append(request)
        return done

    def _grant(self, tokens: int, done: list[Request]) -> None:
        """Stamp ``tokens`` tokens at now and complete ``done`` (the
        requests among them that this token finishes, in batch order),
        which leave the batch."""
        now = self.env.now
        for request in done:
            self._leave(request)
            request.finish(now)
        self.metrics.record_token(now, tokens)
        self._context += tokens
        self._record_completions(done)

    def _abort(self, request: Request) -> None:
        """End ``request`` as a context-length abort would: its next
        token, stamped now, is its last, and its KV is released."""
        if request.seat is not None:
            self._leave(request)
        request.max_new_tokens = request.generated_tokens + 1
        self._finish_tokens([request])
        self.kv.release(request.req_id)

    def requeue(self, request: Request) -> None:
        """Return an in-flight request to the head of the waiting queue.

        Graceful degradation: when a fault costs a request its inference
        context (e.g. :class:`~repro.aqua.TensorLostError` after a
        producer GPU failure), the engine re-queues the request instead
        of dropping it.  The request keeps its generated-token progress;
        a seated request gives back its KV, and the engine recomputes
        the lost context when the request next runs, which is the
        recovery cost the resilience experiment measures.
        """
        if request.seat is not None:
            self._leave(request)
            self.kv.release(request.req_id)
        elif request in self.running:
            self.running.remove(request)
        self.waiting.appendleft(request)
        self.metrics.record_requeue(self.env.now)
        if self.telemetry is not None:
            self.telemetry.request_requeued(self.name)
        if self.tracer is not None:
            self.tracer.add_instant(
                "requeue", self.name, time=self.env.now, request=request.req_id
            )

    @property
    def kv_used_bytes(self) -> int:
        return self.allocator.used_blocks * self.allocator.block_bytes

    @property
    def kv_capacity_bytes(self) -> int:
        return self.allocator.n_blocks * self.allocator.block_bytes

    @property
    def kv_free_bytes(self) -> int:
        return self.allocator.free_blocks * self.allocator.block_bytes

    def engine_stats(self) -> EngineStats:
        return EngineStats(
            now=self.env.now,
            pending_requests=len(self.waiting),
            running_requests=len(self.running),
            kv_used_bytes=self.kv_used_bytes,
            kv_capacity_bytes=self.kv_capacity_bytes,
            offerable_bytes=self.kv_free_bytes,
            arrived_total=self.total_submitted,
        )

    # ------------------------------------------------------------------
    # Producer duties (§B.1: vLLM as an AQUA memory producer)
    # ------------------------------------------------------------------
    def producer_tick(self) -> Generator:
        """Report stats to AQUA-LIB and apply the returned memory delta.

        Donations shrink the KV region (after a compaction pass that
        copies scattered live blocks out of the way, as the paper's
        vLLM integration does); reclaims grow it back.
        """
        if self.aqua_lib is None:
            return
        delta = self.aqua_lib.inform_stats(self.engine_stats())
        if delta < 0:
            blocks = min(-delta // self.allocator.block_bytes, self.allocator.free_blocks)
            if blocks <= 0:
                return
            moved = min(self.kv_used_bytes, blocks * self.allocator.block_bytes)
            if moved > 0:
                compaction = 2 * moved / self.gpu.spec.effective_hbm_bandwidth
                yield self.gpu.launch(compaction)
            removed = self.allocator.shrink_any(blocks)
            if removed > 0:
                accepted = self.aqua_lib.complete_offer(
                    removed * self.allocator.block_bytes
                )
                if accepted == 0:
                    # Coordinator refused (reclaim in flight or this GPU
                    # quarantined): take the blocks back, don't strand them.
                    self.allocator.grow(removed)
        elif delta > 0:
            self.allocator.grow(delta // self.allocator.block_bytes)

    def trace_span(self, name: str, start: float, **args) -> None:
        """Record a span from ``start`` to now on this engine's track."""
        if self.tracer is not None:
            self.tracer.add_span(name, self.name, start, self.env.now, **args)

    def attr_mark(self, requests, component: str) -> None:
        """Attribute each request's time since its last mark to ``component``.

        One line at every scheduling boundary; see
        :class:`~repro.telemetry.attribution.LatencyAttributor` for the
        telescoping-segments model this feeds.
        """
        if self.telemetry is not None:
            self.telemetry.attribution.mark(requests, component, self.env.now)

    def flow_step(self, requests, time=None) -> None:
        """Add a flow-chain step on this engine's track for each request."""
        if self.telemetry is None:
            return
        for request in requests:
            self.telemetry.flow(request.req_id, self.name, time=time)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.name} model={self.model.name} "
            f"waiting={len(self.waiting)} running={len(self.running)}>"
        )
