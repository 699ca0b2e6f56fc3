"""Rig builders: wire servers, engines and AQUA for the experiments.

The paper's unit of deployment (§4-§5) is one AQUA-LIB per GPU, an
informer on each producer, and a coordinator that pairs consumers with
producers.  :func:`build_rig` is the one place that wires it, always in
this order: server, coordinator, AQUA-LIBs (producers' with informers),
engines (producers first), pairs, and at ``start()`` the engines in
build order.  The order is behaviour, not style: engines join the
server's telemetry hub as they are built and schedule their first event
as they start, so it decides how same-time events interleave, and with
that every pinned digest and transcript.

:func:`build_consumer_rig` builds the standard rig through it: a
memory-*consumer* LLM engine on GPU 0 of a 2-GPU server and a
memory-*producer* engine on GPU 1, the unit the paper's evaluation
assembles clusters from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

from repro.aqua import AquaLib, BatchInformer, Coordinator, LlmInformer
from repro.audit import ConservationAuditor
from repro.hardware import Server
from repro.hardware.specs import GiB
from repro.models import get_model
from repro.models.llm import LLMSpec
from repro.models.registry import ModelSpec
from repro.serving import (
    BatchEngine,
    CFSEngine,
    DeepSpeedEngine,
    FlexGenEngine,
    LoRACache,
    UVMEngine,
    VLLMEngine,
)
from repro.sim import Environment
from repro.telemetry import Telemetry
from repro.telemetry.observing import observation_frame
from repro.telemetry.slo import default_slo_policy

#: Engine class per consumer kind.  The FlexGen family (``flexgen`` and
#: its ``deepspeed`` and ``uvm`` baselines) always offloads through an
#: AQUA-LIB; unpaired, the library falls back to DRAM, which *is* their
#: baseline.
CONSUMER_KINDS = {
    "vllm": VLLMEngine,
    "cfs": CFSEngine,
    "flexgen": FlexGenEngine,
    "deepspeed": DeepSpeedEngine,
    "uvm": UVMEngine,
}


@dataclass
class Seat:
    """One engine of a rig, on GPU ``gpu`` of the rig's server.

    ``kind`` is a :data:`CONSUMER_KINDS` key or ``"producer"``: an LLM
    producer is an elastic vLLM engine with an
    :class:`~repro.aqua.LlmInformer`, any other model a
    :class:`~repro.serving.BatchEngine` with a
    :class:`~repro.aqua.BatchInformer`.  ``lora_capacity_bytes`` gives a
    consumer a LoRA cache (AQUA-backed iff the rig uses AQUA);
    ``kwargs`` go to the consumer engine.
    """

    name: str
    kind: str
    model: Union[str, ModelSpec]
    gpu: int
    lora_capacity_bytes: Optional[int] = None
    kwargs: dict = field(default_factory=dict)


@dataclass
class ConsumerRig:
    """Engines wired on one server by :func:`build_rig`.

    ``engines`` maps seat names to engines, in start order.  The
    ``consumer_*`` fields are the first consumer seat's, the
    ``producer_*`` fields the first producer seat's: the pair of a
    :func:`build_consumer_rig` rig.
    """

    env: Environment
    server: Server
    coordinator: Coordinator
    engines: dict
    consumer_engine: Optional[object] = None
    consumer_lib: Optional[AquaLib] = None
    producer_engine: Optional[object] = None
    producer_lib: Optional[AquaLib] = None
    lora_cache: Optional[LoRACache] = None
    auditor: Optional[ConservationAuditor] = None
    telemetry: Optional[Telemetry] = None

    def start(self) -> "ConsumerRig":
        for engine in self.engines.values():
            engine.start()
        return self

    def warm_up(self, seconds: float = 1.0) -> "ConsumerRig":
        """Let producers donate before the workload starts."""
        self.env.run(until=self.env.now + seconds)
        return self


def _engine(seat: Seat, model: ModelSpec, server: Server, lib, use_aqua: bool):
    """The engine (and LoRA cache) of one seat, on its AQUA-LIB ``lib``."""
    gpu = server.gpus[seat.gpu]
    if seat.kind == "producer":
        if isinstance(model, LLMSpec):
            engine = VLLMEngine(gpu, server, model, aqua_lib=lib, inform_every=4, name=seat.name)
        else:
            engine = BatchEngine(gpu, server, model, aqua_lib=lib, name=seat.name)
        return engine, None
    cache = None
    if seat.lora_capacity_bytes is not None:
        cache = LoRACache(
            gpu,
            server,
            capacity_bytes=seat.lora_capacity_bytes,
            aqua_lib=lib if use_aqua else None,
            whole_copy=use_aqua,
            name=f"{seat.name}-lora",
        )
    kwargs = dict(seat.kwargs)
    if seat.kind == "vllm":
        kwargs.update(lora_cache=cache)
    elif seat.kind == "cfs":
        kwargs.update(use_aqua=use_aqua, aqua_lib=lib, lora_cache=cache)
    else:
        kwargs = {"workspace_tokens": 8000, **kwargs, "aqua_lib": lib}
    return CONSUMER_KINDS[seat.kind](gpu, server, model, name=seat.name, **kwargs), cache


def build_rig(
    seats: Sequence[Seat],
    pairs: Iterable[tuple[str, str]] = (),
    use_aqua: bool = True,
    env: Optional[Environment] = None,
    server: Optional[Server] = None,
    coordinator: Optional[Coordinator] = None,
    audit: bool = False,
    audit_interval: float = 1.0,
    telemetry: bool = False,
    scrape_interval: Optional[float] = None,
    slo_policy=None,
    postmortem_dir: Optional[str] = None,
) -> ConsumerRig:
    """Wire ``seats`` on one server and pair them, in the module's order.

    Parameters
    ----------
    seats:
        The engines to build, each on its own GPU.
    pairs:
        ``(consumer seat, producer seat)`` names for the coordinator.
        A seat in no pair runs unpaired; several consumers may share a
        producer.
    use_aqua:
        Give every seat an AQUA-LIB and pair them.  ``False`` reproduces
        the DRAM baselines (vLLM+CFS, stock FlexGen): only the FlexGen
        family keeps a library, with AQUA's gather kernel off, and
        ``pairs`` is ignored.
    env, server, coordinator:
        Shared with other rigs when given: several rigs on one server
        or cluster, one coordinator.  ``server`` defaults to a p2p
        server with enough GPUs for ``seats`` (at least 2).
    audit:
        Attach a :class:`~repro.audit.ConservationAuditor` to the rig's
        server and coordinator and checkpoint every ``audit_interval``
        simulated seconds.  The auditor is available as ``rig.auditor``;
        call ``rig.auditor.check()`` for a final checkpoint and
        ``rig.auditor.report()`` for the outcome.
    telemetry:
        Give the server a :class:`~repro.telemetry.Telemetry` hub if it
        has none; the rig's components and coordinator report to it.
        Rigs on one server share its hub, ``rig.telemetry``; see
        ``docs/observability.md``.  Always on inside
        :func:`~repro.telemetry.observing`; otherwise off by default —
        a disabled rig has bit-identical behaviour (audit digests are
        unchanged).
    scrape_interval:
        When set, attach the time-resolved observability layer (metric
        scraper, optional SLO tracker, flight recorder) via
        :meth:`~repro.telemetry.Telemetry.attach_observability`,
        enabling telemetry.  ``None`` defers to an active
        :func:`~repro.telemetry.observing` context, if it scrapes.  The
        layer is observation-only: audit digests are identical with it
        on or off.
    slo_policy:
        Optional :class:`~repro.telemetry.SLOPolicy` evaluated at each
        scrape tick.
    postmortem_dir:
        Directory for flight-recorder post-mortem bundles.
    """
    models = {}
    for seat in seats:
        model = get_model(seat.model) if isinstance(seat.model, str) else seat.model
        if seat.kind != "producer":
            if seat.kind not in CONSUMER_KINDS:
                raise ValueError(f"unknown consumer kind {seat.kind!r}")
            if not isinstance(model, LLMSpec):
                raise ValueError(f"{model.name} cannot run a {seat.kind!r} consumer")
        models[seat.name] = model

    if server is None:
        env = env or Environment()
        n_gpus = max(2, 1 + max(seat.gpu for seat in seats))
        server = Server(env, n_gpus=n_gpus, topology="p2p")
    env = server.env
    coordinator = coordinator or Coordinator()

    # Explicit observability settings win; otherwise an active
    # observing() context applies to every rig built inside it, which
    # gets a hub (the rig's only tracer) and registers with it below.
    frame = observation_frame()
    if scrape_interval is None and frame is not None:
        scrape_interval = frame.settings.scrape_interval
        if scrape_interval is not None and slo_policy is None:
            slo_policy = default_slo_policy()

    tm = server.telemetry
    if tm is None and (telemetry or scrape_interval is not None or frame is not None):
        tm = Telemetry(env)
        tm.attach_server(server)
    if tm is not None:
        if coordinator.telemetry not in (None, tm):
            raise ValueError("the coordinator already reports to another hub")
        coordinator.telemetry = tm
        if scrape_interval is not None:
            tm.attach_observability(
                scrape_interval=scrape_interval,
                slo_policy=slo_policy,
                postmortem_dir=postmortem_dir,
            )

    libs = {}
    for seat in seats:
        gpu = server.gpus[seat.gpu]
        if seat.kind == "producer":
            if use_aqua:
                informer = (
                    LlmInformer() if isinstance(models[seat.name], LLMSpec) else BatchInformer()
                )
                libs[seat.name] = AquaLib(gpu, server, coordinator, informer=informer)
        elif use_aqua or issubclass(CONSUMER_KINDS[seat.kind], FlexGenEngine):
            libs[seat.name] = AquaLib(gpu, server, coordinator, gather_enabled=use_aqua)

    engines, caches = {}, {}
    for seat in sorted(seats, key=lambda seat: seat.kind != "producer"):
        engines[seat.name], caches[seat.name] = _engine(
            seat, models[seat.name], server, libs.get(seat.name), use_aqua
        )

    if use_aqua:
        for consumer, producer in pairs:
            coordinator.pair(libs[consumer].name, libs[producer].name)

    auditor = None
    if audit:
        auditor = ConservationAuditor(env)
        auditor.attach_server(server)
        auditor.attach_coordinator(coordinator)
        auditor.watch(interval=audit_interval)

    consumer = next((s.name for s in seats if s.kind != "producer"), None)
    producer = next((s.name for s in seats if s.kind == "producer"), None)
    rig = ConsumerRig(
        env=env,
        server=server,
        coordinator=coordinator,
        engines=engines,
        consumer_engine=engines.get(consumer),
        consumer_lib=libs.get(consumer),
        producer_engine=engines.get(producer),
        producer_lib=libs.get(producer),
        lora_cache=caches.get(consumer),
        auditor=auditor,
        telemetry=tm,
    )
    if frame is not None:
        frame.adopt(rig)
    return rig


def build_consumer_rig(
    consumer_kind: str,
    consumer_model: Union[str, LLMSpec],
    producer_model: Union[str, ModelSpec, None] = None,
    use_aqua: bool = True,
    env: Optional[Environment] = None,
    server: Optional[Server] = None,
    consumer_gpu: int = 0,
    producer_gpu: int = 1,
    coordinator: Optional[Coordinator] = None,
    lora_capacity_bytes: Optional[int] = None,
    consumer_kwargs: Optional[dict] = None,
    name_prefix: str = "",
    **observe,
) -> ConsumerRig:
    """Build a consumer/producer pair through :func:`build_rig`.

    ``consumer_kind`` is a :data:`CONSUMER_KINDS` key: ``"vllm"``
    (batching baseline), ``"cfs"`` (fair scheduler), ``"flexgen"``
    (long-prompt streaming engine) or its ``"deepspeed"`` and ``"uvm"``
    baselines.  Models are presets or registry names;
    ``producer_model=None`` builds a consumer-only rig (the DRAM-offload
    baselines).  ``lora_capacity_bytes`` gives the consumer a LoRA
    cache, ``consumer_kwargs`` go to its engine, and ``observe`` holds
    :func:`build_rig`'s observation knobs.
    """
    if isinstance(consumer_model, str):
        consumer_model = get_model(consumer_model)
    seats = [
        Seat(
            f"{name_prefix}{consumer_kind}-{consumer_model.name}",
            consumer_kind,
            consumer_model,
            consumer_gpu,
            lora_capacity_bytes,
            consumer_kwargs or {},
        )
    ]
    pairs = []
    if producer_model is not None:
        if isinstance(producer_model, str):
            producer_model = get_model(producer_model)
        name = f"{name_prefix}producer-{producer_model.name}"
        seats.append(Seat(name, "producer", producer_model, producer_gpu))
        pairs.append((seats[0].name, name))
    return build_rig(seats, pairs, use_aqua, env, server, coordinator, **observe)


def drain(env: Environment, requests, timeout: float = 3600.0, step: float = 1.0) -> float:
    """Run the simulation until every request finished (or ``timeout``).

    Returns the completion time.
    """
    deadline = env.now + timeout
    while env.now < deadline:
        if all(r.done for r in requests):
            return env.now
        env.run(until=min(deadline, env.now + step))
    return env.now


#: Default LoRA cache sizing used by §6: room for 10 of the 320 MB adapters.
DEFAULT_LORA_CACHE_BYTES = 10 * 320 * 10**6

#: §7 uses an explicit 10 GB reservation.
FIG12_LORA_CACHE_BYTES = 10 * GiB
