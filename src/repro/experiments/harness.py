"""Rig builders: wire servers, engines and AQUA for the experiments.

The standard rig is one 2-GPU server with a memory-*consumer* LLM
engine on GPU 0 and a memory-*producer* engine on GPU 1 — the unit the
paper's evaluation assembles clusters from.  The 8-GPU NVSwitch rig
generalizes it to four consumer/producer pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.aqua import AquaLib, BatchInformer, Coordinator, LlmInformer
from repro.audit import ConservationAuditor
from repro.hardware import Server
from repro.hardware.specs import GiB
from repro.models import get_model
from repro.models.audio import AudioModelSpec
from repro.models.diffusion import DiffusionSpec
from repro.models.llm import LLMSpec
from repro.serving import BatchEngine, CFSEngine, FlexGenEngine, LoRACache, VLLMEngine
from repro.sim import Environment
from repro.telemetry import Telemetry
from repro.telemetry.observing import observation_frame
from repro.telemetry.slo import default_slo_policy

ProducerSpec = Union[DiffusionSpec, AudioModelSpec, LLMSpec]


@dataclass
class ConsumerRig:
    """One consumer/producer pair on a 2-GPU server (or a slice of an
    8-GPU server)."""

    env: Environment
    server: Server
    coordinator: Coordinator
    consumer_engine: object
    consumer_lib: Optional[AquaLib] = None
    producer_engine: Optional[object] = None
    producer_lib: Optional[AquaLib] = None
    lora_cache: Optional[LoRACache] = None
    auditor: Optional[ConservationAuditor] = None
    telemetry: Optional[Telemetry] = None
    extras: dict = field(default_factory=dict)

    def start(self) -> "ConsumerRig":
        if self.producer_engine is not None:
            self.producer_engine.start()
        self.consumer_engine.start()
        return self

    def warm_up(self, seconds: float = 1.0) -> "ConsumerRig":
        """Let producers donate before the workload starts."""
        self.env.run(until=self.env.now + seconds)
        return self


def _producer_informer(model: ProducerSpec):
    if isinstance(model, LLMSpec):
        return LlmInformer()
    return BatchInformer()


def _make_producer(
    server, gpu, model: ProducerSpec, coordinator, name: str, telemetry=None
):
    lib = AquaLib(
        gpu, server, coordinator, informer=_producer_informer(model), telemetry=telemetry
    )
    if isinstance(model, LLMSpec):
        engine = VLLMEngine(
            gpu, server, model, aqua_lib=lib, inform_every=4, name=name,
            telemetry=telemetry,
        )
    else:
        engine = BatchEngine(gpu, server, model, aqua_lib=lib, name=name)
    return engine, lib


def build_consumer_rig(
    consumer_kind: str,
    consumer_model: Union[str, LLMSpec],
    producer_model: Union[str, ProducerSpec, None] = None,
    use_aqua: bool = True,
    env: Optional[Environment] = None,
    server: Optional[Server] = None,
    consumer_gpu: int = 0,
    producer_gpu: int = 1,
    coordinator: Optional[Coordinator] = None,
    lora_capacity_bytes: Optional[int] = None,
    consumer_kwargs: Optional[dict] = None,
    name_prefix: str = "",
    audit: bool = False,
    audit_interval: float = 1.0,
    telemetry: bool = False,
    scrape_interval: Optional[float] = None,
    slo_policy=None,
    postmortem_dir: Optional[str] = None,
) -> ConsumerRig:
    """Build a consumer/producer pair.

    Parameters
    ----------
    consumer_kind:
        ``"vllm"`` (batching baseline), ``"cfs"`` (fair scheduler) or
        ``"flexgen"`` (long-prompt streaming engine).
    consumer_model, producer_model:
        Model presets or registry names.  ``producer_model=None`` builds
        a consumer-only rig (the DRAM-offload baselines).
    use_aqua:
        Give the consumer an AQUA-LIB and pair it with the producer.
        ``False`` reproduces the DRAM baselines (vLLM+CFS, stock
        FlexGen).
    lora_capacity_bytes:
        When set, attach a LoRA cache (AQUA-backed iff ``use_aqua``).
    audit:
        Attach a :class:`~repro.audit.ConservationAuditor` to the rig's
        server and coordinator and checkpoint every ``audit_interval``
        simulated seconds.  The auditor is available as ``rig.auditor``;
        call ``rig.auditor.check()`` for a final checkpoint and
        ``rig.auditor.report()`` for the outcome.
    telemetry:
        Build a :class:`~repro.telemetry.Telemetry` hub and wire it into
        the server (DMA hooks + pool/link gauges), coordinator, engines
        and AQUA-LIB instances.  Available as ``rig.telemetry``; see
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
    if consumer_kind not in ("vllm", "cfs", "flexgen"):
        raise ValueError(f"unknown consumer kind {consumer_kind!r}")
    if isinstance(consumer_model, str):
        consumer_model = get_model(consumer_model)
    if isinstance(producer_model, str):
        producer_model = get_model(producer_model)

    if env is None:
        env = Environment()
    if server is None:
        n_gpus = max(consumer_gpu, producer_gpu) + 1 if producer_model else consumer_gpu + 1
        server = Server(env, n_gpus=max(2, n_gpus), topology="p2p")
    coordinator = coordinator or Coordinator()
    kwargs = dict(consumer_kwargs or {})

    # Explicit observability settings win; otherwise an active
    # observing() context applies to every rig built inside it, which
    # gets a hub (the rig's only tracer) and registers with it below.
    frame = observation_frame()
    if scrape_interval is None and frame is not None:
        scrape_interval = frame.settings.scrape_interval
        if scrape_interval is not None and slo_policy is None:
            slo_policy = default_slo_policy()

    tm = None
    if telemetry or scrape_interval is not None or frame is not None:
        tm = Telemetry(env)
        tm.attach_server(server)
        coordinator.telemetry = tm
        if scrape_interval is not None:
            tm.attach_observability(
                scrape_interval=scrape_interval,
                slo_policy=slo_policy,
                postmortem_dir=postmortem_dir,
            )

    consumer_lib = None
    if use_aqua or consumer_kind == "flexgen":
        # FlexGen always goes through AQUA-LIB; without a producer the
        # library falls back to DRAM, which *is* the FlexGen baseline.
        consumer_lib = AquaLib(
            server.gpus[consumer_gpu],
            server,
            coordinator,
            gather_enabled=use_aqua,
            telemetry=tm,
        )

    producer_engine = producer_lib = None
    if producer_model is not None:
        producer_engine, producer_lib = _make_producer(
            server,
            server.gpus[producer_gpu],
            producer_model,
            coordinator,
            name=f"{name_prefix}producer-{producer_model.name}",
            telemetry=tm,
        )
        if use_aqua and consumer_lib is not None:
            coordinator.pair(consumer_lib.name, producer_lib.name)

    lora_cache = None
    if lora_capacity_bytes is not None:
        lora_cache = LoRACache(
            server.gpus[consumer_gpu],
            server,
            capacity_bytes=lora_capacity_bytes,
            aqua_lib=consumer_lib if use_aqua else None,
            whole_copy=use_aqua,
            name=f"{name_prefix}lora-cache",
        )

    gpu = server.gpus[consumer_gpu]
    name = f"{name_prefix}{consumer_kind}-{consumer_model.name}"
    if consumer_kind == "vllm":
        consumer_engine = VLLMEngine(
            gpu, server, consumer_model, lora_cache=lora_cache, name=name,
            telemetry=tm, **kwargs
        )
    elif consumer_kind == "cfs":
        consumer_engine = CFSEngine(
            gpu,
            server,
            consumer_model,
            use_aqua=use_aqua,
            aqua_lib=consumer_lib if use_aqua else None,
            lora_cache=lora_cache,
            name=name,
            telemetry=tm,
            **kwargs,
        )
    else:  # flexgen
        kwargs.setdefault("workspace_tokens", 8000)
        consumer_engine = FlexGenEngine(
            gpu, server, consumer_model, aqua_lib=consumer_lib, name=name,
            telemetry=tm, **kwargs
        )

    auditor = None
    if audit:
        auditor = ConservationAuditor(env)
        auditor.attach_server(server)
        auditor.attach_coordinator(coordinator)
        auditor.watch(interval=audit_interval)

    rig = ConsumerRig(
        env=env,
        server=server,
        coordinator=coordinator,
        consumer_engine=consumer_engine,
        consumer_lib=consumer_lib,
        producer_engine=producer_engine,
        producer_lib=producer_lib,
        lora_cache=lora_cache,
        auditor=auditor,
        telemetry=tm,
    )
    if frame is not None:
        frame.adopt(rig)
    return rig


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
