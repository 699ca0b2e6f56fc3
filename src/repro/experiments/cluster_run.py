"""Run a placed multi-tenant cluster as one concurrent simulation.

The paper's end-to-end evaluation (§6.1) hosts 16 models on eight
2-GPU servers, computes the mapping with AQUA-PLACER, then (on real
hardware) evaluates each server independently and sequentially.  The
simulation has no such constraint: this module instantiates an engine
per placed model — one rig per server, its consumers paired with its
producers (a pair never leaves its scale-up domain) — and runs the
whole cluster concurrently.

Usage::

    from repro.experiments.cluster_run import ClusterExperiment, Tenant

    tenants = [
        Tenant("opt-0", "OPT-30B", "longprompt"),
        Tenant("sd-0", "StableDiffusion-1.5", "producer", rate=2.0),
        ...
    ]
    experiment = ClusterExperiment(n_servers=8, gpus_per_server=2)
    report = experiment.run(tenants, duration=120.0)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.aqua import AquaPlacer, ModelInstance
from repro.experiments.harness import DEFAULT_LORA_CACHE_BYTES, Seat, build_rig
from repro.experiments.pool import derive_seed
from repro.hardware import Cluster
from repro.hardware.specs import GiB
from repro.models import get_model
from repro.models.llm import LLMSpec
from repro.models import synthesize_adapters
from repro.sim import Environment
from repro.workloads import (
    code_summary_requests,
    long_prompt_requests,
    lora_requests,
    producer_requests,
    sharegpt_requests,
)
from repro.workloads.arrivals import submit_all

#: Workload kinds a tenant can run (Tables 1-3).
WORKLOAD_KINDS = ("longprompt", "lora", "codesummary", "sharegpt", "producer")

#: The consumer kind each consumer workload runs on; ShareGPT tenants
#: (elastic LLMs) and the rest are producers.
_CONSUMER_KINDS = {"longprompt": "flexgen", "codesummary": "cfs", "lora": "vllm"}


@dataclass
class Tenant:
    """One hosted model plus the workload its clients send.

    Attributes
    ----------
    name:
        Unique tenant identifier.
    model:
        Model registry name (e.g. ``"OPT-30B"``).
    workload:
        One of :data:`WORKLOAD_KINDS`.
    rate:
        Client request rate (req/s) where applicable.
    count:
        Number of requests to issue (defaults scale with the duration).
    memory_gib:
        Override for the placer's R_m (GiB; positive producer,
        negative consumer).  Derived from the workload when ``None``.
    """

    name: str
    model: str
    workload: str
    rate: float = 2.0
    count: Optional[int] = None
    memory_gib: Optional[float] = None

    def __post_init__(self) -> None:
        if self.workload not in WORKLOAD_KINDS:
            raise ValueError(
                f"unknown workload {self.workload!r}; pick from {WORKLOAD_KINDS}"
            )

    @property
    def is_consumer_workload(self) -> bool:
        return self.workload in _CONSUMER_KINDS

    def placement_memory_bytes(self) -> int:
        """The placer's R_m for this tenant."""
        if self.memory_gib is not None:
            return int(self.memory_gib * GiB)
        spec = get_model(self.model)
        if self.workload == "longprompt":
            return -12 * GiB
        if self.workload == "lora":
            return -8 * GiB
        if self.workload == "codesummary":
            return -10 * GiB
        if self.workload == "sharegpt":
            # Elastic LLM producer: spare KV after light traffic.
            return 25 * GiB
        # Compute-bound producer: free HBM at peak batch.
        from repro.hardware.specs import A100_80G

        batch = spec.peak_throughput_batch(A100_80G)
        return int(spec.free_memory(A100_80G, batch) * 0.8)


@dataclass
class TenantResult:
    """Outcome of one tenant's run."""

    tenant: Tenant
    engine_name: str
    role: str  # "consumer" | "producer"
    completed: int
    tokens: int
    ttft_p50: Optional[float] = None
    rct_p50: Optional[float] = None
    extras: dict = field(default_factory=dict)


class ClusterExperiment:
    """Place tenants with AQUA-PLACER and run them concurrently."""

    def __init__(
        self,
        n_servers: int,
        gpus_per_server: int = 2,
        topology: str = "p2p",
        use_aqua: bool = True,
        seed: int = 0,
    ) -> None:
        self.n_servers = n_servers
        self.gpus_per_server = gpus_per_server
        self.topology = topology
        self.use_aqua = use_aqua
        self.seed = seed

    # ------------------------------------------------------------------
    def place(self, tenants: list[Tenant]):
        instances = [
            ModelInstance(t.name, t.model, t.placement_memory_bytes())
            for t in tenants
        ]
        placer = AquaPlacer(
            n_servers=self.n_servers, gpus_per_server=self.gpus_per_server
        )
        return placer.place(instances)

    def run(self, tenants: list[Tenant], duration: float = 120.0) -> dict:
        """Place, build, and run the whole cluster for ``duration``."""
        placement = self.place(tenants)
        env = Environment()
        cluster = Cluster(
            env,
            n_servers=self.n_servers,
            gpus_per_server=self.gpus_per_server,
            topology=self.topology,
        )
        seats: dict[int, list[Seat]] = {}
        for tenant in tenants:
            server_idx, gpu_idx = placement.gpu_of[tenant.name]
            seats.setdefault(server_idx, []).append(self._seat(tenant, gpu_idx))
        rigs = []
        for server_idx, on_server in sorted(seats.items()):
            names = {seat.name for seat in on_server}
            rigs.append(
                build_rig(
                    on_server,
                    [pair for pair in placement.pairs if pair[0] in names],
                    use_aqua=self.use_aqua,
                    server=cluster.servers[server_idx],
                )
            )
        engines = {name: e for rig in rigs for name, e in rig.engines.items()}
        for rig in rigs:
            rig.start()
        env.run(until=1.0)  # producers donate before client traffic

        requests = {}
        for tenant in tenants:
            requests[tenant.name] = self._make_requests(tenant, duration)
            submit_all(env, engines[tenant.name], requests[tenant.name])
        env.run(until=1.0 + duration)

        results = [
            self._summarize(tenant, engines[tenant.name], requests[tenant.name])
            for tenant in tenants
        ]
        return {
            "placement": placement,
            "results": {r.tenant.name: r for r in results},
            "duration": duration,
        }

    # ------------------------------------------------------------------
    @staticmethod
    def _seat(tenant: Tenant, gpu: int) -> Seat:
        if tenant.workload != "producer" and not isinstance(get_model(tenant.model), LLMSpec):
            raise ValueError(f"{tenant.model} cannot run LLM workload {tenant.workload!r}")
        kind = _CONSUMER_KINDS.get(tenant.workload, "producer")
        lora = DEFAULT_LORA_CACHE_BYTES if kind == "vllm" else None
        kwargs = {"slice_tokens": 5} if kind == "cfs" else {}
        return Seat(tenant.name, kind, tenant.model, gpu, lora, kwargs)

    def _make_requests(self, tenant: Tenant, duration: float) -> list:
        seed = derive_seed(self.seed, tenant.name)
        count = tenant.count or max(1, int(tenant.rate * duration * 0.8))
        if tenant.workload == "longprompt":
            return long_prompt_requests(start=1.0)
        if tenant.workload == "codesummary":
            return code_summary_requests(tenant.rate, count, seed=seed, start=1.0)
        if tenant.workload == "sharegpt":
            return sharegpt_requests(tenant.rate, count, seed=seed, start=1.0)
        if tenant.workload == "lora":
            adapters = synthesize_adapters(30, 320 * 10**6, prefix=tenant.name)
            return lora_requests(adapters, tenant.rate, count, seed=seed, start=1.0)
        return producer_requests(tenant.rate, count, seed=seed, start=1.0)

    def _summarize(self, tenant: Tenant, engine, reqs: list) -> TenantResult:
        from repro.serving.metrics import percentile

        done = [r for r in reqs if r.done]
        ttfts = [r.ttft for r in done if r.ttft is not None]
        rcts = [r.rct for r in done if r.rct is not None]
        return TenantResult(
            tenant=tenant,
            engine_name=engine.name,
            role="consumer" if tenant.is_consumer_workload else "producer",
            completed=len(done),
            tokens=engine.metrics.tokens_generated,
            ttft_p50=percentile(ttfts, 50) if ttfts else None,
            rct_p50=percentile(rcts, 50) if rcts else None,
        )


def balanced_tenants() -> list[Tenant]:
    """The paper's *balanced* 16-model split (§6.1): equal thirds of
    image, audio and language models, sampled with replacement."""
    return [
        Tenant("sd-0", "StableDiffusion-1.5", "producer", rate=2.0),
        Tenant("sdxl-0", "StableDiffusion-XL", "producer", rate=1.0),
        Tenant("kandinsky-0", "Kandinsky-2.2", "producer", rate=1.5),
        Tenant("sd-1", "StableDiffusion-1.5", "producer", rate=2.0),
        Tenant("sdxl-1", "StableDiffusion-XL", "producer", rate=1.0),
        Tenant("audiogen-0", "AudioGen", "producer", rate=2.0),
        Tenant("musicgen-0", "MusicGen", "producer", rate=1.0),
        Tenant("audiogen-1", "AudioGen", "producer", rate=2.0),
        Tenant("opt-0", "OPT-30B", "longprompt"),
        Tenant("opt-1", "OPT-30B", "longprompt"),
        Tenant("codellama-0", "CodeLlama-34B", "codesummary", rate=2.0),
        Tenant("codellama-1", "CodeLlama-34B", "codesummary", rate=2.0),
        Tenant("mistral-lora-0", "Mistral-7B", "lora", rate=4.0),
        Tenant("mistral-lora-1", "Mistral-7B", "lora", rate=4.0),
        Tenant("llama-chat-0", "Llama-2-13B", "sharegpt", rate=1.0),
        Tenant("mistral-chat-0", "Mistral-7B", "sharegpt", rate=1.0),
    ]


def llm_heavy_tenants() -> list[Tenant]:
    """The paper's *LLM-heavy* split: all models are LLMs with varying
    workloads — busy consumers next to lightly loaded elastic producers."""
    tenants = []
    for i in range(4):
        tenants.append(Tenant(f"opt-{i}", "OPT-30B", "longprompt"))
        tenants.append(Tenant(f"code-{i}", "CodeLlama-34B", "codesummary", rate=2.0))
    for i in range(8):
        model = "Llama-2-13B" if i % 2 == 0 else "Mistral-7B"
        tenants.append(Tenant(f"idle-{i}", model, "sharegpt", rate=1.0))
    return tenants
