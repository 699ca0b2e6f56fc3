"""Design ablations, baselines and extensions beyond the paper's figures.

Each function here is one experiment cell of
:data:`repro.experiments.runall.EXPERIMENTS`: it builds its rigs, runs
them, and returns a plain JSON-able dict that a claim in
:mod:`repro.evals.claims` scores.  They cover the §3-§5 design choices
(gather kernels, the exact placer, CFS slice length, KV block size,
control-plane frequency, the scale-up domain, dedicated producers),
the §9 offload baselines, sensitivity and seed robustness, the §A.2
long LoRA run, the §6.1 cluster run with every tenant live, and the
Tables 1-3 jobs run to completion.  :mod:`repro.experiments.figures` stays the paper's
figures.
"""

from __future__ import annotations

import numpy as np

from repro.aqua import AquaLib, AquaPlacer, ModelInstance
from repro.experiments.harness import (
    DEFAULT_LORA_CACHE_BYTES,
    Seat,
    build_consumer_rig,
    build_rig,
    drain,
)
from repro.experiments.report import summarize_requests
from repro.hardware import Cluster, Server
from repro.hardware.cluster import RDMA_200G
from repro.hardware.specs import (
    A100_80G,
    H100_80G,
    NVLINK3_P2P,
    NVLINK4_P2P,
    PCIE_GEN4_X16,
    PCIE_GEN5_X16,
    GiB,
)
from repro.models import (
    AUDIOGEN,
    CODELLAMA_34B,
    KANDINSKY,
    MUSICGEN,
    OPT_30B,
    SD_15,
    SD_XL,
    synthesize_adapters,
)
from repro.serving import (
    BatchEngine,
    ChatContextCache,
    OrcaEngine,
    Request,
    VLLMEngine,
    WeightedCFSEngine,
)
from repro.serving.metrics import percentile
from repro.sim import Environment
from repro.workloads import (
    ChatbotWorkload,
    code_summary_requests,
    long_prompt_requests,
    lora_requests,
    producer_requests,
    sharegpt_requests,
)
from repro.workloads.arrivals import submit_all


def _peak_running(env: Environment, engine) -> list[int]:
    """Track the engine's peak running batch, polled every 0.25 s."""
    peak = [0]

    def watch(env):
        while True:
            peak[0] = max(peak[0], len(engine.running))
            yield env.timeout(0.25)

    env.process(watch(env))
    return peak


def _flexgen_tokens(kind: str, paired: bool, duration: float = 60.0, **server_kwargs) -> int:
    """Tokens one OPT-30B long-prompt engine of ``kind`` generates in
    ``duration``, offloading to DRAM or (``paired``) to an SD producer's
    donation."""
    rig = build_consumer_rig(
        kind,
        OPT_30B,
        producer_model=SD_15 if paired else None,
        use_aqua=paired,
        server=Server(Environment(), n_gpus=2, **server_kwargs),
    ).start()
    rig.warm_up(1.0)
    submit_all(rig.env, rig.consumer_engine, long_prompt_requests(start=1.0))
    rig.env.run(until=1.0 + duration)
    return rig.consumer_engine.metrics.tokens_generated


# ===========================================================================
# §5 design choices: gather kernels, CFS slice length, KV block size
# ===========================================================================
def gather() -> dict:
    """CFS context-switch time with AQUA's gather kernel on vs off: a
    naive offload issues thousands of small NVLink copies, where
    NVLink bandwidth collapses (Figure 3a)."""

    def run(enabled: bool) -> dict:
        rig = build_consumer_rig(
            "cfs",
            "CodeLlama-34B",
            producer_model=KANDINSKY,
            use_aqua=True,
            consumer_kwargs={"slice_tokens": 5},
        )
        rig.consumer_lib.gather_enabled = enabled
        rig.start().warm_up(1.0)
        requests = code_summary_requests(rate=5.0, count=40, seed=0, start=1.0)
        submit_all(rig.env, rig.consumer_engine, requests)
        rig.env.run(until=600)
        engine = rig.consumer_engine
        return {
            "switch_time": engine.context_switch_time,
            "slices": engine.slices_run,
            "completed": len(engine.metrics.completed),
        }

    return {"gathered": run(True), "naive": run(False)}


def slice_length() -> dict:
    """CFS tokens per slice: short slices switch constantly, long ones
    drift back towards batch-like unfairness (the paper uses 5)."""
    out = {}
    for slice_tokens in (1, 5, 20, 80):
        rig = build_consumer_rig(
            "cfs",
            "CodeLlama-34B",
            producer_model=KANDINSKY,
            use_aqua=True,
            consumer_kwargs={"slice_tokens": slice_tokens},
        ).start()
        rig.warm_up(1.0)
        requests = code_summary_requests(rate=5.0, count=40, seed=0, start=1.0)
        submit_all(rig.env, rig.consumer_engine, requests)
        drain(rig.env, requests, timeout=900)
        summary = summarize_requests(requests, f"slice={slice_tokens}")
        summary["switch_time"] = rig.consumer_engine.context_switch_time
        out[str(slice_tokens)] = summary
    return out


def block_size() -> dict:
    """Tokens per paged-attention KV block: admitted concurrency under a
    burst, and how many pieces one context scatters into (what makes
    naive offload copies slow)."""
    out = {}
    for block_tokens in (8, 16, 64, 256):
        env = Environment()
        server = Server(env, n_gpus=1)
        engine = VLLMEngine(server.gpus[0], server, CODELLAMA_34B, block_tokens=block_tokens)
        engine.start()
        requests = [
            Request(arrival_time=0.0, prompt_tokens=700, max_new_tokens=1500)
            for _ in range(40)
        ]
        submit_all(env, engine, requests)
        peak = _peak_running(env, engine)
        env.run(until=60)
        out[str(block_tokens)] = {
            "peak_batch": peak[0],
            "capacity_tokens": engine.allocator.n_blocks * block_tokens,
            # Scatter granularity of one mid-size sequence's KV.
            "pieces_per_ctx": 2 * CODELLAMA_34B.n_layers * engine.kv.blocks_for(1500),
        }
    return out


# ===========================================================================
# §3-§4 design choices: control-plane frequency, placer, producers
# ===========================================================================
def control_frequency() -> dict:
    """Tokens in 60 s when a producer donates at t=10 s, per consumer
    ``respond_every``: checking AQUA-LIB rarely delays the fast path."""
    out = {}
    for respond_every in (4, 16, 64, 512):
        rig = build_consumer_rig(
            "flexgen", OPT_30B, consumer_kwargs={"respond_every": respond_every}
        )
        # The producer is a scripted AQUA-LIB with no engine, so its one
        # donation lands at exactly t=10 s and nothing but the
        # consumer's respond() cadence decides when it is used.
        producer_lib = AquaLib(rig.server.gpus[1], rig.server, rig.coordinator)
        rig.coordinator.pair(rig.consumer_lib.name, producer_lib.name)
        rig.start()
        submit_all(rig.env, rig.consumer_engine, long_prompt_requests())

        def donate_later(env, producer_lib=producer_lib):
            yield env.timeout(10.0)
            producer_lib.complete_offer(40 * GiB)

        rig.env.process(donate_later(rig.env))
        rig.env.run(until=60.0)
        out[str(respond_every)] = rig.consumer_engine.metrics.tokens_generated
    return out


def placer() -> dict:
    """The exact MILP placer vs the greedy heuristic on random balanced
    instances: objective, matched consumers and solve time."""
    rows = []
    for n_gpus, seed in ((16, 0), (32, 1), (48, 2)):
        rng = np.random.default_rng(seed)
        instances = []
        for i in range(n_gpus):
            if i % 2 == 0:
                mem = int(rng.integers(15, 55)) * GiB
                instances.append(ModelInstance(f"p{i}", "producer", mem))
            else:
                mem = -int(rng.integers(10, 45)) * GiB
                instances.append(ModelInstance(f"c{i}", "consumer", mem))
        milp = AquaPlacer(n_servers=n_gpus // 2, gpus_per_server=2).place(instances)
        greedy = AquaPlacer(
            n_servers=n_gpus // 2, gpus_per_server=2, solver="greedy"
        ).place(instances)
        rows.append(
            {
                "gpus": n_gpus,
                "milp_obj": milp.objective,
                "greedy_obj": greedy.objective,
                "milp_pairs": len(milp.pairs),
                "greedy_pairs": len(greedy.pairs),
                "milp_s": milp.solve_seconds,
                "greedy_s": greedy.solve_seconds,
            }
        )
    return {"rows": rows}


def scaleup_domain() -> dict:
    """Seconds to read an 8000-token OPT-30B context from a neighbour GPU
    (NVLink), host DRAM (PCIe) and a GPU on another server (RDMA)."""
    env = Environment()
    cluster = Cluster(env, n_servers=2, gpus_per_server=2, rdma_link=RDMA_200G)
    server = cluster.servers[0]
    local = server.gpus[0]
    nbytes = OPT_30B.kv_bytes(8000)
    return {
        "nvlink": server.transfer_time(server.gpus[1], local, nbytes),
        "dram": server.transfer_time(server.dram, local, nbytes),
        "rdma": server.transfer_time(cluster.servers[1].gpus[0], local, nbytes),
    }


def shared_producer() -> dict:
    """Two long-prompt consumers on an NVSwitch server, each with its own
    producer vs both offloading to one (which §4's placer forbids)."""

    def run(shared: bool) -> list[int]:
        producers = [
            Seat(f"producer-{model.name}", "producer", model, gpu=2 + i)
            for i, model in enumerate((SD_15, SD_XL))
        ]
        consumers = [Seat(f"flexgen-{i}", "flexgen", OPT_30B, gpu=i) for i in range(2)]
        pairs = [
            (seat.name, producers[0 if shared else i].name) for i, seat in enumerate(consumers)
        ]
        server = Server(Environment(), n_gpus=4, topology="nvswitch")
        rig = build_rig([*producers, *consumers], pairs, server=server).start()
        rig.warm_up(1.0)
        engines = [rig.engines[seat.name] for seat in consumers]
        for engine in engines:
            submit_all(rig.env, engine, long_prompt_requests(start=1.0))
        rig.env.run(until=61.0)
        return [engine.metrics.tokens_generated for engine in engines]

    return {"dedicated": run(False), "shared": run(True)}


def weighted_cfs() -> dict:
    """Two tenant classes of 8 long requests share one GPU for 40 s under
    weighted CFS; tokens each class receives per premium weight."""
    out = {}
    for ratio in (1.0, 2.0, 4.0):
        env = Environment()
        server = Server(env, n_gpus=1)
        engine = WeightedCFSEngine(server.gpus[0], server, CODELLAMA_34B, slice_tokens=5)
        engine.start()
        classes = {}
        for label, weight in (("standard", 1.0), ("premium", ratio)):
            requests = [
                Request(arrival_time=0.0, prompt_tokens=3000, max_new_tokens=2000, weight=weight)
                for _ in range(8)
            ]
            submit_all(env, engine, requests)
            classes[label] = requests
        env.run(until=40.0)
        out[f"{ratio:g}"] = {
            label: sum(r.generated_tokens for r in requests)
            for label, requests in classes.items()
        }
    return out


# ===========================================================================
# §9 baselines and hardware sensitivity
# ===========================================================================
def offload_baselines() -> dict:
    """Tokens in 60 s of the OPT-30B long-prompt job under every offload
    mechanism §9 discusses, to DRAM and to a producer GPU."""
    return {
        "uvm/pcie": _flexgen_tokens("uvm", False),
        "deepspeed/pcie": _flexgen_tokens("deepspeed", False),
        "flexgen/pcie": _flexgen_tokens("flexgen", False),
        "uvm/nvlink": _flexgen_tokens("uvm", True),
        "deepspeed+aqua": _flexgen_tokens("deepspeed", True),
        "aqua": _flexgen_tokens("flexgen", True),
    }


def orca_vs_vllm() -> dict:
    """Orca-style max-length KV reservation vs vLLM paging on one burst
    of 30 code-length requests."""
    out = {}
    for label, engine_cls in (("orca", OrcaEngine), ("vllm", VLLMEngine)):
        env = Environment()
        server = Server(env, n_gpus=1)
        engine = engine_cls(server.gpus[0], server, CODELLAMA_34B)
        engine.start()
        requests = [
            Request(arrival_time=0.2 * i, prompt_tokens=700, max_new_tokens=2000)
            for i in range(30)
        ]
        submit_all(env, engine, requests)
        peak = _peak_running(env, engine)
        env.run(until=1500)
        summary = summarize_requests(requests, label)
        summary["peak_concurrency"] = peak[0]
        summary["finish"] = max(
            (r.finish_time for r in requests if r.finish_time), default=None
        )
        out[label] = summary
    return out


def interconnect_sensitivity() -> dict:
    """AQUA vs DRAM long-prompt tokens across GPU/link generations."""
    generations = {
        "A100 + NVLink3 / PCIe4": (A100_80G, NVLINK3_P2P, PCIE_GEN4_X16),
        "A100 + NVLink3 / PCIe5": (A100_80G, NVLINK3_P2P, PCIE_GEN5_X16),
        "H100 + NVLink4 / PCIe5": (H100_80G, NVLINK4_P2P, PCIE_GEN5_X16),
    }
    out = {}
    for label, (gpu, nvlink, pcie) in generations.items():
        hw = {"gpu_spec": gpu, "gpu_link": nvlink, "pcie_link": pcie}
        dram = _flexgen_tokens("flexgen", False, **hw)
        aqua = _flexgen_tokens("flexgen", True, **hw)
        out[label] = {"dram": dram, "aqua": aqua, "speedup": aqua / dram}
    return out


# ===========================================================================
# Extensions: chat-context caching, seed robustness
# ===========================================================================
def context_cache() -> dict:
    """The 25-user x 4-turn chatbot on AQUA CFS, with and without each
    finished conversation's KV parked in donated memory between turns."""

    def run(with_cache: bool) -> dict:
        rig = build_consumer_rig(
            "cfs", CODELLAMA_34B, producer_model=KANDINSKY, consumer_kwargs={"slice_tokens": 5}
        )
        engine, env = rig.consumer_engine, rig.env
        cache = ChatContextCache(rig.consumer_lib, CODELLAMA_34B) if with_cache else None
        engine.context_cache = cache
        rig.start().warm_up(1.0)
        users = ChatbotWorkload(n_users=25, turns=4, seed=0).attach(env, engine)
        while env.now < 2400.0 and not all(u.processed for u in users):
            env.run(until=env.now + 5.0)
        summary = summarize_requests(engine.metrics.completed, "chat")
        summary["finish"] = env.now
        summary["cache_hits"] = cache.hits if cache else 0
        summary["tokens_restored"] = cache.tokens_restored if cache else 0
        return summary

    return {"aqua": run(False), "aqua+ctx-cache": run(True)}


def seed_robustness() -> dict:
    """The two headline effects per workload seed: the LoRA RCT gain
    (Figure 8) and the long-prompt speedup under seeded producer traffic
    (Figure 7)."""

    def lora_mean_rct(seed: int, use_aqua: bool) -> float:
        rig = build_consumer_rig(
            "vllm",
            "Mistral-7B",
            producer_model=SD_15 if use_aqua else None,
            use_aqua=use_aqua,
            lora_capacity_bytes=DEFAULT_LORA_CACHE_BYTES,
        ).start()
        adapters = synthesize_adapters(30, 320 * 10**6)
        if use_aqua:
            rig.warm_up(1.0)
            for adapter in adapters:
                rig.lora_cache.register(adapter)
        requests = lora_requests(adapters, rate=8.0, count=80, seed=seed, start=1.0)
        submit_all(rig.env, rig.consumer_engine, requests)
        drain(rig.env, requests, timeout=600)
        rcts = [r.rct for r in requests if r.rct is not None]
        return sum(rcts) / len(rcts)

    def longprompt_tokens(seed: int, use_aqua: bool) -> int:
        rig = build_consumer_rig(
            "flexgen",
            "OPT-30B",
            producer_model=SD_15 if use_aqua else None,
            use_aqua=use_aqua,
        ).start()
        if use_aqua:
            rig.warm_up(1.0)
            submit_all(
                rig.env,
                rig.producer_engine,
                producer_requests(rate=2.0, count=1000, seed=seed, start=1.0),
            )
        submit_all(rig.env, rig.consumer_engine, long_prompt_requests(start=1.0))
        rig.env.run(until=31.0)
        return rig.consumer_engine.metrics.tokens_generated

    seeds = (0, 1, 2, 3)
    return {
        "seeds": list(seeds),
        "lora_gain": [lora_mean_rct(s, False) / lora_mean_rct(s, True) for s in seeds],
        "longprompt_speedup": [
            longprompt_tokens(s, True) / longprompt_tokens(s, False) for s in seeds
        ],
    }


# ===========================================================================
# §A.2 long LoRA run, §6.1 concurrent cluster, Tables 1-3 executed
# ===========================================================================
def long_lora() -> dict:
    """Mistral-7B with 30 x 320 MB adapters at 2 req/s for 10 simulated
    minutes (a scaled slice of §A.2's hour), baseline vs AQUA."""
    count = 1200
    out = {}
    for label, use_aqua in (("baseline", False), ("aqua", True)):
        rig = build_consumer_rig(
            "vllm",
            "Mistral-7B",
            producer_model=SD_15 if use_aqua else None,
            use_aqua=use_aqua,
            lora_capacity_bytes=DEFAULT_LORA_CACHE_BYTES,
        ).start()
        adapters = synthesize_adapters(30, 320 * 10**6)
        if use_aqua:
            rig.warm_up(1.0)
            for adapter in adapters:
                rig.lora_cache.register(adapter)
        requests = lora_requests(adapters, rate=2.0, count=count, seed=7, start=1.0)
        submit_all(rig.env, rig.consumer_engine, requests)
        drain(rig.env, requests, timeout=3600, step=5.0)
        rcts = [r.rct for r in requests if r.rct is not None]
        out[label] = {
            "submitted": count,
            "completed": len(rcts),
            "rct_p50": percentile(rcts, 50),
            "rct_p95": percentile(rcts, 95),
        }
    return out


def concurrent_cluster() -> dict:
    """§6.1's 16-model cluster with every tenant live at once for 60 s:
    the balanced split with AQUA and over DRAM, and the LLM-heavy split."""
    from repro.experiments.cluster_run import (
        ClusterExperiment,
        balanced_tenants,
        llm_heavy_tenants,
    )

    def run(tenants, use_aqua: bool) -> dict:
        exp = ClusterExperiment(n_servers=8, gpus_per_server=2, use_aqua=use_aqua)
        results = exp.run(tenants, duration=60.0)["results"]
        return {
            name: {"role": r.role, "tokens": r.tokens, "completed": r.completed}
            for name, r in sorted(results.items())
        }

    return {
        "balanced-aqua": run(balanced_tenants(), True),
        "balanced-dram": run(balanced_tenants(), False),
        "llm-heavy-aqua": run(llm_heavy_tenants(), True),
    }


def workload_runs() -> dict:
    """A short slice of every Tables 1-3 job on its engine: requests
    submitted, requests finished and tokens generated per job."""
    out = {}

    def record(label, engine, requests) -> None:
        out[label] = {
            "submitted": len(requests),
            "done": sum(1 for r in requests if r.done),
            "tokens": engine.metrics.tokens_generated,
        }

    # Table 1: OPT-30B long prompts on FlexGen (10 s of a long job).
    rig = build_consumer_rig("flexgen", "OPT-30B", producer_model=SD_15).start()
    rig.warm_up(1.0)
    requests = long_prompt_requests()
    submit_all(rig.env, rig.consumer_engine, requests)
    rig.env.run(until=10)
    record("OPT-30B long prompts", rig.consumer_engine, requests)

    # Table 1: Mistral-7B + LoRA adapters on vLLM.
    rig = build_consumer_rig(
        "vllm",
        "Mistral-7B",
        producer_model=SD_15,
        lora_capacity_bytes=DEFAULT_LORA_CACHE_BYTES,
    ).start()
    rig.warm_up(1.0)
    adapters = synthesize_adapters(30, 320 * 10**6)
    requests = lora_requests(adapters, rate=5, count=10, seed=0, start=1.0)
    submit_all(rig.env, rig.consumer_engine, requests)
    drain(rig.env, requests, timeout=120)
    record("Mistral-7B LoRA", rig.consumer_engine, requests)

    # Table 1: CodeLlama-34B code summaries on vLLM + CFS.
    rig = build_consumer_rig("cfs", "CodeLlama-34B", producer_model=KANDINSKY).start()
    rig.warm_up(1.0)
    requests = code_summary_requests(rate=2, count=10, seed=0, start=1.0)
    submit_all(rig.env, rig.consumer_engine, requests)
    drain(rig.env, requests, timeout=300)
    record("CodeLlama-34B code summary", rig.consumer_engine, requests)

    # Table 2: the elastic LLM producers serving ShareGPT on vLLM.
    for model in ("Mistral-7B", "Llama-2-13B"):
        rig = build_consumer_rig("vllm", model, use_aqua=False).start()
        requests = sharegpt_requests(rate=2, count=10, seed=0)
        submit_all(rig.env, rig.consumer_engine, requests)
        drain(rig.env, requests, timeout=300)
        record(f"{model} ShareGPT", rig.consumer_engine, requests)

    # Table 3: the image/audio producers on one NVSwitch server.
    env = Environment()
    server = Server(env, n_gpus=8, topology="nvswitch")
    jobs = []
    for i, model in enumerate((SD_15, SD_XL, KANDINSKY, MUSICGEN, AUDIOGEN)):
        engine = BatchEngine(server.gpus[i], server, model, name=f"prod-{model.name}")
        engine.start()
        requests = producer_requests(rate=1.0, count=5, seed=i)
        submit_all(env, engine, requests)
        jobs.append((model, engine, requests))
    env.run(until=120)
    for model, engine, requests in jobs:
        record(f"{model.name} producer", engine, requests)
    return out
