"""Reproductions of every figure in the paper's evaluation.

Each ``figNN_*`` function builds the corresponding rig, runs the
workload, and returns a plain dict of the series the paper plots.
Durations default to scaled-down values (the simulation preserves
ratios, so a 60-300 s window shows the same shape as the paper's ten
minutes); pass the paper's parameters for a full-scale run.

The shapes to look for, figure by figure, are documented in DESIGN.md's
per-experiment index and recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.aqua import AquaPlacer, ModelInstance
from repro.hardware import A100_80G, Server
from repro.hardware.specs import GB, GiB, KB, MB, NVLINK3_P2P, PCIE_GEN4_X16
from repro.models import (
    AUDIOGEN,
    CODELLAMA_34B,
    KANDINSKY,
    LLAMA2_13B,
    MISTRAL_7B,
    OPT_30B,
    SD_15,
    SD_XL,
    synthesize_adapters,
)
from repro.experiments.harness import (
    DEFAULT_LORA_CACHE_BYTES,
    FIG12_LORA_CACHE_BYTES,
    build_consumer_rig,
    drain,
)
from repro.experiments.pool import RunSpec, run_specs
from repro.experiments.report import summarize_requests
from repro.serving import BatchEngine, Request, VLLMEngine
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


# ===========================================================================
# Shared runners
# ===========================================================================
def _interactive_burst(rate: float, count: int, seed: int) -> list[Request]:
    """Code-summary burst: the paper's CFS workload (Table 1).

    Long prompts are essential — they exhaust the KV cache after a few
    tens of concurrent requests, which is what separates the batching
    scheduler (starves late arrivals) from CFS (keeps responding).
    """
    return code_summary_requests(rate=rate, count=count, seed=seed)


def run_scheduler_comparison(
    consumer_model=CODELLAMA_34B,
    producer_model=KANDINSKY,
    rate: float = 5.0,
    count: int = 50,
    seed: int = 0,
    slice_tokens: int = 5,
    timeout: float = 900.0,
    topology: str = "p2p",
    n_gpus: int = 2,
) -> dict:
    """Run vLLM, vLLM+CFS(DRAM) and AQUA on the same trace.

    This is the engine behind Figures 1, 9, 15, 16 and 17 — they differ
    only in producer model, request rate and server topology.
    """
    systems = {}
    for label, kind, use_aqua, producer in (
        ("vllm", "vllm", False, None),
        ("cfs-dram", "cfs", False, None),
        ("aqua", "cfs", True, producer_model),
    ):
        env = Environment()
        server = Server(env, n_gpus=n_gpus, topology=topology)
        kwargs = {"slice_tokens": slice_tokens} if kind == "cfs" else {}
        rig = build_consumer_rig(
            kind,
            consumer_model,
            producer_model=producer,
            use_aqua=use_aqua,
            env=env,
            server=server,
            consumer_kwargs=kwargs,
        ).start()
        if use_aqua:
            rig.warm_up(1.0)
        requests = _interactive_burst(rate, count, seed)
        submit_all(env, rig.consumer_engine, requests)
        drain(env, requests, timeout=timeout)
        systems[label] = {
            "requests": requests,
            "summary": summarize_requests(requests, label),
            "engine": rig.consumer_engine,
        }
    return systems


# ===========================================================================
# Figure 1: motivation — TTFT and RCT per request at 5 req/s
# ===========================================================================
def fig01_motivation(rate: float = 5.0, count: int = 50, seed: int = 0) -> dict:
    """TTFT/RCT in arrival order for vLLM, CFS-over-DRAM, and AQUA."""
    systems = run_scheduler_comparison(rate=rate, count=count, seed=seed)
    out = {}
    for label, data in systems.items():
        ordered = sorted(data["requests"], key=lambda r: r.arrival_time)
        out[label] = {
            "ttft": [r.ttft for r in ordered],
            "rct": [r.rct for r in ordered],
            "summary": data["summary"],
        }
    return out


# ===========================================================================
# Figure 2: resource contention — throughput & free memory vs batch size
# ===========================================================================
def fig02_contention(batches: Sequence[int] = (1, 2, 4, 8, 16, 24, 32, 48, 64)) -> dict:
    """Throughput/free-memory curves for AudioGen, SD and Llama-2-13B."""
    gpu = A100_80G
    out = {}
    for model in (AUDIOGEN, SD_15):
        rows = []
        for batch in batches:
            if model.memory_used(batch) > gpu.hbm_bytes:
                break
            rows.append(
                {
                    "batch": batch,
                    "throughput": model.throughput(gpu, batch),
                    "free_gib": model.free_memory(gpu, batch) / GiB,
                }
            )
        out[model.name] = rows

    # The LLM: tokens/s at each batch, KV-limited.
    llm = LLAMA2_13B
    avg_tokens = 800
    rows = []
    # The LLM keeps scaling until its KV cache exhausts HBM, so sweep
    # past the compute-bound models' range (Figure 2c's point).
    llm_batches = [*batches, 80, 88, 96, 104, 112, 120, 128]
    for batch in llm_batches:
        kv = llm.kv_bytes(batch * avg_tokens)
        used = llm.weight_bytes + kv + llm.activation_workspace_bytes()
        if used > gpu.hbm_bytes:
            break
        rows.append(
            {
                "batch": batch,
                "throughput": llm.decode_throughput(gpu, batch, avg_tokens),
                "free_gib": (gpu.hbm_bytes - used) / GiB,
            }
        )
    out[llm.name] = rows
    return out


# ===========================================================================
# Figure 3a: interconnect bandwidth vs transfer size
# ===========================================================================
def fig03a_interconnect_bandwidth(
    sizes: Optional[Sequence[int]] = None,
) -> dict:
    """Effective NVLink vs PCIe bandwidth across buffer sizes."""
    if sizes is None:
        sizes = [4 * KB * (4**i) for i in range(10)]  # 4 KB .. ~1 GB
    rows = []
    for size in sizes:
        rows.append(
            {
                "size_bytes": size,
                "nvlink_gbps": NVLINK3_P2P.effective_bandwidth(size) / GB,
                "pcie_gbps": PCIE_GEN4_X16.effective_bandwidth(size) / GB,
            }
        )
    return {"rows": rows}


# ===========================================================================
# Figure 3b: impact of sharing memory on the producer
# ===========================================================================
def fig03b_sharing_impact(duration: float = 60.0, producer_model=SD_15) -> dict:
    """Producer throughput isolated vs while serving NVLink offloads."""

    def run(shared: bool) -> float:
        if shared:
            rig = build_consumer_rig("flexgen", OPT_30B, producer_model=producer_model).start()
            env, producer = rig.env, rig.producer_engine
        else:
            # Isolated: the producer alone on its GPU, no consumer at all.
            env = Environment()
            server = Server(env, n_gpus=2, topology="p2p")
            producer = BatchEngine(
                server.gpus[1], server, producer_model, name="isolated-producer"
            )
            producer.start()
        # Saturating load: throughput measures the GPU's capacity, so a
        # compute dilation from offload traffic becomes visible.
        submit_all(env, producer, producer_requests(rate=50.0, count=10_000, seed=1))
        if shared:
            submit_all(env, rig.consumer_engine, long_prompt_requests())
        env.run(until=duration)
        return len(producer.metrics.completed) / duration

    isolated = run(shared=False)
    shared = run(shared=True)
    return {
        "isolated_throughput": isolated,
        "shared_throughput": shared,
        "impact_fraction": (isolated - shared) / isolated if isolated else 0.0,
    }


# ===========================================================================
# Figure 7: long-prompt inference — tokens generated in a fixed duration
# ===========================================================================
def _fig07_cell(producer: Optional[str], duration: float) -> dict:
    """One Figure 7 variant (module-level: a pool-safe task).

    ``producer`` is a model registry *name* (or ``None`` for the
    FlexGen/DRAM baseline) so the task's kwargs stay JSON-serialisable.
    """
    from repro.models import get_model

    model = get_model(producer) if producer is not None else None
    rig = build_consumer_rig(
        "flexgen",
        OPT_30B,
        producer_model=model,
        use_aqua=model is not None,
    ).start()
    if model is not None:
        rig.warm_up(1.0)
    submit_all(rig.env, rig.consumer_engine, long_prompt_requests())
    rig.env.run(until=rig.env.now + duration)
    return {
        "tokens": rig.consumer_engine.metrics.tokens_generated,
        "duration": duration,
    }


def fig07_longprompt(
    duration: float = 120.0,
    producers: Optional[dict] = None,
    jobs: Optional[int] = 1,
) -> dict:
    """Tokens generated by OPT-30B long-prompt jobs: FlexGen vs AQUA.

    The paper's balanced split pairs OPT-30B with StableDiffusion and
    AudioGen; the LLM-heavy split pairs it with Llama-2-13B and
    Mistral-7B producers.  Each variant is an independent rig, so
    ``jobs > 1`` runs them in parallel with identical results.
    """
    if producers is None:
        producers = {
            "flexgen-dram": None,
            "aqua+sd": SD_15,
            "aqua+audiogen": AUDIOGEN,
            "aqua+llama": LLAMA2_13B,
        }
    specs = [
        RunSpec(
            task=f"{__name__}:_fig07_cell",
            kwargs={
                "producer": producer if producer is None else producer.name,
                "duration": duration,
            },
            label=label,
        )
        for label, producer in producers.items()
    ]
    results = run_specs(specs, jobs=jobs)
    out = {
        label: result.value for label, result in zip(producers, results)
    }
    base = out["flexgen-dram"]["tokens"]
    for label, data in out.items():
        # A zero baseline has no speedup: fig07-ordering's strict
        # `flexgen-dram tokens > 0` band fails that run.
        data["speedup"] = data["tokens"] / base if base else float("nan")
    return out


# ===========================================================================
# Figure 8: LoRA adapter serving — sorted RCTs
# ===========================================================================
def fig08_lora(
    n_adapters: int = 30,
    adapter_mb: int = 320,
    rate: float = 5.0,
    count: int = 100,
    seed: int = 0,
    producer_models: Optional[dict] = None,
    timeout: float = 600.0,
) -> dict:
    """Sorted request completion times for Mistral + LoRA adapters.

    ``aqua-0``/``aqua-1`` are AQUA paired with SD / SD-XL (Figure 8a);
    ``aqua-llm`` pairs with a Llama-2-13B LLM producer (Figure 8b).
    """
    if producer_models is None:
        producer_models = {"aqua-0": SD_15, "aqua-1": SD_XL, "aqua-llm": LLAMA2_13B}
    adapters = synthesize_adapters(n_adapters, adapter_mb * MB)
    cache_bytes = DEFAULT_LORA_CACHE_BYTES

    def run(label: str, producer, use_aqua: bool) -> dict:
        rig = build_consumer_rig(
            "vllm",
            MISTRAL_7B,
            producer_model=producer,
            use_aqua=use_aqua,
            lora_capacity_bytes=cache_bytes,
        ).start()
        if use_aqua:
            rig.warm_up(1.0)
            for adapter in adapters:
                rig.lora_cache.register(adapter)
        requests = lora_requests(adapters, rate=rate, count=count, seed=seed)
        submit_all(rig.env, rig.consumer_engine, requests)
        drain(rig.env, requests, timeout=timeout)
        return {
            "sorted_rct": sorted(r.rct for r in requests if r.rct is not None),
            "summary": summarize_requests(requests, label),
            "cache": {"hits": rig.lora_cache.hits, "misses": rig.lora_cache.misses},
        }

    out = {"baseline": run("baseline", None, use_aqua=False)}
    for label, producer in producer_models.items():
        out[label] = run(label, producer, use_aqua=True)
    return out


# ===========================================================================
# Figure 9 (and 15/16/17): CFS responsiveness
# ===========================================================================
def _fig09_cell(
    rate: float,
    count: int,
    seed: int,
    producer: str,
    topology: str,
    n_gpus: int,
) -> dict:
    """One Figure 9 rate point (module-level: a pool-safe task)."""
    from repro.models import get_model

    systems = run_scheduler_comparison(
        producer_model=get_model(producer),
        rate=rate,
        count=count,
        seed=seed,
        topology=topology,
        n_gpus=n_gpus,
    )
    return {
        label: {
            "summary": data["summary"],
            "ttft": sorted(r.ttft for r in data["requests"] if r.ttft is not None),
            "rct": sorted(r.rct for r in data["requests"] if r.rct is not None),
        }
        for label, data in systems.items()
    }


def fig09_cfs(
    rates: Sequence[float] = (2.0, 5.0),
    count: int = 50,
    seed: int = 0,
    producer_model=KANDINSKY,
    topology: str = "p2p",
    n_gpus: int = 2,
    jobs: Optional[int] = 1,
) -> dict:
    """TTFT/RCT comparison at each request rate (Figure 9a/9b).

    Rate points are independent simulations; ``jobs > 1`` fans them out
    over a process pool with byte-identical results.
    """
    specs = [
        RunSpec(
            task=f"{__name__}:_fig09_cell",
            kwargs={
                "rate": rate,
                "count": count,
                "seed": seed,
                "producer": producer_model.name,
                "topology": topology,
                "n_gpus": n_gpus,
            },
            label=f"rate={rate:g}",
        )
        for rate in rates
    ]
    results = run_specs(specs, jobs=jobs)
    return {rate: result.value for rate, result in zip(rates, results)}


def fig15_llm_producer(**kwargs) -> dict:
    """Figure 15: the CFS workload placed next to a Mistral LLM producer."""
    kwargs.setdefault("producer_model", MISTRAL_7B)
    return fig09_cfs(**kwargs)


def fig16_sd_producer(**kwargs) -> dict:
    """Figure 16: the CFS workload placed with StableDiffusion."""
    kwargs.setdefault("producer_model", SD_15)
    return fig09_cfs(**kwargs)


def fig17_nvswitch_cfs(**kwargs) -> dict:
    """Figure 17: the CFS workload on the 8-GPU NVSwitch server."""
    kwargs.setdefault("producer_model", SD_XL)
    kwargs.setdefault("topology", "nvswitch")
    kwargs.setdefault("n_gpus", 8)
    return fig09_cfs(**kwargs)


# ===========================================================================
# Figure 10: elasticity under dynamic workloads
# ===========================================================================
def fig10_elastic(
    phase1_start: float = 30.0,
    phase2_start: float = 90.0,
    end: float = 200.0,
    low_rate: float = 1.0,
    low_count: int = 50,
    high_rate: float = 5.0,
    high_count: int = 250,
    sample_dt: float = 1.0,
) -> dict:
    """Free memory on the LLM producer and consumer token throughput.

    Phases follow §6.2: idle producer donates; at ``phase1_start`` the
    long-prompt consumer starts alongside light producer traffic; at
    ``phase2_start`` a heavy burst forces a reclaim; after the burst
    drains the memory is re-donated and consumer throughput recovers.
    """
    rig = build_consumer_rig(
        "flexgen", OPT_30B, producer_model=LLAMA2_13B, use_aqua=True
    ).start()
    env = rig.env
    producer = rig.producer_engine
    consumer = rig.consumer_engine

    free_mem = []
    tokens_per_window = []

    def sampler(env):
        last_tokens = 0
        while True:
            # The engine's view of memory it holds for inference context
            # (the paper's Figure 10a: all reserved at start, shrunk to
            # ~5 GB once AQUA-LIB donates, regrown on reclaim).
            free_mem.append(
                (env.now, (producer.kv_free_bytes + producer.gpu.free_hbm) / GiB)
            )
            tokens = consumer.metrics.tokens_generated
            tokens_per_window.append((env.now, (tokens - last_tokens) / sample_dt))
            last_tokens = tokens
            yield env.timeout(sample_dt)

    env.process(sampler(env))

    submit_all(
        env,
        rig.consumer_engine,
        long_prompt_requests(start=phase1_start),
    )
    low = sharegpt_requests(rate=low_rate, count=low_count, seed=3, start=phase1_start)
    high = sharegpt_requests(rate=high_rate, count=high_count, seed=4, start=phase2_start)
    submit_all(env, producer, low)
    submit_all(env, producer, high)
    env.run(until=end)

    return {
        "free_memory_gib": free_mem,
        "consumer_tokens_per_s": tokens_per_window,
        "producer_requests": summarize_requests([*low, *high], "producer"),
        "consumer_tokens_total": consumer.metrics.tokens_generated,
        "phases": {"phase1": phase1_start, "phase2": phase2_start, "end": end},
    }


# ===========================================================================
# Figure 11: cost of donating memory, from the producer's seat
# ===========================================================================
def fig11_producer_overhead(
    phase1_start: float = 5.0,
    phase2_start: float = 60.0,
    end: float = 160.0,
    low_rate: float = 1.0,
    low_count: int = 50,
    high_rate: float = 5.0,
    high_count: int = 250,
) -> dict:
    """Sorted producer RCTs with and without AQUA donation."""

    def run(with_aqua: bool) -> list[float]:
        if with_aqua:
            rig = build_consumer_rig(
                "flexgen", OPT_30B, producer_model=LLAMA2_13B, use_aqua=True
            ).start()
            submit_all(
                rig.env, rig.consumer_engine, long_prompt_requests(start=phase1_start)
            )
            producer = rig.producer_engine
            env = rig.env
        else:
            env = Environment()
            server = Server(env, n_gpus=2)
            producer = VLLMEngine(server.gpus[0], server, LLAMA2_13B, name="baseline")
            producer.start()
        low = sharegpt_requests(low_rate, low_count, seed=3, start=phase1_start)
        high = sharegpt_requests(high_rate, high_count, seed=4, start=phase2_start)
        submit_all(env, producer, low)
        submit_all(env, producer, high)
        env.run(until=end)
        return sorted(r.rct for r in [*low, *high] if r.rct is not None)

    return {"baseline": run(False), "aqua": run(True)}


# ===========================================================================
# Figure 12: AQUA TENSOR benefit vs offloaded tensor size
# ===========================================================================
def _fig12_cell(
    size_mb: int,
    use_aqua: bool,
    n_adapters: int,
    rate: float,
    count: int,
    response_tokens: int,
    seed: int,
    timeout: float,
) -> dict:
    """One Figure 12 (size, system) cell (module-level: pool-safe)."""
    label = "aqua" if use_aqua else "baseline"
    adapters = synthesize_adapters(n_adapters, size_mb * MB)
    rig = build_consumer_rig(
        "vllm",
        MISTRAL_7B,
        producer_model=SD_15 if use_aqua else None,
        use_aqua=use_aqua,
        lora_capacity_bytes=FIG12_LORA_CACHE_BYTES,
    ).start()
    if use_aqua:
        rig.warm_up(1.0)
        for adapter in adapters:
            rig.lora_cache.register(adapter)
    requests = lora_requests(
        adapters,
        rate=rate,
        count=count,
        seed=seed,
        unique_assignment=True,
        response_tokens=response_tokens,
    )
    submit_all(rig.env, rig.consumer_engine, requests)
    drain(rig.env, requests, timeout=timeout)
    return {
        "sorted_rct": sorted(r.rct for r in requests if r.rct is not None),
        "summary": summarize_requests(requests, f"{label}-{size_mb}MB"),
    }


def fig12_tensor_size(
    adapter_sizes_mb: Sequence[int] = (160, 320),
    n_adapters: int = 200,
    rate: float = 10.0,
    count: int = 200,
    response_tokens: int = 32,
    seed: int = 0,
    timeout: float = 600.0,
    jobs: Optional[int] = 1,
) -> dict:
    """Sorted RCTs per adapter size, baseline vs AQUA (SD producer).

    The (adapter size × system) grid fans out over a process pool when
    ``jobs > 1``; every cell is an independent seeded rig.
    """
    cells = [
        (size_mb, use_aqua)
        for size_mb in adapter_sizes_mb
        for use_aqua in (False, True)
    ]
    specs = [
        RunSpec(
            task=f"{__name__}:_fig12_cell",
            kwargs={
                "size_mb": size_mb,
                "use_aqua": use_aqua,
                "n_adapters": n_adapters,
                "rate": rate,
                "count": count,
                "response_tokens": response_tokens,
                "seed": seed,
                "timeout": timeout,
            },
            label=f"{'aqua' if use_aqua else 'baseline'}-{size_mb}MB",
        )
        for size_mb, use_aqua in cells
    ]
    results = run_specs(specs, jobs=jobs)
    by_cell = {cell: result.value for cell, result in zip(cells, results)}
    out = {}
    for size_mb in adapter_sizes_mb:
        per_system = {
            "baseline": by_cell[(size_mb, False)],
            "aqua": by_cell[(size_mb, True)],
        }
        base = per_system["baseline"]["summary"]["rct_mean"]
        aqua = per_system["aqua"]["summary"]["rct_mean"]
        per_system["rct_mean_saved"] = base - aqua
        out[f"{size_mb}MB"] = per_system
    return out


# ===========================================================================
# Figure 13: long-term responsiveness (chatbot, §8)
# ===========================================================================
def fig13_chatbot(
    n_users: int = 25,
    turns: int = 4,
    seed: int = 0,
    timeout: float = 2400.0,
) -> dict:
    """Per-request RCTs in completion order for the chat workload."""
    out = {}
    for label, kind, use_aqua, producer in (
        ("vllm", "vllm", False, None),
        ("cfs-dram", "cfs", False, None),
        ("aqua", "cfs", True, KANDINSKY),
    ):
        rig = build_consumer_rig(
            kind,
            CODELLAMA_34B,
            producer_model=producer,
            use_aqua=use_aqua,
            consumer_kwargs={"slice_tokens": 5} if kind == "cfs" else None,
        ).start()
        if use_aqua:
            rig.warm_up(1.0)
        workload = ChatbotWorkload(n_users=n_users, turns=turns, seed=seed)
        users = workload.attach(rig.env, rig.consumer_engine)
        deadline = rig.env.now + timeout
        while rig.env.now < deadline and not all(u.processed for u in users):
            rig.env.run(until=min(deadline, rig.env.now + 5.0))
        completed = rig.consumer_engine.metrics.completed
        ordered = sorted(completed, key=lambda r: r.finish_time)
        out[label] = {
            "rct_by_completion": [(r.finish_time, r.rct) for r in ordered],
            "summary": summarize_requests(completed, label),
            "turns_completed": len(completed),
        }
    return out


# ===========================================================================
# Figure 14: AQUA-PLACER convergence time
# ===========================================================================
def fig14_placer_convergence(
    gpu_counts: Sequence[int] = (16, 32, 64, 128),
    gpus_per_server: int = 8,
    seed: int = 0,
) -> dict:
    """Placer solve time for mixed-modality vs 50/50 LLM clusters."""
    rng = np.random.default_rng(seed)
    rows = []
    for n_gpus in gpu_counts:
        n_servers = n_gpus // gpus_per_server
        if n_servers < 1:
            raise ValueError(f"{n_gpus} GPUs < one {gpus_per_server}-GPU server")
        placer = AquaPlacer(n_servers=n_servers, gpus_per_server=gpus_per_server)

        # Mixed: 1/3 image producers, 1/3 audio producers, 1/3 LLM consumers.
        mixed = []
        for i in range(n_gpus):
            kind = i % 3
            if kind == 0:
                mem = int(rng.integers(30, 60)) * GiB
                mixed.append(ModelInstance(f"img-{i}", "SD", mem))
            elif kind == 1:
                mem = int(rng.integers(30, 60)) * GiB
                mixed.append(ModelInstance(f"aud-{i}", "AudioGen", mem))
            else:
                mem = -int(rng.integers(10, 40)) * GiB
                mixed.append(ModelInstance(f"llm-{i}", "Llama", mem))
        mixed_placement = placer.place(mixed)

        # 50/50: LLM producers and LLM consumers of matched sizes.
        half = []
        for i in range(n_gpus):
            if i % 2 == 0:
                half.append(ModelInstance(f"prod-{i}", "Llama", 20 * GiB))
            else:
                half.append(ModelInstance(f"cons-{i}", "Llama", -20 * GiB))
        half_placement = placer.place(half)

        rows.append(
            {
                "gpus": n_gpus,
                "mixed_seconds": mixed_placement.solve_seconds,
                "llm5050_seconds": half_placement.solve_seconds,
                "mixed_pairs": len(mixed_placement.pairs),
                "llm5050_pairs": len(half_placement.pairs),
            }
        )
    return {"rows": rows}


# ===========================================================================
# Figure 18: stressing the NVSwitch — 4 consumers + 4 producers
# ===========================================================================
def fig18_nvswitch_stress(duration: float = 60.0) -> dict:
    """Four long-prompt consumers, each paired over one NVSwitch fabric."""
    env = Environment()
    server = Server(env, n_gpus=8, topology="nvswitch")
    rigs = []
    for i, producer_model in enumerate((SD_15, SD_XL, KANDINSKY, AUDIOGEN)):
        rig = build_consumer_rig(
            "flexgen",
            OPT_30B,
            producer_model=producer_model,
            use_aqua=True,
            env=env,
            server=server,
            consumer_gpu=i,
            producer_gpu=4 + i,
            coordinator=rigs[0].coordinator if rigs else None,
            name_prefix=f"pair{i}-",
        ).start()
        rigs.append(rig)
    env.run(until=1.0)  # producers donate
    for rig in rigs:
        submit_all(env, rig.consumer_engine, long_prompt_requests(start=1.0))
    env.run(until=1.0 + duration)

    per_consumer = [r.consumer_engine.metrics.tokens_generated for r in rigs]

    # Reference: the same pair on a direct-NVLink 2-GPU server.
    single = build_consumer_rig(
        "flexgen", OPT_30B, producer_model=SD_15, use_aqua=True
    ).start()
    single.warm_up(1.0)
    submit_all(single.env, single.consumer_engine, long_prompt_requests(start=1.0))
    single.env.run(until=1.0 + duration)

    return {
        "per_consumer_tokens": per_consumer,
        "two_gpu_reference_tokens": single.consumer_engine.metrics.tokens_generated,
        "duration": duration,
    }


# ===========================================================================
# Tables 1-3: the evaluation's workload inventory
# ===========================================================================
def table1_deficit_jobs() -> list[dict]:
    """LLM inference jobs with a GPU memory deficit (consumers)."""
    return [
        {"model": OPT_30B.name, "workload": "Long-prompt inference", "engine": "FlexGen"},
        {"model": MISTRAL_7B.name, "workload": "LoRA adapters", "engine": "vLLM"},
        {"model": CODELLAMA_34B.name, "workload": "Code summary", "engine": "vLLM + CFS"},
    ]


def table2_excess_llm_jobs() -> list[dict]:
    """LLM inference jobs with excess memory (elastic producers)."""
    return [
        {"model": MISTRAL_7B.name, "workload": "ShareGPT", "engine": "vLLM"},
        {"model": LLAMA2_13B.name, "workload": "ShareGPT", "engine": "vLLM"},
    ]


def table3_producer_jobs() -> list[dict]:
    """Image and audio jobs with excess memory (memory producers)."""
    return [
        {
            "model": f"{SD_15.name}, {SD_XL.name}, {KANDINSKY.name}",
            "workload": "Parti prompts",
            "engine": "Diffusers",
        },
        {
            "model": "MusicGen, AudioGen",
            "workload": "Audio descriptions",
            "engine": "PyTorch",
        },
    ]


# ===========================================================================
# §6.1 end-to-end cluster placement (balanced vs LLM-heavy)
# ===========================================================================
def e2e_cluster_placement(seed: int = 0) -> dict:
    """Place 16 models on 8 x 2-GPU servers, both model splits (§6.1)."""
    placer = AquaPlacer(n_servers=8, gpus_per_server=2)

    balanced = []
    # Equal thirds: image, audio, language (sampled with replacement).
    image = [SD_15, SD_XL, KANDINSKY]
    audio = [AUDIOGEN]
    llms = [(OPT_30B, -12), (CODELLAMA_34B, -10), (MISTRAL_7B, -8)]
    for i in range(5):
        model = image[i % len(image)]
        balanced.append(
            ModelInstance(f"img-{i}", model.name, (80 - model.weight_bytes // GiB - 25) * GiB)
        )
    for i in range(5):
        balanced.append(ModelInstance(f"aud-{i}", AUDIOGEN.name, 40 * GiB))
    for i in range(6):
        model, deficit = llms[i % len(llms)]
        balanced.append(ModelInstance(f"llm-{i}", model.name, deficit * GiB))
    balanced_placement = placer.place(balanced)

    heavy = []
    # All LLMs: half busy (consumers), half lightly loaded (producers).
    for i in range(8):
        heavy.append(ModelInstance(f"busy-{i}", CODELLAMA_34B.name, -10 * GiB))
        heavy.append(ModelInstance(f"idle-{i}", LLAMA2_13B.name, 30 * GiB))
    heavy_placement = placer.place(heavy)

    return {
        "balanced": {
            "pairs": balanced_placement.pairs,
            "unmatched": balanced_placement.unmatched_consumers(balanced),
            "solve_seconds": balanced_placement.solve_seconds,
        },
        "llm_heavy": {
            "pairs": heavy_placement.pairs,
            "unmatched": heavy_placement.unmatched_consumers(heavy),
            "solve_seconds": heavy_placement.solve_seconds,
        },
    }
