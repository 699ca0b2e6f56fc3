"""The experiment table: every paper experiment as one cell.

:data:`EXPERIMENTS` is the one table of experiments.  Each entry is a
cell function, whose keyword parameters and defaults are its
``aqua-repro <name>`` flags, plus a renderer that prints the cell's
value as that command's table.  ``aqua-repro all`` writes every cell's
value to JSON, and ``aqua-repro replicate`` scores the paper's claims
on the same values (:mod:`repro.evals`).

``aqua-repro all --out results/`` produces one JSON file per cell — the
machine-readable companion to EXPERIMENTS.md, regenerable after any
change to the simulator.

Every experiment is an independent sealed simulation, so the set fans
out over CPU cores (``--jobs N``) and memoises through the
content-addressed run cache (``.aqua-cache/`` by default from the CLI;
see :mod:`repro.experiments.pool` and ``docs/parallelism.md``).  The
``manifest.json`` written alongside the results records, per
experiment, the output path, wall seconds, whether it was a cache hit,
and the SHA-256 digest of the result file — the digest is what the
CI ``parallel-smoke`` job compares across serial, parallel and
warm-cache runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.experiments import ablations as A
from repro.experiments import figures as F
from repro.experiments.pool import RunCache, RunSpec, run_specs
from repro.experiments.report import format_table
from repro.hardware.specs import GB, MB, NVLINK3_P2P
from repro.serving.metrics import percentile


# ===========================================================================
# Cells: the paper's figures and tables
# ===========================================================================
def fig01(rate: float = 5.0, count: int = 60) -> dict:
    result = F.fig01_motivation(rate=rate, count=count)
    return {label: data["summary"] for label, data in result.items()}


def fig02() -> dict:
    return F.fig02_contention()


def fig03(duration: float = 60.0) -> dict:
    return {
        "bandwidth": F.fig03a_interconnect_bandwidth()["rows"],
        "sharing": F.fig03b_sharing_impact(duration=duration),
    }


def fig03a_anchors() -> dict:
    """Figure 3a's two anchor points: ~100 GB/s at 2 MB, ~250 GB/s peak."""
    return {
        "gbps_at_2mb": NVLINK3_P2P.effective_bandwidth(2 * MB) / GB,
        "gbps_at_1gb": NVLINK3_P2P.effective_bandwidth(1 * GB) / GB,
    }


def fig07(duration: float = 60.0, jobs: int = 1) -> dict:
    return F.fig07_longprompt(duration=duration, jobs=jobs)


def fig08(rate: float = 8.0, count: int = 100) -> dict:
    result = F.fig08_lora(rate=rate, count=count)
    return {label: data["summary"] for label, data in result.items()}


def fig09(rates: Sequence[float] = (2.0, 5.0), count: int = 50, jobs: int = 1) -> dict:
    result = F.fig09_cfs(rates=tuple(rates), count=count, jobs=jobs)
    return {
        str(rate): {label: data["summary"] for label, data in systems.items()}
        for rate, systems in result.items()
    }


def fig10() -> dict:
    result = F.fig10_elastic()
    return {
        "consumer_tokens_total": result["consumer_tokens_total"],
        "free_memory_gib": result["free_memory_gib"][::10],
        # Per-second consumer throughput, decimated; the replication
        # eval (fig10-sawtooth) checks the donate -> reclaim-dip ->
        # recovery shape on these windows.
        "consumer_tokens_per_s": result["consumer_tokens_per_s"][::5],
        "phases": result["phases"],
    }


def fig11() -> dict:
    result = F.fig11_producer_overhead(end=120.0)
    return {
        label: {
            "count": len(rcts),
            "p50": percentile(rcts, 50) if rcts else None,
            "p95": percentile(rcts, 95) if rcts else None,
        }
        for label, rcts in result.items()
    }


def fig12(count: int = 100, jobs: int = 1) -> dict:
    result = F.fig12_tensor_size(count=count, jobs=jobs)
    return {
        size: {
            "baseline": data["baseline"]["summary"],
            "aqua": data["aqua"]["summary"],
            "saved": data["rct_mean_saved"],
        }
        for size, data in result.items()
    }


def fig13(users: int = 25, turns: int = 4) -> dict:
    result = F.fig13_chatbot(n_users=users, turns=turns)
    return {label: data["summary"] for label, data in result.items()}


def fig14(gpus: Sequence[int] = (16, 32, 64)) -> dict:
    return F.fig14_placer_convergence(gpu_counts=tuple(gpus))


def fig14_128gpu() -> dict:
    """The paper's full 16-128 GPU range.  Instances are drawn from one
    seeded stream across the sizes, so 128 GPUs is solved after 16-64."""
    return F.fig14_placer_convergence(gpu_counts=(16, 32, 64, 128))


def fig15() -> dict:
    result = F.fig15_llm_producer(rates=(2.0,), count=50)
    return {label: data["summary"] for label, data in result[2.0].items()}


def fig16() -> dict:
    result = F.fig16_sd_producer(rates=(2.0,), count=50)
    return {label: data["summary"] for label, data in result[2.0].items()}


def fig17() -> dict:
    result = F.fig17_nvswitch_cfs(rates=(2.0,), count=50)
    return {label: data["summary"] for label, data in result[2.0].items()}


def fig18(duration: float = 60.0) -> dict:
    return F.fig18_nvswitch_stress(duration=duration)


def tables() -> dict:
    return {
        "table1": F.table1_deficit_jobs(),
        "table2": F.table2_excess_llm_jobs(),
        "table3": F.table3_producer_jobs(),
    }


def frontier() -> dict:
    # Cluster serving frontier (docs/frontier.md): every routing policy
    # over the default load grid.  The sweep runs its own cells inline
    # (jobs=1) because this callable already executes inside the pool.
    from repro.experiments.frontier import frontier_sweep

    return frontier_sweep(jobs=1)


def e2e() -> dict:
    result = F.e2e_cluster_placement()
    return {
        split: {
            "pairs": data["pairs"],
            "unmatched": data["unmatched"],
            "solve_seconds": data["solve_seconds"],
        }
        for split, data in result.items()
    }


def sweep(
    rates: Sequence[float] = (1.0, 2.0, 4.0, 6.0), count: int = 40, jobs: int = 1
) -> dict:
    """vLLM / CFS-DRAM / AQUA summaries per request rate, rate-ordered."""
    from repro.experiments.sweep import sweep_request_rate

    points = sweep_request_rate(rates=tuple(rates), count=count, jobs=jobs)
    return {str(p.rate): p.summaries for p in points}


# ===========================================================================
# Renderers: a cell's value as its command's printed table
# ===========================================================================
def _by_key(title: str, key: str, fields: Sequence[str]) -> Callable[[dict], str]:
    """Renderer for a ``{row: {field: value}}`` cell, one row per key."""

    def render(value: dict) -> str:
        rows = [[k, *(v.get(f) for f in fields)] for k, v in value.items()]
        return format_table([key, *fields], rows, title=title)

    return render


def _flat(title: str, key: str, field: str) -> Callable[[dict], str]:
    """Renderer for a ``{row: number}`` cell."""

    def render(value: dict) -> str:
        return format_table([key, field], list(value.items()), title=title)

    return render


def _render_fig02(value: dict) -> str:
    return "\n\n".join(
        format_table(
            ["batch", "throughput/s", "free_GiB"],
            [[r["batch"], r["throughput"], r["free_gib"]] for r in rows],
            title=f"Figure 2: {model}",
        )
        for model, rows in value.items()
    )


def _render_fig03(value: dict) -> str:
    sharing = value["sharing"]
    bandwidth = format_table(
        ["size_bytes", "NVLink_GB/s", "PCIe_GB/s"],
        [[r["size_bytes"], r["nvlink_gbps"], r["pcie_gbps"]] for r in value["bandwidth"]],
        title="Figure 3a: effective bandwidth vs transfer size",
    )
    impact = format_table(
        ["isolated/s", "shared/s", "impact"],
        [
            [
                sharing["isolated_throughput"],
                sharing["shared_throughput"],
                f"{sharing['impact_fraction']:.1%}",
            ]
        ],
        title="Figure 3b: producer throughput while donating memory",
    )
    return f"{bandwidth}\n\n{impact}"


def _render_fig09(value: dict) -> str:
    fields = ("ttft_mean", "ttft_p95", "rct_mean")
    return "\n\n".join(
        _by_key(f"Figure 9: CFS responsiveness at {rate} req/s", "system", fields)(systems)
        for rate, systems in value.items()
    )


def _render_fig10(value: dict) -> str:
    table = format_table(
        ["t_s", "engine_free_GiB"],
        [[f"{t:.0f}", v] for t, v in value["free_memory_gib"]],
    )
    return (
        "Figure 10: elastic memory sharing\n"
        f"consumer tokens total: {value['consumer_tokens_total']}\n{table}"
    )


def _render_fig12(value: dict) -> str:
    return format_table(
        ["adapter", "baseline_rct_s", "aqua_rct_s", "saved_s"],
        [
            [size, d["baseline"].get("rct_mean"), d["aqua"].get("rct_mean"), d["saved"]]
            for size, d in value.items()
        ],
        title="Figure 12: AQUA benefit vs offloaded tensor size",
    )


def _render_fig14(value: dict) -> str:
    return format_table(
        ["gpus", "mixed_s", "llm5050_s", "mixed_pairs", "llm5050_pairs"],
        [
            [r["gpus"], r["mixed_seconds"], r["llm5050_seconds"], r["mixed_pairs"],
             r["llm5050_pairs"]]
            for r in value["rows"]
        ],
        title="Figure 14: AQUA-PLACER convergence time",
    )


def _render_fig18(value: dict) -> str:
    return (
        "Figure 18: NVSwitch stress (4 consumers + 4 producers)\n"
        f"per-consumer tokens: {value['per_consumer_tokens']}\n"
        f"2-GPU reference:     {value['two_gpu_reference_tokens']}"
    )


def _render_tables(value: dict) -> str:
    titles = {
        "table1": "Table 1: LLM jobs with memory deficit",
        "table2": "Table 2: LLM jobs with excess memory",
        "table3": "Table 3: image/audio producers",
    }
    return "\n\n".join(
        format_table(
            ["model", "workload", "engine"],
            [[r["model"], r["workload"], r["engine"]] for r in rows],
            title=titles[name],
        )
        for name, rows in value.items()
    )


def _render_e2e(value: dict) -> str:
    return format_table(
        ["split", "pairs", "unmatched", "solve_s"],
        [
            [split, len(d["pairs"]), len(d["unmatched"]), d["solve_seconds"]]
            for split, d in value.items()
        ],
        title="§6.1: cluster placement (balanced vs LLM-heavy)",
    )


def _render_frontier(sweep: dict) -> str:
    from repro.experiments.frontier import frontier_rows

    return "\n\n".join(
        format_table(
            ["rate", "offered", "goodput/s", "attainment", "shed_rate", "q_full"],
            rows,
            title=(
                f"Frontier: {policy} over {sweep['n_servers']} servers "
                f"({sweep['workload']} workload, {sweep['duration']:.0f}s)"
            ),
        )
        for policy, rows in frontier_rows(sweep).items()
    )


def _render_sweep(value: dict) -> str:
    from repro.experiments.sweep import SweepPoint, sweep_rows

    points = [SweepPoint(rate=float(rate), summaries=s) for rate, s in value.items()]
    return format_table(
        ["rate", "vllm_ttft_p95", "cfs_ttft_p95", "aqua_ttft_p95", "cfs_rct_penalty",
         "aqua_rct_penalty"],
        sweep_rows(points),
        title="Scheduler trade-offs vs request rate",
    )


def _render_placer(value: dict) -> str:
    fields = ("milp_obj", "greedy_obj", "milp_pairs", "greedy_pairs", "milp_s", "greedy_s")
    return _by_key("Ablation: exact MILP vs greedy placement", "gpus", fields)(
        {r["gpus"]: r for r in value["rows"]}
    )


def _render_cluster(value: dict) -> str:
    return "\n\n".join(
        _by_key(f"§6.1 concurrent cluster: {run}", "tenant", ("role", "tokens", "completed"))(
            tenants
        )
        for run, tenants in value.items()
    )


def _render_seeds(value: dict) -> str:
    return format_table(
        ["seed", "lora_gain", "longprompt_speedup"],
        list(zip(value["seeds"], value["lora_gain"], value["longprompt_speedup"])),
        title="Headline effects per workload seed",
    )


# ===========================================================================
# The table
# ===========================================================================
@dataclass(frozen=True)
class Experiment:
    """One experiment cell.

    ``cell(**params)`` returns the JSON-able value ``all`` writes and
    ``replicate`` scores; its keyword parameters and defaults are the
    command's flags.  ``render(value)`` is the command's printed table.
    ``rigs`` says whether the cell builds observable rigs, so that its
    command takes ``--trace``/``--scrape-interval``/``--dashboard``.
    """

    cell: Callable[..., dict]
    render: Callable[[dict], str]
    help: str
    rigs: bool = True


_RCT = ("rct_p50", "rct_mean", "rct_p95")
_TTFT_RCT = ("ttft_mean", "ttft_p95", "rct_mean")

EXPERIMENTS: dict[str, Experiment] = {
    "fig01": Experiment(
        fig01,
        _by_key("Figure 1: responsiveness vs throughput", "system", (*_TTFT_RCT, "rct_p95")),
        "motivation: TTFT/RCT per scheduler",
    ),
    "fig02": Experiment(fig02, _render_fig02, "resource contention vs batch size", rigs=False),
    "fig03": Experiment(fig03, _render_fig03, "interconnect bandwidth + sharing impact"),
    "fig03a-anchors": Experiment(
        fig03a_anchors,
        _flat("Figure 3a anchors: NVLink effective bandwidth", "point", "GB/s"),
        "NVLink bandwidth at 2 MB and 1 GB",
        rigs=False,
    ),
    "fig07": Experiment(
        fig07, _by_key("Figure 7: long-prompt tokens", "system", ("tokens", "speedup")),
        "long-prompt throughput",
    ),
    "fig08": Experiment(
        fig08, _by_key("Figure 8: LoRA adapter serving", "system", _RCT), "LoRA adapter RCTs"
    ),
    "fig09": Experiment(fig09, _render_fig09, "CFS responsiveness"),
    "fig10": Experiment(fig10, _render_fig10, "elastic memory sharing timeline"),
    "fig11": Experiment(
        fig11,
        _by_key("Figure 11: producer-side overhead of donating memory", "system",
                ("count", "p50", "p95")),
        "producer overhead",
    ),
    "fig12": Experiment(fig12, _render_fig12, "benefit vs tensor size"),
    "fig13": Experiment(
        fig13,
        _by_key("Figure 13: chatbot responsiveness over turns", "system",
                ("completed", "ttft_mean", "ttft_max", "rct_mean", "rct_max")),
        "chatbot long-term responsiveness",
    ),
    "fig14": Experiment(fig14, _render_fig14, "placer convergence time", rigs=False),
    "fig14-128gpu": Experiment(
        fig14_128gpu, _render_fig14, "placer convergence, 16-128 GPUs", rigs=False
    ),
    "fig15": Experiment(
        fig15, _by_key("Figure 15: CFS + Mistral LLM producer", "system", _TTFT_RCT),
        "CFS next to an elastic LLM producer",
    ),
    "fig16": Experiment(
        fig16, _by_key("Figure 16: CFS + StableDiffusion producer", "system", _TTFT_RCT),
        "CFS next to a StableDiffusion producer",
    ),
    "fig17": Experiment(
        fig17, _by_key("Figure 17: CFS on the 8-GPU NVSwitch server", "system", _TTFT_RCT),
        "CFS on the 8-GPU NVSwitch server",
    ),
    "fig18": Experiment(fig18, _render_fig18, "NVSwitch stress"),
    "tables": Experiment(tables, _render_tables, "workload inventory (Tables 1-3)", rigs=False),
    "workload-runs": Experiment(
        A.workload_runs,
        _by_key("Tables 1-3 jobs, run", "job", ("submitted", "done", "tokens")),
        "run a short slice of every Tables 1-3 job",
    ),
    "e2e": Experiment(e2e, _render_e2e, "cluster placement (balanced vs LLM-heavy)", rigs=False),
    "cluster-concurrent": Experiment(
        A.concurrent_cluster, _render_cluster, "16-model cluster, all tenants live",
    ),
    "frontier": Experiment(frontier, _render_frontier, "cluster serving frontier", rigs=False),
    "sweep": Experiment(sweep, _render_sweep, "scheduler trade-offs across request rates"),
    "a2-long-lora": Experiment(
        A.long_lora,
        _by_key("§A.2 sustained LoRA load", "system",
                ("submitted", "completed", "rct_p50", "rct_p95")),
        "ten simulated minutes of LoRA serving",
    ),
    "ablation-gather": Experiment(
        A.gather,
        _by_key("Ablation: gather kernels vs naive per-block copies", "variant",
                ("switch_time", "slices", "completed")),
        "CFS context switches with and without gather kernels",
    ),
    "ablation-placer": Experiment(
        A.placer, _render_placer, "exact MILP vs greedy placement", rigs=False
    ),
    "ablation-slice": Experiment(
        A.slice_length,
        _by_key("Ablation: CFS slice length", "slice_tokens",
                ("ttft_p95", "rct_mean", "switch_time")),
        "CFS slice length",
    ),
    "ablation-block-size": Experiment(
        A.block_size,
        _by_key("Ablation: paged-attention block size", "block_tokens",
                ("peak_batch", "capacity_tokens", "pieces_per_ctx")),
        "paged-attention block size",
        rigs=False,
    ),
    "ablation-control-frequency": Experiment(
        A.control_frequency,
        _flat("Ablation: reaction to a late donation", "respond_every", "tokens_in_60s"),
        "control-plane check frequency",
    ),
    "ablation-scaleup-domain": Experiment(
        A.scaleup_domain,
        _flat("Ablation: reading an OPT-30B context from each target", "target", "seconds"),
        "offload within vs across scale-up domains",
        rigs=False,
    ),
    "ablation-shared-producer": Experiment(
        A.shared_producer,
        _flat("Ablation: dedicated vs shared producer", "variant", "consumer_tokens"),
        "dedicated vs shared producer",
    ),
    "ablation-weighted-cfs": Experiment(
        A.weighted_cfs,
        _by_key("Weighted CFS service split over 40s", "weight", ("standard", "premium")),
        "weighted CFS service classes",
        rigs=False,
    ),
    "baseline-offload": Experiment(
        A.offload_baselines,
        _flat("Offload mechanisms, OPT-30B 8000-token prompt, 60s", "mechanism", "tokens"),
        "offload mechanisms compared",
    ),
    "baseline-orca": Experiment(
        A.orca_vs_vllm,
        _by_key("Orca max-length reservation vs vLLM paging", "engine",
                ("peak_concurrency", "ttft_p95", "rct_mean", "finish")),
        "Orca vs vLLM",
        rigs=False,
    ),
    "context-cache": Experiment(
        A.context_cache,
        _by_key("Chatbot on AQUA CFS +/- chat-context caching", "system",
                ("completed", "rct_mean", "finish", "cache_hits")),
        "chat contexts cached in donated memory",
    ),
    "sensitivity-hardware": Experiment(
        A.interconnect_sensitivity,
        _by_key("AQUA speedup across interconnect generations", "generation",
                ("dram", "aqua", "speedup")),
        "AQUA across GPU/link generations",
    ),
    "seed-robustness": Experiment(
        A.seed_robustness, _render_seeds, "headline effects across workload seeds"
    ),
}


def run_all(
    out_dir: str,
    only: Optional[list[str]] = None,
    progress: Callable[[str], None] = print,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> dict:
    """Run the selected experiments, writing one JSON file each.

    ``jobs`` fans the experiments out over a process pool (``1`` = the
    serial path); ``cache_dir`` enables the content-addressed run cache
    so previously computed cells are replayed instead of re-simulated.

    Returns a manifest mapping experiment name to output path,
    wall-clock seconds, cache provenance and result-file digest.  The
    ``manifest.json`` written to disk additionally carries a ``"run"``
    entry (a reserved name, not an experiment) with the jobs count and
    cache hit/miss totals.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = only or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiments: {unknown}")
    cache = RunCache(cache_dir) if cache_dir else None
    specs = []
    for name in names:
        cell = EXPERIMENTS[name].cell
        specs.append(RunSpec(task=f"{cell.__module__}:{cell.__name__}", label=name))
    results = run_specs(specs, jobs=jobs, cache=cache, progress=progress)
    manifest = {}
    for name, result in zip(names, results):
        path = out / f"{name}.json"
        payload = json.dumps(result.value, indent=1, default=str)
        path.write_text(payload)
        manifest[name] = {
            "path": str(path),
            "seconds": round(result.seconds, 2),
            "cached": result.cached,
            "digest": hashlib.sha256(payload.encode()).hexdigest(),
        }
    run_entry = {"jobs": jobs}
    if cache is not None:
        run_entry["cache"] = {"dir": str(cache.dir), **cache.stats.to_dict()}
    with open(out / "manifest.json", "w") as f:
        json.dump({**manifest, "run": run_entry}, f, indent=1)
    if cache is not None:
        progress(
            f"wrote {len(manifest)} result files to {out}/ "
            f"(jobs={jobs}, cache hits={cache.stats.hits} "
            f"misses={cache.stats.misses})"
        )
    else:
        progress(f"wrote {len(manifest)} result files to {out}/")
    return manifest
