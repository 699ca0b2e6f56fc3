"""The claim catalog: every figure/table result the paper states.

Each claim quotes (or tightly paraphrases) a result from the Aqua
paper's evaluation, names the `repro.experiments.runall` cell(s) that
measure it, and declares its tolerance bands, all in the ``_claim``
call that follows the check function scoring it.  Each :class:`Band` is
stated there once: the check computes its values in plain Python and
scores each one by calling the band (``tol["min_ttft_gap"](value,
label)``), and the claim's expected text and the traceability table in
``docs/replication.md`` are generated from the declarations.

Bands are deliberately loose around the measured values recorded in
``EXPERIMENTS.md`` — the reproduction target is the paper's *shape*
(orderings, starvation gaps, speedup factors), not bit-level numbers on
different hardware; see EXPERIMENTS.md's "Tolerance bands" section.
A strict band fails on a tie, e.g. when an ablated knob has no effect.

Importing this module populates :data:`repro.evals.registry.REGISTRY`,
in the order the claims appear here.
"""

from __future__ import annotations

import statistics

from repro.evals.checks import FAIL, Band, CheckResult, MissingMetric, check_all, metric, ratio
from repro.evals.registry import REGISTRY, Claim

# Model-name keys as they appear in experiment results (kept in sync
# with repro.models presets; tests/test_evals.py guards the spelling).
_AUDIOGEN = "AudioGen"
_SD = "StableDiffusion-1.5"
_LLAMA = "Llama-2-13B"
#: The Table 1 long-prompt job: its one prompt runs past the short slice.
_LONG_PROMPT_JOB = "OPT-30B long prompts"


def _claim(check, id: str, figure: str, experiments: tuple, claim: str, **tolerance: Band):
    """Register ``check`` as claim ``id``, scored against these bands."""
    REGISTRY.register(Claim(id, figure, claim, experiments, check, tolerance))


# ---------------------------------------------------------------------------
# Figure 1 — motivation: batching starves, CFS fixes TTFT, AQUA recovers RCT
# ---------------------------------------------------------------------------
def check_fig01_starvation(results, tol) -> CheckResult:
    s = results["fig01"]
    vllm = metric(s, "vllm", "ttft_p95")
    return check_all([
        tol["min_ttft_gap"](
            ratio(vllm, metric(s, system, "ttft_p95")), f"vllm_ttft_p95 / {system}_ttft_p95"
        )
        for system in ("cfs-dram", "aqua")
    ])


_claim(
    check_fig01_starvation,
    "fig01-starvation", "Figure 1", ("fig01",),
    "vLLM's batch admission starves late arrivals (TTFT spikes once "
    "~20 requests exhaust KV memory); CFS keeps TTFT flat.",
    min_ttft_gap=Band(lo=1.5, what="vLLM / CFS-DRAM and vLLM / AQUA TTFT p95"),
)


def check_fig01_rct_recovery(results, tol) -> CheckResult:
    s = results["fig01"]
    vllm = metric(s, "vllm", "rct_mean")
    cfs = metric(s, "cfs-dram", "rct_mean")
    aqua = metric(s, "aqua", "rct_mean")
    return check_all([
        tol["max_aqua_rct_penalty"](ratio(aqua, vllm), "aqua_rct / vllm_rct"),
        tol["aqua_below_cfs"](ratio(aqua, cfs), "aqua_rct / cfs_dram_rct"),
        tol["min_cfs_rct_penalty"](ratio(cfs, vllm), "cfs_dram_rct / vllm_rct"),
    ])


_claim(
    check_fig01_rct_recovery,
    "fig01-rct-recovery", "Figure 1", ("fig01",),
    "CFS over DRAM costs ~1.5-2x RCT; AQUA recovers most of that, "
    "ending near vLLM's RCT.",
    max_aqua_rct_penalty=Band(hi=1.5, what="AQUA / vLLM mean RCT"),
    aqua_below_cfs=Band(hi=1.0, strict=True, what="AQUA / CFS-DRAM mean RCT"),
    min_cfs_rct_penalty=Band(lo=1.3, strict=True, what="CFS-DRAM / vLLM mean RCT"),
)


# ---------------------------------------------------------------------------
# Figure 2 — memory- vs compute-bound contention ordering
# ---------------------------------------------------------------------------
def check_fig02_producer_headroom(results, tol) -> CheckResult:
    rows = results["fig02"]
    subchecks = []
    for model in (_AUDIOGEN, _SD):
        series = metric(rows, model)
        peak = max(series, key=lambda r: metric(r, "throughput"))
        last, mid = series[-1], series[len(series) // 2]
        subchecks += [
            tol["min_producer_free_gib"](
                metric(peak, "free_gib"), f"{model} free GiB at peak throughput"
            ),
            tol["min_plateau_free_gib"](
                metric(last, "free_gib"), f"{model} free GiB at largest batch"
            ),
            tol["max_plateau_growth"](
                ratio(metric(last, "throughput"), metric(mid, "throughput")),
                f"{model} throughput largest / middle batch",
            ),
        ]
    return check_all(subchecks)


_claim(
    check_fig02_producer_headroom,
    "fig02-producer-headroom", "Figure 2", ("fig02",),
    "Image/audio generation is compute-bound: throughput plateaus "
    "with tens of GB of HBM still free.",
    min_producer_free_gib=Band(lo=10.0, what="producer GiB free at peak throughput"),
    min_plateau_free_gib=Band(lo=20.0, strict=True, what="producer GiB free at the largest batch"),
    max_plateau_growth=Band(
        hi=1.2, strict=True, what="producer throughput, largest / middle batch"
    ),
)


def check_fig02_llm_exhaustion(results, tol) -> CheckResult:
    series = metric(results["fig02"], _LLAMA)
    first, last = (series[0], series[-1]) if series else ({}, {})
    return check_all([
        tol["max_llm_free_gib"](
            metric(last, "free_gib"), f"{_LLAMA} free GiB at largest feasible batch"
        ),
        tol["min_llm_throughput_growth"](
            ratio(metric(last, "throughput"), metric(first, "throughput")),
            f"{_LLAMA} throughput largest / smallest batch",
        ),
    ])


_claim(
    check_fig02_llm_exhaustion,
    "fig02-llm-exhaustion", "Figure 2", ("fig02",),
    "LLM inference is memory-bound: free memory ~0 at peak "
    "throughput (the KV cache exhausts HBM).",
    max_llm_free_gib=Band(hi=2.0, what="Llama-2-13B GiB free at the largest batch"),
    min_llm_throughput_growth=Band(
        lo=1.0, strict=True, what="Llama-2-13B throughput, largest / smallest batch"
    ),
)


# ---------------------------------------------------------------------------
# Figure 3 — interconnect bandwidth curve + producer sharing impact
# ---------------------------------------------------------------------------
def check_fig03a_small_transfers(results, tol) -> CheckResult:
    rows = metric(results["fig03"], "bandwidth")
    smallest = min(rows, key=lambda r: metric(r, "size_bytes"))
    rel = ratio(metric(smallest, "nvlink_gbps"), metric(smallest, "pcie_gbps"))
    return tol["max_smallbuf_advantage"](rel, "nvlink/pcie at smallest buffer")


_claim(
    check_fig03a_small_transfers,
    "fig03a-small-transfers", "Figure 3a", ("fig03",),
    "At small (~4 KB) transfers NVLink is nearly as slow as PCIe — latency dominates.",
    max_smallbuf_advantage=Band(hi=2.0, what="NVLink / PCIe GB/s at the smallest buffer"),
)


def check_fig03a_peak_bandwidth(results, tol) -> CheckResult:
    rows = metric(results["fig03"], "bandwidth")
    nvlink_peak = max(metric(r, "nvlink_gbps") for r in rows)
    pcie_peak = max(metric(r, "pcie_gbps") for r in rows)
    return check_all([
        tol["nvlink_peak"](nvlink_peak, "NVLink peak GB/s"),
        tol["min_peak_ratio"](ratio(nvlink_peak, pcie_peak), "NVLink/PCIe peak ratio"),
    ])


_claim(
    check_fig03a_peak_bandwidth,
    "fig03a-peak-bandwidth", "Figure 3a", ("fig03",),
    "Large transfers reach ~250 GB/s over NVLink, an order of magnitude above PCIe.",
    nvlink_peak=Band(200.0, 280.0, what="NVLink peak GB/s"),
    min_peak_ratio=Band(lo=5.0, what="NVLink / PCIe peak GB/s"),
)


def check_fig03b_producer_impact(results, tol) -> CheckResult:
    impact = metric(results["fig03"], "sharing", "impact_fraction")
    return tol["max_impact_fraction"](impact, "producer throughput impact")


_claim(
    check_fig03b_producer_impact,
    "fig03b-producer-impact", "Figure 3b", ("fig03",),
    "Serving NVLink offloads costs the producer <5% throughput.",
    # Of the two bounds once checked (<= 0.10 here, < 0.08 over 120 s),
    # the tighter is kept; batch quantization lands runs at 1-6%.
    max_impact_fraction=Band(hi=0.08, strict=True, what="producer throughput impact fraction"),
)


# The two points Figure 3a's text names, thresholds kept from the
# earlier full-scale check; the figure cell's size grid skips both.
def check_fig03a_anchors(results, tol) -> CheckResult:
    out = results["fig03a-anchors"]
    return check_all([
        tol["gbps_2mb"](metric(out, "gbps_at_2mb"), "NVLink GB/s at 2 MB"),
        tol["min_gbps_1gb"](metric(out, "gbps_at_1gb"), "NVLink GB/s at 1 GB"),
    ])


_claim(
    check_fig03a_anchors,
    "fig03a-anchors-bandwidth", "Figure 3a", ("fig03a-anchors",),
    "NVLink reaches ~100 GB/s only at 2 MB transfers and saturates near its 250 GB/s peak.",
    gbps_2mb=Band(80.0, 130.0, strict=True, what="NVLink GB/s at 2 MB"),
    # 90% of the 250 GB/s peak.
    min_gbps_1gb=Band(lo=225.0, strict=True, what="NVLink GB/s at 1 GB"),
)


# ---------------------------------------------------------------------------
# Figure 7 — long-prompt inference: AQUA ~6x over FlexGen-to-DRAM
# ---------------------------------------------------------------------------
def check_fig07_ordering(results, tol) -> CheckResult:
    out = results["fig07"]
    base = metric(out, "flexgen-dram", "tokens")
    floor = tol["flexgen_tokens"](base, "flexgen-dram tokens")
    if floor.status == FAIL:  # a zero baseline: no ratio to score
        return floor
    return check_all([
        *(
            tol["over_flexgen"](ratio(metric(data, "tokens"), base), f"{label} tokens / flexgen")
            for label, data in out.items()
            if label != "flexgen-dram"
        ),
        floor,
    ])


_claim(
    check_fig07_ordering,
    "fig07-ordering", "Figure 7", ("fig07",),
    "AQUA outpaces FlexGen-to-DRAM on long-prompt inference with "
    "every producer pairing (SD, AudioGen, Llama).",
    over_flexgen=Band(lo=1.0, what="each AQUA variant's tokens / FlexGen-to-DRAM's"),
    flexgen_tokens=Band(lo=0.0, strict=True, what="FlexGen-to-DRAM tokens"),
)


def check_fig07_speedup(results, tol) -> CheckResult:
    return check_all([
        tol["speedup"](metric(data, "speedup"), f"{label} speedup")
        for label, data in results["fig07"].items()
        if label != "flexgen-dram"
    ])


_claim(
    check_fig07_speedup,
    "fig07-speedup", "Figure 7", ("fig07",),
    "AQUA generates ~6x more tokens than FlexGen in the same window.",
    # The paper's ~6x, widened by the spread over seeds and windows.
    speedup=Band(4.0, 10.0, what="each AQUA variant's speedup over FlexGen"),
)


# ---------------------------------------------------------------------------
# Figure 8 — LoRA serving: up to ~1.8x RCT, producer-independent
# ---------------------------------------------------------------------------
_FIG08_PRODUCERS = ("aqua-0", "aqua-1", "aqua-llm")


def check_fig08_gain(results, tol) -> CheckResult:
    s = results["fig08"]
    base = metric(s, "baseline", "rct_mean")
    return check_all([
        tol["gain"](ratio(base, metric(s, label, "rct_mean")), f"baseline/{label} rct_mean")
        for label in _FIG08_PRODUCERS
    ])


_claim(
    check_fig08_gain,
    "fig08-gain", "Figure 8", ("fig08",),
    "AQUA improves LoRA request completion times up to ~1.8x.",
    gain=Band(1.4, 2.6, what="baseline / AQUA mean RCT, each producer"),
)


def check_fig08_producer_equivalence(results, tol) -> CheckResult:
    means = [metric(results["fig08"], label, "rct_mean") for label in _FIG08_PRODUCERS]
    spread = ratio(max(means) - min(means), min(means))
    return tol["max_rel_spread"](spread, "relative rct spread across producers")


_claim(
    check_fig08_producer_equivalence,
    "fig08-producer-equivalence", "Figure 8", ("fig08",),
    "The LoRA benefit is identical whether the producer is SD, SD-XL or a Llama-2-13B LLM.",
    max_rel_spread=Band(hi=0.15, what="relative mean RCT spread across producers"),
)


# ---------------------------------------------------------------------------
# Figure 9 — CFS responsiveness: the starvation gap at every rate
# ---------------------------------------------------------------------------
def check_fig09_starvation_gap(results, tol) -> CheckResult:
    lowest = min(results["fig09"], key=float)
    low = metric(results["fig09"], lowest)
    subchecks = [
        tol["min_low_rate_ttft_gap"](
            ratio(metric(low, "vllm", "ttft_p95"), metric(low, system, "ttft_p95")),
            f"rate {lowest} vllm/{system} ttft",
        )
        for system in ("cfs-dram", "aqua")
    ]
    for rate, systems in results["fig09"].items():
        vllm = metric(systems, "vllm", "ttft_p95")
        cfs = metric(systems, "cfs-dram", "ttft_p95")
        aqua = metric(systems, "aqua", "ttft_p95")
        subchecks.append(tol["min_ttft_gap"](ratio(vllm, cfs), f"rate {rate} vllm/cfs ttft"))
        subchecks.append(tol["max_aqua_vs_cfs"](ratio(aqua, cfs), f"rate {rate} aqua/cfs ttft"))
    return check_all(subchecks)


_claim(
    check_fig09_starvation_gap,
    "fig09-starvation-gap", "Figure 9", ("fig09",),
    "CFS cuts TTFT ~4x vs vLLM's batching (the starvation gap), "
    "and AQUA preserves the CFS TTFT.",
    min_low_rate_ttft_gap=Band(
        lo=2.0, strict=True, what="vLLM / CFS-DRAM and vLLM / AQUA TTFT p95 at the lowest rate"
    ),
    min_ttft_gap=Band(lo=1.5, what="vLLM / CFS-DRAM TTFT p95, every rate"),
    max_aqua_vs_cfs=Band(hi=1.3, what="AQUA / CFS-DRAM TTFT p95, every rate"),
)


def check_fig09_rct_ordering(results, tol) -> CheckResult:
    subchecks = []
    for rate, systems in results["fig09"].items():
        vllm = metric(systems, "vllm", "rct_mean")
        cfs = metric(systems, "cfs-dram", "rct_mean")
        aqua = metric(systems, "aqua", "rct_mean")
        subchecks.append(
            tol["max_aqua_rct_penalty"](ratio(aqua, vllm), f"rate {rate} aqua/vllm rct")
        )
        subchecks.append(tol["aqua_below_cfs"](ratio(aqua, cfs), f"rate {rate} aqua/cfs rct"))
    return check_all(subchecks)


_claim(
    check_fig09_rct_ordering,
    "fig09-rct-ordering", "Figure 9", ("fig09",),
    "AQUA's RCT lands near vLLM's, below CFS-over-DRAM's penalty.",
    max_aqua_rct_penalty=Band(hi=1.3, what="AQUA / vLLM mean RCT, every rate"),
    aqua_below_cfs=Band(hi=1.0, strict=True, what="AQUA / CFS-DRAM mean RCT, every rate"),
)


# ---------------------------------------------------------------------------
# Figure 10 — elastic sharing: donate → reclaim dip → recovery
# ---------------------------------------------------------------------------
def _window_mean(series, lo: float, hi: float) -> float:
    values = [v for t, v in series if lo <= t < hi]
    if not values:
        raise MissingMetric(f"no throughput samples in window [{lo}, {hi})")
    return sum(values) / len(values)


def _open_window_mean(series, lo: float, hi: float) -> float:
    """Like :func:`_window_mean` over the open window ``(lo, hi)``."""
    return _window_mean([(t, v) for t, v in series if t != lo], lo, hi)


def check_fig10_sawtooth(results, tol) -> CheckResult:
    out = results["fig10"]
    series = metric(out, "consumer_tokens_per_s")
    phases = metric(out, "phases")
    p1, p2, end = (metric(phases, "phase1"), metric(phases, "phase2"), metric(phases, "end"))
    fast = _window_mean(series, p1 + 20.0, p2)
    dip = _window_mean(series, p2 + 5.0, p2 + 30.0)
    recovered = _window_mean(series, end - 40.0, end)
    # The same shape over wider, open windows: the dip through p2 + 40 s,
    # the recovery after end - 20 s.
    before = _open_window_mean(series, p1 + 20.0, p2)
    during = _open_window_mean(series, p2 + 5.0, p2 + 40.0)
    after = _open_window_mean(series, end - 20.0, float("inf"))
    free = [v for _, v in metric(out, "free_memory_gib")]
    return check_all([
        tol["min_reclaimed_over_donated"](
            ratio(max(free), min(free)), "max / min engine free GiB"
        ),
        tol["min_before_over_during"](
            ratio(before, during), "before-burst / during-reclaim tokens/s"
        ),
        tol["min_after_over_during"](
            ratio(after, during), "after-burst / during-reclaim tokens/s"
        ),
        tol["min_fast_over_reclaimed"](
            ratio(fast, max(dip, 1e-9)), "fast-path / reclaimed tokens/s"
        ),
        tol["min_recovery_fraction"](ratio(recovered, fast), "post-recovery / fast-path tokens/s"),
    ])


_claim(
    check_fig10_sawtooth,
    "fig10-sawtooth", "Figure 10", ("fig10",),
    "The producer donates when idle, a heavy burst reclaims the "
    "memory (denting consumer throughput), and re-donation restores it.",
    min_reclaimed_over_donated=Band(lo=2.0, strict=True, what="max / min engine free GiB"),
    min_before_over_during=Band(
        lo=1.5, strict=True, what="before-burst / during-reclaim tokens/s"
    ),
    min_after_over_during=Band(lo=1.3, strict=True, what="after-burst / during-reclaim tokens/s"),
    min_fast_over_reclaimed=Band(lo=3.0, what="fast-path / reclaimed tokens/s"),
    min_recovery_fraction=Band(lo=0.6, what="post-recovery / fast-path tokens/s"),
)


# ---------------------------------------------------------------------------
# Figure 11 — producer-side cost of donating: "very similar" RCTs
# ---------------------------------------------------------------------------
def check_fig11_producer_overhead(results, tol) -> CheckResult:
    s = results["fig11"]
    return check_all([
        *(
            tol["max_overhead_ratio"](
                ratio(metric(s, "aqua", q), metric(s, "baseline", q)),
                f"aqua/baseline producer rct {q}",
            )
            for q in ("p50", "p95")
        ),
        tol["min_completed_fraction"](
            ratio(metric(s, "aqua", "count"), metric(s, "baseline", "count")),
            "aqua/baseline producer requests completed",
        ),
    ])


_claim(
    check_fig11_producer_overhead,
    "fig11-producer-overhead", "Figure 11", ("fig11",),
    "Baseline and AQUA producer RCTs are very similar — donating "
    "costs the producer almost nothing.",
    max_overhead_ratio=Band(hi=1.05, what="AQUA / baseline producer RCT p50 and p95"),
    min_completed_fraction=Band(lo=0.95, what="AQUA / baseline producer requests completed"),
)


# ---------------------------------------------------------------------------
# Figure 12 — benefit grows with offloaded tensor size
# ---------------------------------------------------------------------------
def check_fig12_size_ordering(results, tol) -> CheckResult:
    s = results["fig12"]
    small = metric(s, "160MB", "saved")
    large = metric(s, "320MB", "saved")
    return check_all([
        tol["small_saves"](small, "160MB rct_mean saved (s)"),
        tol["large_saves_more"](large - small, "320MB saved - 160MB saved (s)"),
        tol["min_saved_ratio"](ratio(large, small), "320MB / 160MB saved"),
    ])


_claim(
    check_fig12_size_ordering,
    "fig12-size-ordering", "Figure 12", ("fig12",),
    "Larger offloaded tensors benefit more: 320 MB adapters save "
    "more RCT than 160 MB ones (same compute, more I/O).",
    small_saves=Band(lo=0.0, strict=True, what="160 MB mean RCT saved (s)"),
    large_saves_more=Band(lo=0.0, what="320 MB saved - 160 MB saved (s)"),
    min_saved_ratio=Band(lo=1.5, strict=True, what="320 MB / 160 MB saved"),
)


# ---------------------------------------------------------------------------
# Figure 13 — chatbot long-term responsiveness (§8)
# ---------------------------------------------------------------------------
def check_fig13_chatbot(results, tol) -> CheckResult:
    s = results["fig13"]
    turns = [
        tol["turns"](float(metric(s, system, "completed")), f"{system} turns completed")
        for system in ("vllm", "cfs-dram", "aqua")
    ]
    return check_all([
        *(
            tol["min_worstcase_ttft_gap"](
                ratio(metric(s, "vllm", "ttft_max"), metric(s, system, "ttft_max")),
                f"vllm/{label} ttft_max",
            )
            for system, label in (("aqua", "aqua"), ("cfs-dram", "cfs"))
        ),
        tol["max_aqua_rct_penalty"](
            ratio(metric(s, "aqua", "rct_mean"), metric(s, "vllm", "rct_mean")),
            "aqua/vllm rct_mean",
        ),
        tol["aqua_vs_cfs"](
            ratio(metric(s, "aqua", "rct_mean"), metric(s, "cfs-dram", "rct_mean")),
            "aqua/cfs rct_mean",
        ),
        *turns,
    ])


_claim(
    check_fig13_chatbot,
    "fig13-chatbot", "Figure 13", ("fig13",),
    "Without CFS some users repeatedly hit unresponsiveness; with "
    "AQUA worst-case TTFT collapses at near-vLLM RCT.",
    min_worstcase_ttft_gap=Band(
        lo=2.0, strict=True, what="vLLM / AQUA and vLLM / CFS-DRAM TTFT max"
    ),
    max_aqua_rct_penalty=Band(hi=1.2, what="AQUA / vLLM mean RCT"),
    aqua_vs_cfs=Band(hi=1.0, what="AQUA / CFS-DRAM mean RCT"),
    turns=Band(100.0, 100.0, what="turns completed, each system"),
)


# ---------------------------------------------------------------------------
# Figure 14 / §A.1 — placer convergence: 50/50 LLM clusters solve fast
# ---------------------------------------------------------------------------
#: Shared by both Figure 14 claims.
_PLACER_BANDS = dict(
    pairs=Band(what="50/50 pairs", equals="GPUs / 2"),
    # CI slack over the paper's "under a second".
    max_llm5050_seconds=Band(hi=2.0, strict=True, what="50/50 solve s"),
    mixed_slower=Band(lo=0.0, strict=True, what="mixed - 50/50 solve s"),
)


def _placer_rows(rows, tol) -> list[CheckResult]:
    subchecks = []
    for row in rows:
        gpus = metric(row, "gpus")
        subchecks += [
            tol["pairs"](
                float(metric(row, "llm5050_pairs")), f"{gpus}-GPU 50/50 pairs",
                equal_to=gpus // 2,
            ),
            tol["max_llm5050_seconds"](
                metric(row, "llm5050_seconds"), f"{gpus}-GPU 50/50 solve s"
            ),
            tol["mixed_slower"](
                metric(row, "mixed_seconds") - metric(row, "llm5050_seconds"),
                f"{gpus}-GPU mixed - 50/50 solve s",
            ),
        ]
    return subchecks


def check_fig14_placer_ordering(results, tol) -> CheckResult:
    return check_all(_placer_rows(metric(results["fig14"], "rows"), tol))


_claim(
    check_fig14_placer_ordering,
    "fig14-placer-ordering", "Figure 14 / §A.1", ("fig14",),
    "50/50 LLM clusters solve in under a second; mixed-modality "
    "instances are the slow case.",
    **_PLACER_BANDS,
)


def check_fig14_128gpu_budget(results, tol) -> CheckResult:
    rows = metric(results["fig14-128gpu"], "rows")
    largest = rows[-1] if rows else {}
    return check_all([
        *_placer_rows(rows, tol),
        tol["largest_gpus"](float(metric(largest, "gpus")), "largest instance GPUs"),
        tol["max_mixed_seconds"](metric(largest, "mixed_seconds"), "128-GPU mixed solve s"),
    ])


_claim(
    check_fig14_128gpu_budget,
    "fig14-128gpu-budget", "Figure 14 / §A.1", ("fig14-128gpu",),
    "Up to 128 GPUs, 50/50 clusters stay fast and fully paired, "
    "and the time budget bounds the largest mixed instance.",
    **_PLACER_BANDS,
    largest_gpus=Band(128, 128, what="largest instance GPUs"),
    # Only the 128-GPU mixed instance tests the solver's time budget:
    # 60 s of HiGHS time limit plus model build.
    max_mixed_seconds=Band(hi=90.0, strict=True, what="128-GPU mixed solve s"),
)


# ---------------------------------------------------------------------------
# Figures 15/16/17 — same CFS improvements for every producer/topology
# ---------------------------------------------------------------------------
def check_fig15_17_invariance(results, tol) -> CheckResult:
    subchecks = []
    aqua_p95s = []
    for name in ("fig15", "fig16", "fig17"):
        systems = results[name]
        vllm = metric(systems, "vllm", "ttft_p95")
        aqua = metric(systems, "aqua", "ttft_p95")
        aqua_p95s.append(aqua)
        subchecks.append(tol["min_ttft_gap"](ratio(vllm, aqua), f"{name} vllm/aqua ttft"))
        subchecks.append(
            tol["aqua_below_cfs"](
                ratio(metric(systems, "aqua", "rct_mean"),
                      metric(systems, "cfs-dram", "rct_mean")),
                f"{name} aqua/cfs rct",
            )
        )
    spread = ratio(max(aqua_p95s) - min(aqua_p95s), min(aqua_p95s))
    subchecks.append(tol["max_rel_spread"](spread, "aqua ttft_p95 spread across variants"))
    return check_all(subchecks)


_claim(
    check_fig15_17_invariance,
    "fig15-17-producer-invariance", "Figures 15/16/17", ("fig15", "fig16", "fig17"),
    "The CFS improvements hold whether the producer is an elastic "
    "LLM, StableDiffusion, or behind an 8-GPU NVSwitch.",
    # Of the two TTFT-gap bounds once checked (>= 1.5x, and AQUA
    # halving vLLM's TTFT), the tighter > 2x is kept.
    min_ttft_gap=Band(lo=2.0, strict=True, what="vLLM / AQUA TTFT p95, each variant"),
    aqua_below_cfs=Band(hi=1.0, strict=True, what="AQUA / CFS-DRAM mean RCT, each variant"),
    max_rel_spread=Band(hi=0.3, what="relative AQUA TTFT p95 spread across variants"),
)


# ---------------------------------------------------------------------------
# Figure 18 — NVSwitch pairs match the 2-GPU direct-NVLink reference
# ---------------------------------------------------------------------------
def check_fig18_nvswitch(results, tol) -> CheckResult:
    out = results["fig18"]
    reference = metric(out, "two_gpu_reference_tokens")
    per_consumer = metric(out, "per_consumer_tokens")
    if not per_consumer:
        raise MissingMetric("fig18 measured no consumers")
    worst = min(ratio(tokens, reference) for tokens in per_consumer)
    return check_all([
        tol["consumers"](float(len(per_consumer)), "consumers measured"),
        tol["min_reference_fraction"](worst, "worst consumer / 2-GPU reference tokens"),
        tol["max_consumer_spread"](
            ratio(max(per_consumer), min(per_consumer)), "max / min consumer tokens"
        ),
    ])


_claim(
    check_fig18_nvswitch,
    "fig18-nvswitch-scaling", "Figure 18", ("fig18",),
    "Four consumer/producer pairs across the NVSwitch each match "
    "the 2-GPU direct-NVLink throughput — ports don't contend.",
    consumers=Band(4, 4, what="consumers measured"),
    min_reference_fraction=Band(
        lo=0.8, strict=True, what="worst consumer / 2-GPU reference tokens"
    ),
    max_consumer_spread=Band(hi=1.2, strict=True, what="max / min consumer tokens"),
)


# ---------------------------------------------------------------------------
# Tables 1–3 — the workload inventory is complete, and every job runs
# ---------------------------------------------------------------------------
_INVENTORY_ROWS = (3, 2, 2)
_INVENTORY_MODELS = ("OPT-30B", "Mistral-7B", "CodeLlama-34B", _LLAMA, _AUDIOGEN)


def check_tables_inventory(results, tol) -> CheckResult:
    tables = [metric(results["tables"], f"table{n}") for n in (1, 2, 3)]
    counts = tuple(len(rows) for rows in tables)
    models = " ".join(str(metric(r, "model")) for rows in tables for r in rows)
    missing = [m for m in _INVENTORY_MODELS if m not in models]
    return tol["complete"](
        float(counts == _INVENTORY_ROWS and not missing),
        f"inventory of {counts} rows, missing models {missing}",
        measured={"rows": counts},
    )


_claim(
    check_tables_inventory,
    "tables-inventory", "Tables 1-3", ("tables",),
    "The evaluation serves three memory-deficit LLM jobs, two "
    "elastic LLM producers and the image/audio producer jobs.",
    complete=Band(
        1.0, 1.0,
        what="inventory complete (3 + 2 + 2 rows naming OPT-30B, Mistral-7B, "
        "CodeLlama-34B, Llama-2-13B and AudioGen; 1 = yes)",
    ),
)


# Serving the inventory, not just listing it: a short slice of every
# job must finish on its engine (the one long prompt only has to make
# progress).
def check_workload_runs(results, tol) -> CheckResult:
    subchecks = []
    for job, run in results["workload-runs"].items():
        subchecks.append(tol["tokens"](float(metric(run, "tokens")), f"{job} tokens"))
        if job != _LONG_PROMPT_JOB:  # one long prompt outlasts the slice
            subchecks.append(
                tol["done"](
                    float(metric(run, "done")), f"{job} done", equal_to=metric(run, "submitted")
                )
            )
    return check_all(subchecks)


_claim(
    check_workload_runs,
    "workload-runs-complete", "Tables 1-3", ("workload-runs",),
    "Every (model, workload, engine) row of Tables 1-3 runs on the reproduction.",
    tokens=Band(lo=0.0, strict=True, what="tokens generated, each job"),
    done=Band(what="requests done, each job but the long prompt", equals="submitted"),
)


# ---------------------------------------------------------------------------
# Cluster serving frontier (docs/frontier.md) — routing + overload control
# on top of hardware.cluster; an extension beyond the paper's single
# scale-up domain, held to the same claim discipline.
# ---------------------------------------------------------------------------
def _frontier_cells(results):
    grid = metric(results["frontier"], "grid")
    if not grid:
        raise MissingMetric("frontier sweep produced an empty grid")
    return grid


def check_frontier_conservation(results, tol) -> CheckResult:
    subchecks = []
    for policy, cells in _frontier_cells(results).items():
        for cell in cells:
            label = f"{policy}@{metric(cell, 'rate'):g}"
            drift = float(
                metric(cell, "offered") - metric(cell, "routed") - metric(cell, "shed_total")
            )
            subchecks.append(tol["drift"](drift, f"{label} offered - routed - shed"))
            subchecks.append(
                tol["ledger_ok"](float(bool(metric(cell, "ledger_ok"))), f"{label} ledger verdict")
            )
    return check_all(subchecks)


_claim(
    check_frontier_conservation,
    "frontier-conservation", "docs/frontier.md", ("frontier",),
    "The global router never loses a request: every frontier "
    "cell's books balance (offered == routed + shed) for every "
    "policy at every offered load, total and per tenant.",
    drift=Band(0.0, 0.0, what="offered - routed - shed, every cell"),
    ledger_ok=Band(1.0, 1.0, what="clean ledger verdict, every cell (1 = yes)"),
)


def check_frontier_low_load(results, tol) -> CheckResult:
    subchecks = []
    for policy, cells in _frontier_cells(results).items():
        cell = cells[0]  # lowest offered load in the grid
        rate = metric(cell, "rate")
        at = f"at {rate:g} req/s"
        subchecks += [
            tol["min_low_load_attainment"](
                metric(cell, "attainment"), f"{policy} attainment {at}"
            ),
            tol["max_low_load_shed"](metric(cell, "shed_rate"), f"{policy} shed rate {at}"),
            tol["goodput_frac"](
                ratio(metric(cell, "goodput"), rate), f"{policy} goodput/offered {at}"
            ),
        ]
    return check_all(subchecks)


_claim(
    check_frontier_low_load,
    "frontier-low-load", "docs/frontier.md", ("frontier",),
    "Below the cluster knee the frontier is ideal: goodput "
    "tracks offered load, nothing sheds, and TTFT attainment is "
    "near-perfect for every routing policy.",
    min_low_load_attainment=Band(lo=0.9, what="TTFT attainment at the lowest rate"),
    max_low_load_shed=Band(hi=0.02, what="shed rate at the lowest rate"),
    goodput_frac=Band(0.8, 1.2, what="goodput / offered at the lowest rate"),
)


def check_frontier_overload(results, tol) -> CheckResult:
    subchecks = []
    for policy, cells in _frontier_cells(results).items():
        shed_rates = [metric(c, "shed_rate") for c in cells]
        monotone = all(a <= b + 1e-12 for a, b in zip(shed_rates, shed_rates[1:]))
        top = cells[-1]
        best_goodput = max(metric(c, "goodput") for c in cells)
        subchecks += [
            tol["monotone"](
                float(monotone), f"{policy} shed rate monotone in offered load {shed_rates}"
            ),
            tol["min_overload_shed"](
                metric(top, "shed_rate"), f"{policy} shed rate at {metric(top, 'rate'):g} req/s"
            ),
            tol["min_overload_goodput_frac"](
                ratio(metric(top, "goodput"), best_goodput),
                f"{policy} overload goodput / best goodput",
            ),
        ]
    return check_all(subchecks)


_claim(
    check_frontier_overload,
    "frontier-overload-shedding", "docs/frontier.md", ("frontier",),
    "Past the knee the router degrades gracefully: shed rate "
    "rises monotonically with offered load, overload sheds "
    "explicitly rather than silently, and goodput holds near its "
    "peak instead of collapsing.",
    monotone=Band(1.0, 1.0, what="shed rate non-decreasing in offered load (1 = yes)"),
    min_overload_shed=Band(lo=0.05, what="shed rate at the top rate"),
    min_overload_goodput_frac=Band(
        lo=0.5, what="goodput at the top rate / the policy's best goodput"
    ),
)


# ---------------------------------------------------------------------------
# §6.1 — end-to-end cluster placement, and the placed cluster running live
# ---------------------------------------------------------------------------
def check_e2e_placement(results, tol) -> CheckResult:
    out = results["e2e"]
    subchecks = []
    for split in ("balanced", "llm_heavy"):
        unmatched = metric(out, split, "unmatched")
        subchecks.append(tol["unmatched"](float(len(unmatched)), f"{split} unmatched consumers"))
        pairs = metric(out, split, "pairs")
        subchecks.append(tol["min_pairs"](float(len(pairs)), f"{split} pairs"))
    return check_all(subchecks)


_claim(
    check_e2e_placement,
    "e2e-placement-coverage", "§6.1", ("e2e",),
    "AQUA-PLACER pairs every memory-deficit consumer with a "
    "producer in both the balanced and LLM-heavy splits.",
    unmatched=Band(hi=0.0, what="unmatched consumers, each split"),
    min_pairs=Band(lo=6.0, what="pairs, each split"),
)


# The paper runs its placed servers one at a time; running all of them
# at once must keep the per-pair results (fig07's speedup floor of 3x on
# DRAM, producers within 10% of their DRAM-run service).
def check_cluster_concurrent(results, tol) -> CheckResult:
    out = results["cluster-concurrent"]
    aqua, dram = metric(out, "balanced-aqua"), metric(out, "balanced-dram")
    heavy = metric(out, "llm-heavy-aqua")
    subchecks = [
        tol["min_consumer_speedup"](
            ratio(metric(aqua, name, "tokens"), metric(dram, name, "tokens")),
            f"balanced {name} aqua/dram tokens",
        )
        for name in ("opt-0", "opt-1")
    ]
    subchecks += [
        tol["min_producer_completed_fraction"](
            ratio(metric(r, "completed"), metric(dram, name, "completed")),
            f"balanced {name} aqua/dram completed",
        )
        for name, r in aqua.items()
        if metric(r, "role") == "producer"
    ]
    opt = [metric(r, "tokens") for name, r in heavy.items() if name.startswith("opt")]
    subchecks.append(
        tol["llm_heavy_consumers"](float(len(opt)), "llm-heavy long-prompt consumers")
    )
    subchecks += [tol["min_llm_heavy_tokens"](float(t), "llm-heavy opt tokens") for t in opt]
    subchecks += [
        tol["idle_serve"](float(metric(r, "completed")), f"llm-heavy {name} completed")
        for name, r in heavy.items()
        if name.startswith("idle")
    ]
    return check_all(subchecks)


_claim(
    check_cluster_concurrent,
    "cluster-concurrent-speedup", "§6.1", ("cluster-concurrent",),
    "With all 16 models live on one coordinator, long-prompt "
    "consumers keep their NVLink speedup and producers keep serving.",
    min_consumer_speedup=Band(
        lo=3.0, strict=True, what="balanced OPT consumer AQUA / DRAM tokens"
    ),
    min_producer_completed_fraction=Band(
        lo=0.9, what="balanced producer AQUA / DRAM completions"
    ),
    llm_heavy_consumers=Band(4, 4, what="LLM-heavy OPT consumers"),
    # DRAM manages about 120.
    min_llm_heavy_tokens=Band(lo=400.0, strict=True, what="LLM-heavy OPT consumer tokens"),
    idle_serve=Band(lo=0.0, strict=True, what="LLM-heavy elastic producer completions"),
)


# ---------------------------------------------------------------------------
# Robustness: headline effects across request rates and seeds, and §A.2
# ---------------------------------------------------------------------------
# Figure 9 samples two rates; the sweep fills in the curve.  A light
# load must make fairness nearly free and a heavy one must show the
# TTFT win.
def check_sweep_tradeoffs(results, tol) -> CheckResult:
    points = list(results["sweep"].items())
    if not points:
        raise MissingMetric("the sweep measured no rates")

    def ratio_to_vllm(systems, system, key):
        return ratio(metric(systems, system, key), metric(systems, "vllm", key))

    (light_rate, light), (heavy_rate, heavy) = points[0], points[-1]
    subchecks = [
        tol["max_light_aqua_penalty"](
            ratio_to_vllm(light, "aqua", "rct_mean"), f"rate {light_rate} aqua rct penalty"
        ),
        tol["min_heavy_ttft_gain"](
            ratio(metric(heavy, "vllm", "ttft_p95"), metric(heavy, "aqua", "ttft_p95")),
            f"rate {heavy_rate} vllm/aqua ttft_p95",
        ),
        tol["cfs_penalty_grows"](
            ratio_to_vllm(heavy, "cfs-dram", "rct_mean")
            - ratio_to_vllm(light, "cfs-dram", "rct_mean"),
            "cfs rct penalty growth, lightest to heaviest rate",
        ),
    ]
    subchecks += [
        tol["penalty_slack"](
            ratio_to_vllm(systems, "aqua", "rct_mean")
            - ratio_to_vllm(systems, "cfs-dram", "rct_mean"),
            f"rate {rate} aqua - cfs rct penalty",
        )
        for rate, systems in points
    ]
    return check_all(subchecks)


_claim(
    check_sweep_tradeoffs,
    "sweep-tradeoffs", "Figure 9 (rate sweep)", ("sweep",),
    "Fairness is free at light load; under load CFS wins TTFT and "
    "AQUA's RCT penalty stays below DRAM-CFS's at every rate.",
    max_light_aqua_penalty=Band(
        hi=1.2, strict=True, what="AQUA / vLLM mean RCT at the lightest rate"
    ),
    min_heavy_ttft_gain=Band(
        lo=1.3, strict=True, what="vLLM / AQUA TTFT p95 at the heaviest rate"
    ),
    cfs_penalty_grows=Band(
        lo=0.0, strict=True, what="CFS-DRAM / vLLM mean RCT, heaviest minus lightest rate"
    ),
    # The slack absorbs batch quantization.
    penalty_slack=Band(hi=0.05, what="AQUA minus CFS-DRAM RCT penalty over vLLM, every rate"),
)


# The headline effects must not hinge on one trace: the means keep the
# paper's shape and vary by under 25% (sample stdev, ddof=1).
def check_seed_robustness(results, tol) -> CheckResult:
    out = results["seed-robustness"]
    subchecks = []
    for key, floor in (("lora_gain", "min_lora_gain"), ("longprompt_speedup", "min_speedup")):
        values = metric(out, key)
        if len(values) < 2:
            raise MissingMetric(f"{key} needs two seeds for a spread")
        mean = statistics.mean(values)
        subchecks += [
            tol[floor](mean, f"mean {key}"),
            tol["max_cv"](
                abs(ratio(statistics.stdev(values), mean)), f"{key} coefficient of variation"
            ),
        ]
    return check_all(subchecks)


_claim(
    check_seed_robustness,
    "seed-robustness-headlines", "Figures 7/8 (seeds)", ("seed-robustness",),
    "The LoRA RCT gain and the long-prompt speedup hold across workload seeds.",
    min_lora_gain=Band(lo=1.3, strict=True, what="mean LoRA RCT gain over seeds"),
    min_speedup=Band(lo=4.0, strict=True, what="mean long-prompt speedup over seeds"),
    max_cv=Band(hi=0.25, strict=True, what="coefficient of variation of each, over seeds"),
)


# §A.2 reports 2x/1.7x over an hour; the simulated baseline loader has
# no Python-side deserialization stalls, so the margin is smaller and
# the band only asks for a sustained gain.
def check_a2_long_lora(results, tol) -> CheckResult:
    out = results["a2-long-lora"]
    base, aqua = metric(out, "baseline"), metric(out, "aqua")
    subchecks = [
        tol["completed"](
            float(metric(run, "completed")), f"{label} requests completed",
            equal_to=metric(run, "submitted"),
        )
        for label, run in (("baseline", base), ("aqua", aqua))
    ]
    subchecks += [
        tol["min_gain"](ratio(metric(base, key), metric(aqua, key)), f"baseline/aqua {key}")
        for key in ("rct_p50", "rct_p95")
    ]
    return check_all(subchecks)


_claim(
    check_a2_long_lora,
    "a2-long-lora-sustained", "§A.2", ("a2-long-lora",),
    "Over a long LoRA run AQUA keeps improving p50 and p95 RCT.",
    completed=Band(what="requests completed, each system", equals="submitted"),
    min_gain=Band(lo=1.1, strict=True, what="baseline / AQUA RCT p50 and p95"),
)


# ---------------------------------------------------------------------------
# Design ablations (§3-§5): each choice the paper makes, against its
# alternative, at the thresholds first set for these runs
# ---------------------------------------------------------------------------
def check_ablation_gather(results, tol) -> CheckResult:
    out = results["ablation-gather"]
    return tol["min_switch_slowdown"](
        ratio(metric(out, "naive", "switch_time"), metric(out, "gathered", "switch_time")),
        "naive / gathered context-switch time",
    )


_claim(
    check_ablation_gather,
    "ablation-gather-switch-time", "§5 (gather kernels)", ("ablation-gather",),
    "Without the gather kernel, context switches over NVLink "
    "issue many small copies and lose most of their speed.",
    min_switch_slowdown=Band(lo=3.0, strict=True, what="naive / gathered context-switch time"),
)


def check_ablation_placer(results, tol) -> CheckResult:
    subchecks = []
    for row in metric(results["ablation-placer"], "rows"):
        gpus = metric(row, "gpus")
        subchecks += [
            tol["objective_slack"](
                metric(row, "milp_obj") - metric(row, "greedy_obj"),
                f"{gpus}-GPU MILP - greedy objective",
            ),
            *(
                tol["pairs"](
                    float(metric(row, f"{solver}_pairs")), f"{gpus}-GPU {solver} pairs",
                    equal_to=gpus // 2,
                )
                for solver in ("milp", "greedy")
            ),
            tol["max_greedy_time_ratio"](
                ratio(metric(row, "greedy_s"), metric(row, "milp_s")),
                f"{gpus}-GPU greedy / MILP solve s",
            ),
        ]
    return check_all(subchecks)


_claim(
    check_ablation_placer,
    "ablation-placer-milp-vs-greedy", "§4 (AQUA-PLACER)", ("ablation-placer",),
    "The exact placer is never worse than the greedy heuristic, "
    "which is faster but no better.",
    objective_slack=Band(hi=1e-6, what="MILP - greedy objective"),
    pairs=Band(what="MILP and greedy pairs", equals="GPUs / 2"),
    max_greedy_time_ratio=Band(hi=2.0, strict=True, what="greedy / MILP solve s"),
)


def check_ablation_slice(results, tol) -> CheckResult:
    out = results["ablation-slice"]
    return check_all([
        tol["short_switches_more"](
            ratio(metric(out, "1", "switch_time"), metric(out, "20", "switch_time")),
            "1-token / 20-token slice switch time",
        ),
        tol["long_waits_more"](
            ratio(metric(out, "80", "ttft_p95"), metric(out, "5", "ttft_p95")),
            "80-token / 5-token slice TTFT p95",
        ),
    ])


_claim(
    check_ablation_slice,
    "ablation-slice-tradeoff", "§5 (CFS slice length)", ("ablation-slice",),
    "Short CFS slices switch more; long slices drift back towards batch-like TTFT.",
    short_switches_more=Band(lo=1.0, strict=True, what="1-token / 20-token slice switch time"),
    long_waits_more=Band(lo=1.0, strict=True, what="80-token / 5-token slice TTFT p95"),
)


def check_ablation_block_size(results, tol) -> CheckResult:
    out = results["ablation-block-size"]
    caps = [metric(row, "capacity_tokens") for row in out.values()]
    return check_all([
        tol["min_scatter_ratio"](
            ratio(metric(out, "8", "pieces_per_ctx"), metric(out, "256", "pieces_per_ctx")),
            "8-token / 256-token block pieces per context",
        ),
        tol["peak_batch_kept"](
            float(metric(out, "8", "peak_batch") - metric(out, "256", "peak_batch")),
            "8-token - 256-token block peak batch",
        ),
        tol["max_capacity_spread"](ratio(max(caps), min(caps)), "max / min capacity tokens"),
    ])


_claim(
    check_ablation_block_size,
    "ablation-block-size-scatter", "§5 (KV block size)", ("ablation-block-size",),
    "Small KV blocks scatter a context into many more pieces "
    "without costing concurrency or capacity.",
    min_scatter_ratio=Band(
        lo=8.0, strict=True, what="8-token / 256-token block pieces per context"
    ),
    peak_batch_kept=Band(lo=0.0, what="8-token - 256-token block peak batch"),
    max_capacity_spread=Band(hi=1.05, strict=True, what="max / min capacity tokens across sizes"),
)


def check_ablation_control_frequency(results, tol) -> CheckResult:
    out = results["ablation-control-frequency"]
    return check_all([
        tol["frequent_wins"](
            ratio(metric(out, "4"), metric(out, "512")), "respond_every 4 / 512 tokens"
        ),
        tol["min_moderate_fraction"](
            ratio(metric(out, "16"), metric(out, "4")), "respond_every 16 / 4 tokens"
        ),
    ])


_claim(
    check_ablation_control_frequency,
    "ablation-control-frequency-reaction", "§3 (control-plane frequency)",
    ("ablation-control-frequency",),
    "Checking the coordinator often catches a donation early, and a "
    "moderate interval loses little.",
    frequent_wins=Band(lo=1.0, strict=True, what="respond_every 4 / 512 tokens"),
    min_moderate_fraction=Band(lo=0.9, strict=True, what="respond_every 16 / 4 tokens"),
)


def check_ablation_scaleup_domain(results, tol) -> CheckResult:
    out = results["ablation-scaleup-domain"]
    nvlink, dram, rdma = metric(out, "nvlink"), metric(out, "dram"), metric(out, "rdma")
    return check_all([
        *(
            tol["min_nvlink_advantage"](ratio(slow, nvlink), f"{label} / NVLink read s")
            for label, slow in (("DRAM", dram), ("RDMA", rdma))
        ),
        tol["min_rdma_over_dram"](ratio(rdma, dram), "RDMA / DRAM read s"),
    ])


_claim(
    check_ablation_scaleup_domain,
    "ablation-scaleup-domain-bandwidth", "§2.3/§4 (scale-up domain)",
    ("ablation-scaleup-domain",),
    "Offloading outside the NVLink domain is no faster than host "
    "DRAM, an order of magnitude behind NVLink.",
    min_nvlink_advantage=Band(
        lo=5.0, strict=True, what="DRAM / NVLink and RDMA / NVLink read s"
    ),
    min_rdma_over_dram=Band(lo=0.95, what="RDMA / DRAM read s"),
)


def check_ablation_shared_producer(results, tol) -> CheckResult:
    out = results["ablation-shared-producer"]
    return tol["max_shared_fraction"](
        ratio(sum(metric(out, "shared")), sum(metric(out, "dedicated"))),
        "shared / dedicated aggregate tokens",
    )


_claim(
    check_ablation_shared_producer,
    "ablation-shared-producer-bandwidth", "§4 (one producer per consumer)",
    ("ablation-shared-producer",),
    "Sharing one producer between consumers shares its NVLink "
    "port and cuts their throughput.",
    max_shared_fraction=Band(hi=0.8, strict=True, what="shared / dedicated aggregate tokens"),
)


def check_ablation_weighted_cfs(results, tol) -> CheckResult:
    out = results["ablation-weighted-cfs"]
    even, skewed = metric(out, "1"), metric(out, "4")
    return check_all([
        tol["max_even_imbalance"](
            ratio(abs(metric(even, "premium") - metric(even, "standard")),
                  metric(even, "standard")),
            "equal weights |premium - standard| / standard",
        ),
        tol["min_premium_ratio"](
            ratio(metric(skewed, "premium"), metric(skewed, "standard")),
            "4x weight premium / standard tokens",
        ),
        tol["min_total_fraction"](
            ratio(sum(skewed.values()), sum(even.values())),
            "4x weight / equal weight total tokens",
        ),
    ])


_claim(
    check_ablation_weighted_cfs,
    "ablation-weighted-cfs-split", "§5 (weighted CFS)", ("ablation-weighted-cfs",),
    "CFS weights split service between tenant classes without "
    "losing aggregate throughput.",
    max_even_imbalance=Band(hi=0.3, what="equal weights: premium / standard token imbalance"),
    min_premium_ratio=Band(lo=2.0, strict=True, what="4x weight: premium / standard tokens"),
    min_total_fraction=Band(lo=0.7, strict=True, what="4x weight / equal weight total tokens"),
)


# ---------------------------------------------------------------------------
# §9 baselines, the chat-context extension and hardware sensitivity
# ---------------------------------------------------------------------------
# §9's baselines: the ordering its arguments imply, on 60 s of
# long-prompt tokens.
def check_baseline_offload(results, tol) -> CheckResult:
    out = results["baseline-offload"]
    tokens = {label: metric(out, label) for label in out}
    order = ("uvm/pcie", "deepspeed/pcie", "flexgen/pcie", "uvm/nvlink", "aqua")
    subchecks = [
        tol["nvlink_step" if b in ("uvm/nvlink", "aqua") else "pcie_order"](
            ratio(tokens[a], tokens[b]), f"{a} / {b} tokens"
        )
        for a, b in zip(order, order[1:])
    ]
    subchecks.append(
        tol["min_deepspeed_gain"](
            ratio(tokens["deepspeed+aqua"], tokens["deepspeed/pcie"]),
            "deepspeed+aqua / deepspeed/pcie tokens",
        )
    )
    return check_all(subchecks)


_claim(
    check_baseline_offload,
    "baseline-offload-ordering", "§9 (offload baselines)", ("baseline-offload",),
    "UVM/PCIe <= DeepSpeed/PCIe <= FlexGen/PCIe < UVM/NVLink < "
    "AQUA, and AQUA speeds DeepSpeed up too.",
    # The three PCIe baselines may tie; each NVLink step must be a gain.
    pcie_order=Band(
        hi=1.0, what="UVM/PCIe / DeepSpeed/PCIe and DeepSpeed/PCIe / FlexGen/PCIe tokens"
    ),
    nvlink_step=Band(
        hi=1.0, strict=True, what="FlexGen/PCIe / UVM/NVLink and UVM/NVLink / AQUA tokens"
    ),
    min_deepspeed_gain=Band(lo=3.0, strict=True, what="DeepSpeed+AQUA / DeepSpeed/PCIe tokens"),
)


def check_baseline_orca(results, tol) -> CheckResult:
    out = results["baseline-orca"]
    return check_all([
        tol["min_concurrency_gain"](
            ratio(metric(out, "vllm", "peak_concurrency"),
                  metric(out, "orca", "peak_concurrency")),
            "vllm / orca peak batch",
        ),
        *(
            tol["vllm_sooner"](
                ratio(metric(out, "vllm", key), metric(out, "orca", key)), f"vllm / orca {key}"
            )
            for key in ("finish", "ttft_p95")
        ),
    ])


_claim(
    check_baseline_orca,
    "baseline-orca-paging", "§9 (Orca)", ("baseline-orca",),
    "Paged attention admits several times Orca's max-length "
    "reservation concurrency, finishing and responding sooner.",
    min_concurrency_gain=Band(lo=1.5, strict=True, what="vLLM / Orca peak batch"),
    vllm_sooner=Band(hi=1.0, strict=True, what="vLLM / Orca finish time and TTFT p95"),
)


def check_context_cache(results, tol) -> CheckResult:
    out = results["context-cache"]
    plain, cached = metric(out, "aqua"), metric(out, "aqua+ctx-cache")
    return check_all([
        *(
            tol["turns"](float(metric(run, "completed")), f"{label} turns completed")
            for label, run in (("aqua", plain), ("aqua+ctx-cache", cached))
        ),
        tol["min_cache_hits"](float(metric(cached, "cache_hits")), "context-cache hits"),
        tol["max_rct_fraction"](
            ratio(metric(cached, "rct_mean"), metric(plain, "rct_mean")), "cached / plain rct_mean"
        ),
        tol["finish_sooner"](
            ratio(metric(cached, "finish"), metric(plain, "finish")), "cached / plain finish time"
        ),
    ])


_claim(
    check_context_cache,
    "context-cache-reuse", "§8 (chat-context extension)", ("context-cache",),
    "Parking chat contexts in donated memory between turns turns "
    "history re-prefill into an NVLink read.",
    turns=Band(100.0, 100.0, what="turns completed, with and without the cache"),
    # Of the 75 returning turns.
    min_cache_hits=Band(lo=70.0, what="context-cache hits"),
    max_rct_fraction=Band(hi=0.9, strict=True, what="cached / plain mean RCT"),
    finish_sooner=Band(hi=1.0, strict=True, what="cached / plain finish time"),
)


def check_sensitivity_hardware(results, tol) -> CheckResult:
    out = results["sensitivity-hardware"]
    a100, pcie5, h100 = (
        metric(out, "A100 + NVLink3 / PCIe4"),
        metric(out, "A100 + NVLink3 / PCIe5"),
        metric(out, "H100 + NVLink4 / PCIe5"),
    )
    return check_all([
        *(tol["min_speedup"](metric(row, "speedup"), f"{label} speedup")
          for label, row in out.items()),
        tol["pcie5_shrinks"](
            ratio(metric(pcie5, "speedup"), metric(a100, "speedup")), "PCIe5 / PCIe4 speedup"
        ),
        tol["h100_gains"](
            ratio(metric(h100, "aqua"), metric(a100, "aqua")), "H100 / A100 AQUA tokens"
        ),
    ])


_claim(
    check_sensitivity_hardware,
    "sensitivity-hardware-speedup", "§2.3 (hardware generations)", ("sensitivity-hardware",),
    "AQUA's speedup persists across GPU and link generations: "
    "faster PCIe shrinks it, faster NVLink raises throughput.",
    min_speedup=Band(lo=2.0, strict=True, what="AQUA speedup, each generation"),
    pcie5_shrinks=Band(hi=1.0, strict=True, what="PCIe5 / PCIe4 speedup"),
    h100_gains=Band(lo=1.0, strict=True, what="H100 / A100 AQUA tokens"),
)
