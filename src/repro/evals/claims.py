"""The claim catalog: every figure/table result the paper states.

Each claim quotes (or tightly paraphrases) a result from the Aqua
paper's evaluation, names the `repro.experiments.runall` cell(s) that
measure it, and scores the measurement against a declared tolerance
band.  Bands are deliberately loose around the measured values recorded
in ``EXPERIMENTS.md`` — the reproduction target is the paper's *shape*
(orderings, starvation gaps, speedup factors), not bit-level numbers on
different hardware; see the "tolerance-band rationale" section of
``EXPERIMENTS.md`` and the per-claim traceability table in
``docs/replication.md``.

Importing this module populates :data:`repro.evals.registry.REGISTRY`.
"""

from __future__ import annotations

import statistics

from repro.evals.checks import (
    CheckResult,
    FAIL,
    PASS,
    MissingMetric,
    check_all,
    check_band,
    metric,
    ratio,
)
from repro.evals.registry import REGISTRY, Claim

# Model-name keys as they appear in experiment results (kept in sync
# with repro.models presets; tests/test_evals.py guards the spelling).
_AUDIOGEN = "AudioGen"
_SD = "StableDiffusion-1.5"
_LLAMA = "Llama-2-13B"
#: The Table 1 long-prompt job: its one prompt runs past the short slice.
_LONG_PROMPT_JOB = "OPT-30B long prompts"


# ---------------------------------------------------------------------------
# Figure 1 — motivation: batching starves, CFS fixes TTFT, AQUA recovers RCT
# ---------------------------------------------------------------------------
def check_fig01_starvation(results, tol) -> CheckResult:
    s = results["fig01"]
    vllm = metric(s, "vllm", "ttft_p95")
    return check_all(
        [
            check_band(
                ratio(vllm, metric(s, system, "ttft_p95")),
                tol["min_ttft_gap"],
                None,
                f"vllm_ttft_p95 / {system}_ttft_p95",
            )
            for system in ("cfs-dram", "aqua")
        ]
    )


def check_fig01_rct_recovery(results, tol) -> CheckResult:
    s = results["fig01"]
    vllm = metric(s, "vllm", "rct_mean")
    cfs = metric(s, "cfs-dram", "rct_mean")
    aqua = metric(s, "aqua", "rct_mean")
    penalty = ratio(aqua, vllm)
    return check_all(
        [
            check_band(
                penalty, None, tol["max_aqua_rct_penalty"], "aqua_rct / vllm_rct"
            ),
            check_band(ratio(aqua, cfs), None, 1.0, "aqua_rct / cfs_dram_rct", strict=True),
            check_band(
                ratio(cfs, vllm),
                tol["min_cfs_rct_penalty"],
                None,
                "cfs_dram_rct / vllm_rct",
                strict=True,
            ),
        ]
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
            check_band(
                metric(peak, "free_gib"),
                tol["min_producer_free_gib"],
                None,
                f"{model} free GiB at peak throughput",
            ),
            check_band(
                metric(last, "free_gib"),
                tol["min_plateau_free_gib"],
                None,
                f"{model} free GiB at largest batch",
                strict=True,
            ),
            check_band(
                ratio(metric(last, "throughput"), metric(mid, "throughput")),
                None,
                tol["max_plateau_growth"],
                f"{model} throughput largest / middle batch",
                strict=True,
            ),
        ]
    return check_all(subchecks)


def check_fig02_llm_exhaustion(results, tol) -> CheckResult:
    series = metric(results["fig02"], _LLAMA)
    first, last = (series[0], series[-1]) if series else ({}, {})
    return check_all(
        [
            check_band(
                metric(last, "free_gib"),
                None,
                tol["max_llm_free_gib"],
                f"{_LLAMA} free GiB at largest feasible batch",
            ),
            check_band(
                ratio(metric(last, "throughput"), metric(first, "throughput")),
                tol["min_llm_throughput_growth"],
                None,
                f"{_LLAMA} throughput largest / smallest batch",
                strict=True,
            ),
        ]
    )


# ---------------------------------------------------------------------------
# Figure 3 — interconnect bandwidth curve + producer sharing impact
# ---------------------------------------------------------------------------
def check_fig03a_small_transfers(results, tol) -> CheckResult:
    rows = metric(results["fig03"], "bandwidth")
    smallest = min(rows, key=lambda r: metric(r, "size_bytes"))
    rel = ratio(metric(smallest, "nvlink_gbps"), metric(smallest, "pcie_gbps"))
    return check_band(
        rel, None, tol["max_smallbuf_advantage"], "nvlink/pcie at smallest buffer"
    )


def check_fig03a_peak_bandwidth(results, tol) -> CheckResult:
    rows = metric(results["fig03"], "bandwidth")
    nvlink_peak = max(metric(r, "nvlink_gbps") for r in rows)
    pcie_peak = max(metric(r, "pcie_gbps") for r in rows)
    return check_all(
        [
            check_band(
                nvlink_peak,
                tol["nvlink_peak_lo"],
                tol["nvlink_peak_hi"],
                "NVLink peak GB/s",
            ),
            check_band(
                ratio(nvlink_peak, pcie_peak),
                tol["min_peak_ratio"],
                None,
                "NVLink/PCIe peak ratio",
            ),
        ]
    )


def check_fig03b_producer_impact(results, tol) -> CheckResult:
    impact = metric(results["fig03"], "sharing", "impact_fraction")
    return check_band(
        impact, None, tol["max_impact_fraction"], "producer throughput impact", strict=True
    )


# ---------------------------------------------------------------------------
# Figure 7 — long-prompt inference: AQUA ~6x over FlexGen-to-DRAM
# ---------------------------------------------------------------------------
def check_fig07_ordering(results, tol) -> CheckResult:
    out = results["fig07"]
    base = metric(out, "flexgen-dram", "tokens")
    subchecks = [
        check_band(
            ratio(metric(data, "tokens"), base), 1.0, None, f"{label} tokens / flexgen"
        )
        for label, data in out.items()
        if label != "flexgen-dram"
    ]
    subchecks.append(check_band(base, 0.0, None, "flexgen-dram tokens", strict=True))
    return check_all(subchecks)


def check_fig07_speedup(results, tol) -> CheckResult:
    out = results["fig07"]
    subchecks = [
        check_band(
            metric(data, "speedup"),
            tol["speedup_lo"],
            tol["speedup_hi"],
            f"{label} speedup",
        )
        for label, data in out.items()
        if label != "flexgen-dram"
    ]
    return check_all(subchecks)


# ---------------------------------------------------------------------------
# Figure 8 — LoRA serving: up to ~1.8x RCT, producer-independent
# ---------------------------------------------------------------------------
def check_fig08_gain(results, tol) -> CheckResult:
    s = results["fig08"]
    base = metric(s, "baseline", "rct_mean")
    return check_all(
        [
            check_band(
                ratio(base, metric(s, label, "rct_mean")),
                tol["gain_lo"],
                tol["gain_hi"],
                f"baseline/{label} rct_mean",
            )
            for label in ("aqua-0", "aqua-1", "aqua-llm")
        ]
    )


def check_fig08_producer_equivalence(results, tol) -> CheckResult:
    s = results["fig08"]
    means = [
        metric(s, label, "rct_mean") for label in ("aqua-0", "aqua-1", "aqua-llm")
    ]
    spread = ratio(max(means) - min(means), min(means))
    return check_band(
        spread, None, tol["max_rel_spread"], "relative rct spread across producers"
    )


# ---------------------------------------------------------------------------
# Figure 9 — CFS responsiveness: the starvation gap at every rate
# ---------------------------------------------------------------------------
def check_fig09_starvation_gap(results, tol) -> CheckResult:
    lowest = min(results["fig09"], key=float)
    low = metric(results["fig09"], lowest)
    subchecks = [
        check_band(
            ratio(metric(low, "vllm", "ttft_p95"), metric(low, system, "ttft_p95")),
            tol["min_low_rate_ttft_gap"],
            None,
            f"rate {lowest} vllm/{system} ttft",
            strict=True,
        )
        for system in ("cfs-dram", "aqua")
    ]
    for rate, systems in results["fig09"].items():
        vllm = metric(systems, "vllm", "ttft_p95")
        cfs = metric(systems, "cfs-dram", "ttft_p95")
        aqua = metric(systems, "aqua", "ttft_p95")
        subchecks.append(
            check_band(
                ratio(vllm, cfs), tol["min_ttft_gap"], None, f"rate {rate} vllm/cfs ttft"
            )
        )
        subchecks.append(
            check_band(
                ratio(aqua, cfs),
                None,
                tol["max_aqua_vs_cfs"],
                f"rate {rate} aqua/cfs ttft",
            )
        )
    return check_all(subchecks)


def check_fig09_rct_ordering(results, tol) -> CheckResult:
    subchecks = []
    for rate, systems in results["fig09"].items():
        vllm = metric(systems, "vllm", "rct_mean")
        cfs = metric(systems, "cfs-dram", "rct_mean")
        aqua = metric(systems, "aqua", "rct_mean")
        subchecks.append(
            check_band(
                ratio(aqua, vllm),
                None,
                tol["max_aqua_rct_penalty"],
                f"rate {rate} aqua/vllm rct",
            )
        )
        subchecks.append(
            check_band(ratio(aqua, cfs), None, 1.0, f"rate {rate} aqua/cfs rct", strict=True)
        )
    return check_all(subchecks)


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
    p1, p2, end = (
        metric(phases, "phase1"),
        metric(phases, "phase2"),
        metric(phases, "end"),
    )
    fast = _window_mean(series, p1 + 20.0, p2)
    dip = _window_mean(series, p2 + 5.0, p2 + 30.0)
    recovered = _window_mean(series, end - 40.0, end)
    # The same shape over wider, open windows: the dip through p2 + 40 s,
    # the recovery after end - 20 s.
    before = _open_window_mean(series, p1 + 20.0, p2)
    during = _open_window_mean(series, p2 + 5.0, p2 + 40.0)
    after = _open_window_mean(series, end - 20.0, float("inf"))
    free = [v for _, v in metric(out, "free_memory_gib")]
    return check_all(
        [
            check_band(
                ratio(max(free), min(free)),
                tol["min_reclaimed_over_donated"],
                None,
                "max / min engine free GiB",
                strict=True,
            ),
            check_band(
                ratio(before, during),
                tol["min_before_over_during"],
                None,
                "before-burst / during-reclaim tokens/s",
                strict=True,
            ),
            check_band(
                ratio(after, during),
                tol["min_after_over_during"],
                None,
                "after-burst / during-reclaim tokens/s",
                strict=True,
            ),
            check_band(
                ratio(fast, max(dip, 1e-9)),
                tol["min_fast_over_reclaimed"],
                None,
                "fast-path / reclaimed tokens/s",
            ),
            check_band(
                ratio(recovered, fast),
                tol["min_recovery_fraction"],
                None,
                "post-recovery / fast-path tokens/s",
            ),
        ]
    )


# ---------------------------------------------------------------------------
# Figure 11 — producer-side cost of donating: "very similar" RCTs
# ---------------------------------------------------------------------------
def check_fig11_producer_overhead(results, tol) -> CheckResult:
    s = results["fig11"]
    subchecks = [
        check_band(
            ratio(metric(s, "aqua", q), metric(s, "baseline", q)),
            None,
            tol["max_overhead_ratio"],
            f"aqua/baseline producer rct {q}",
        )
        for q in ("p50", "p95")
    ]
    subchecks.append(
        check_band(
            ratio(metric(s, "aqua", "count"), metric(s, "baseline", "count")),
            tol["min_completed_fraction"],
            None,
            "aqua/baseline producer requests completed",
        )
    )
    return check_all(subchecks)


# ---------------------------------------------------------------------------
# Figure 12 — benefit grows with offloaded tensor size
# ---------------------------------------------------------------------------
def check_fig12_size_ordering(results, tol) -> CheckResult:
    s = results["fig12"]
    small = metric(s, "160MB", "saved")
    large = metric(s, "320MB", "saved")
    return check_all(
        [
            check_band(small, 0.0, None, "160MB rct_mean saved (s)", strict=True),
            check_band(large - small, 0.0, None, "320MB saved - 160MB saved (s)"),
            check_band(
                ratio(large, small),
                tol["min_saved_ratio"],
                None,
                "320MB / 160MB saved",
                strict=True,
            ),
        ]
    )


# ---------------------------------------------------------------------------
# Figure 13 — chatbot long-term responsiveness (§8)
# ---------------------------------------------------------------------------
def check_fig13_chatbot(results, tol) -> CheckResult:
    s = results["fig13"]
    worst_gap = ratio(
        metric(s, "vllm", "ttft_max"), metric(s, "aqua", "ttft_max")
    )
    rct_penalty = ratio(metric(s, "aqua", "rct_mean"), metric(s, "vllm", "rct_mean"))
    turns = [
        check_band(
            float(metric(s, system, "completed")), tol["turns"], tol["turns"],
            f"{system} turns completed",
        )
        for system in ("vllm", "cfs-dram", "aqua")
    ]
    return check_all(
        [
            check_band(
                worst_gap,
                tol["min_worstcase_ttft_gap"],
                None,
                "vllm/aqua ttft_max",
                strict=True,
            ),
            check_band(
                ratio(metric(s, "vllm", "ttft_max"), metric(s, "cfs-dram", "ttft_max")),
                tol["min_worstcase_ttft_gap"],
                None,
                "vllm/cfs ttft_max",
                strict=True,
            ),
            check_band(
                rct_penalty, None, tol["max_aqua_rct_penalty"], "aqua/vllm rct_mean"
            ),
            check_band(
                ratio(metric(s, "aqua", "rct_mean"), metric(s, "cfs-dram", "rct_mean")),
                None,
                1.0,
                "aqua/cfs rct_mean",
            ),
            *turns,
        ]
    )


# ---------------------------------------------------------------------------
# Figure 14 / §A.1 — placer convergence: 50/50 LLM clusters solve fast
# ---------------------------------------------------------------------------
def _placer_rows(rows, tol) -> list[CheckResult]:
    subchecks = []
    for row in rows:
        gpus = metric(row, "gpus")
        subchecks.append(
            check_band(
                float(metric(row, "llm5050_pairs")), gpus // 2, gpus // 2,
                f"{gpus}-GPU 50/50 pairs",
            )
        )
        subchecks.append(
            check_band(
                metric(row, "llm5050_seconds"),
                None,
                tol["max_llm5050_seconds"],
                f"{gpus}-GPU 50/50 solve s",
                strict=True,
            )
        )
        subchecks.append(
            check_band(
                metric(row, "mixed_seconds") - metric(row, "llm5050_seconds"),
                0.0,
                None,
                f"{gpus}-GPU mixed - 50/50 solve s",
                strict=True,
            )
        )
    return subchecks


def check_fig14_placer_ordering(results, tol) -> CheckResult:
    return check_all(_placer_rows(metric(results["fig14"], "rows"), tol))


def check_fig14_128gpu_budget(results, tol) -> CheckResult:
    rows = metric(results["fig14-128gpu"], "rows")
    largest = rows[-1] if rows else {}
    return check_all(
        [
            *_placer_rows(rows, tol),
            check_band(float(metric(largest, "gpus")), 128, 128, "largest instance GPUs"),
            check_band(
                metric(largest, "mixed_seconds"),
                None,
                tol["max_mixed_seconds"],
                "128-GPU mixed solve s",
                strict=True,
            ),
        ]
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
        subchecks.append(
            check_band(
                ratio(vllm, aqua), tol["min_ttft_gap"], None, f"{name} vllm/aqua ttft",
                strict=True,
            )
        )
        subchecks.append(
            check_band(
                ratio(metric(systems, "aqua", "rct_mean"),
                      metric(systems, "cfs-dram", "rct_mean")),
                None,
                1.0,
                f"{name} aqua/cfs rct",
                strict=True,
            )
        )
    spread = ratio(max(aqua_p95s) - min(aqua_p95s), min(aqua_p95s))
    subchecks.append(
        check_band(
            spread, None, tol["max_rel_spread"], "aqua ttft_p95 spread across variants"
        )
    )
    return check_all(subchecks)


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
    return check_all(
        [
            check_band(float(len(per_consumer)), 4, 4, "consumers measured"),
            check_band(
                worst,
                tol["min_reference_fraction"],
                None,
                "worst consumer / 2-GPU reference tokens",
                strict=True,
            ),
            check_band(
                ratio(max(per_consumer), min(per_consumer)),
                None,
                tol["max_consumer_spread"],
                "max / min consumer tokens",
                strict=True,
            ),
        ]
    )


# ---------------------------------------------------------------------------
# Tables 1–3 — the workload inventory is complete
# ---------------------------------------------------------------------------
def check_tables_inventory(results, tol) -> CheckResult:
    t = results["tables"]
    rows1, rows2, rows3 = (
        metric(t, "table1"),
        metric(t, "table2"),
        metric(t, "table3"),
    )
    counts = (len(rows1), len(rows2), len(rows3))
    ok = counts == (3, 2, 2)
    models = " ".join(str(metric(r, "model")) for rows in (rows1, rows2, rows3) for r in rows)
    for required in ("OPT-30B", "Mistral-7B", "CodeLlama-34B", _LLAMA, "AudioGen"):
        ok = ok and required in models
    return CheckResult(
        status=PASS if ok else FAIL,
        measured={"rows": counts},
        expected="3 deficit + 2 elastic-LLM + 2 producer rows, all models named",
        detail="" if ok else f"inventory incomplete: {counts} rows, models: {models}",
    )


# ---------------------------------------------------------------------------
# Cluster serving frontier (docs/frontier.md) — routing + overload control
# on top of hardware.cluster; an extension beyond the paper's single
# scale-up domain (ROADMAP item 1), held to the same claim discipline.
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
                metric(cell, "offered")
                - metric(cell, "routed")
                - metric(cell, "shed_total")
            )
            subchecks.append(
                check_band(drift, 0.0, 0.0, f"{label} offered - routed - shed")
            )
            subchecks.append(
                check_band(
                    float(bool(metric(cell, "ledger_ok"))),
                    1.0,
                    1.0,
                    f"{label} ledger verdict",
                )
            )
    return check_all(subchecks)


def check_frontier_low_load(results, tol) -> CheckResult:
    subchecks = []
    for policy, cells in _frontier_cells(results).items():
        cell = cells[0]  # lowest offered load in the grid
        rate = metric(cell, "rate")
        subchecks.append(
            check_band(
                metric(cell, "attainment"),
                tol["min_low_load_attainment"],
                None,
                f"{policy} attainment at {rate:g} req/s",
            )
        )
        subchecks.append(
            check_band(
                metric(cell, "shed_rate"),
                None,
                tol["max_low_load_shed"],
                f"{policy} shed rate at {rate:g} req/s",
            )
        )
        subchecks.append(
            check_band(
                ratio(metric(cell, "goodput"), rate),
                tol["goodput_frac_lo"],
                tol["goodput_frac_hi"],
                f"{policy} goodput/offered at {rate:g} req/s",
            )
        )
    return check_all(subchecks)


def check_frontier_overload(results, tol) -> CheckResult:
    subchecks = []
    for policy, cells in _frontier_cells(results).items():
        shed_rates = [metric(c, "shed_rate") for c in cells]
        monotone = all(
            a <= b + 1e-12 for a, b in zip(shed_rates, shed_rates[1:])
        )
        subchecks.append(
            check_band(
                float(monotone),
                1.0,
                1.0,
                f"{policy} shed rate monotone in offered load {shed_rates}",
            )
        )
        top = cells[-1]
        subchecks.append(
            check_band(
                metric(top, "shed_rate"),
                tol["min_overload_shed"],
                None,
                f"{policy} shed rate at {metric(top, 'rate'):g} req/s",
            )
        )
        best_goodput = max(metric(c, "goodput") for c in cells)
        subchecks.append(
            check_band(
                ratio(metric(top, "goodput"), best_goodput),
                tol["min_overload_goodput_frac"],
                None,
                f"{policy} overload goodput / best goodput",
            )
        )
    return check_all(subchecks)


# ---------------------------------------------------------------------------
# §6.1 — end-to-end cluster placement leaves no consumer unmatched
# ---------------------------------------------------------------------------
def check_e2e_placement(results, tol) -> CheckResult:
    out = results["e2e"]
    subchecks = []
    for split in ("balanced", "llm_heavy"):
        unmatched = metric(out, split, "unmatched")
        subchecks.append(
            check_band(float(len(unmatched)), None, 0.0, f"{split} unmatched consumers")
        )
        pairs = metric(out, split, "pairs")
        subchecks.append(
            check_band(float(len(pairs)), tol["min_pairs"], None, f"{split} pairs")
        )
    return check_all(subchecks)


# ---------------------------------------------------------------------------
# Figure 3a anchors — points the figure cell's size grid does not keep
# ---------------------------------------------------------------------------
def check_fig03a_anchors(results, tol) -> CheckResult:
    out = results["fig03a-anchors"]
    return check_all(
        [
            check_band(
                metric(out, "gbps_at_2mb"), tol["gbps_2mb_lo"], tol["gbps_2mb_hi"],
                "NVLink GB/s at 2 MB", strict=True,
            ),
            check_band(
                metric(out, "gbps_at_1gb"), tol["min_gbps_1gb"], None, "NVLink GB/s at 1 GB",
                strict=True,
            ),
        ]
    )


# ---------------------------------------------------------------------------
# Design ablations (§3-§5): each choice the paper makes, against its
# alternative
# ---------------------------------------------------------------------------
def check_ablation_gather(results, tol) -> CheckResult:
    out = results["ablation-gather"]
    return check_band(
        ratio(metric(out, "naive", "switch_time"), metric(out, "gathered", "switch_time")),
        tol["min_switch_slowdown"],
        None,
        "naive / gathered context-switch time",
        strict=True,
    )


def check_ablation_placer(results, tol) -> CheckResult:
    subchecks = []
    for row in metric(results["ablation-placer"], "rows"):
        gpus = metric(row, "gpus")
        subchecks += [
            check_band(
                metric(row, "milp_obj") - metric(row, "greedy_obj"),
                None,
                tol["objective_slack"],
                f"{gpus}-GPU MILP - greedy objective",
            ),
            *(
                check_band(
                    float(metric(row, f"{solver}_pairs")), gpus // 2, gpus // 2,
                    f"{gpus}-GPU {solver} pairs",
                )
                for solver in ("milp", "greedy")
            ),
            check_band(
                ratio(metric(row, "greedy_s"), metric(row, "milp_s")),
                None,
                tol["max_greedy_time_ratio"],
                f"{gpus}-GPU greedy / MILP solve s",
                strict=True,
            ),
        ]
    return check_all(subchecks)


def check_ablation_slice(results, tol) -> CheckResult:
    out = results["ablation-slice"]
    return check_all(
        [
            check_band(
                ratio(metric(out, "1", "switch_time"), metric(out, "20", "switch_time")),
                1.0,
                None,
                "1-token / 20-token slice switch time",
                strict=True,
            ),
            check_band(
                ratio(metric(out, "80", "ttft_p95"), metric(out, "5", "ttft_p95")),
                1.0,
                None,
                "80-token / 5-token slice TTFT p95",
                strict=True,
            ),
        ]
    )


def check_ablation_block_size(results, tol) -> CheckResult:
    out = results["ablation-block-size"]
    caps = [metric(row, "capacity_tokens") for row in out.values()]
    return check_all(
        [
            check_band(
                ratio(metric(out, "8", "pieces_per_ctx"), metric(out, "256", "pieces_per_ctx")),
                tol["min_scatter_ratio"],
                None,
                "8-token / 256-token block pieces per context",
                strict=True,
            ),
            check_band(
                float(metric(out, "8", "peak_batch") - metric(out, "256", "peak_batch")),
                0.0,
                None,
                "8-token - 256-token block peak batch",
            ),
            check_band(
                ratio(max(caps), min(caps)), None, tol["max_capacity_spread"],
                "max / min capacity tokens", strict=True,
            ),
        ]
    )


def check_ablation_control_frequency(results, tol) -> CheckResult:
    out = results["ablation-control-frequency"]
    return check_all(
        [
            check_band(
                ratio(metric(out, "4"), metric(out, "512")), 1.0, None,
                "respond_every 4 / 512 tokens", strict=True,
            ),
            check_band(
                ratio(metric(out, "16"), metric(out, "4")), tol["min_moderate_fraction"],
                None, "respond_every 16 / 4 tokens", strict=True,
            ),
        ]
    )


def check_ablation_scaleup_domain(results, tol) -> CheckResult:
    out = results["ablation-scaleup-domain"]
    nvlink, dram, rdma = metric(out, "nvlink"), metric(out, "dram"), metric(out, "rdma")
    return check_all(
        [
            *(
                check_band(ratio(slow, nvlink), tol["min_nvlink_advantage"], None,
                           f"{label} / NVLink read s", strict=True)
                for label, slow in (("DRAM", dram), ("RDMA", rdma))
            ),
            check_band(ratio(rdma, dram), tol["min_rdma_over_dram"], None, "RDMA / DRAM read s"),
        ]
    )


def check_ablation_shared_producer(results, tol) -> CheckResult:
    out = results["ablation-shared-producer"]
    return check_band(
        ratio(sum(metric(out, "shared")), sum(metric(out, "dedicated"))),
        None,
        tol["max_shared_fraction"],
        "shared / dedicated aggregate tokens",
        strict=True,
    )


def check_ablation_weighted_cfs(results, tol) -> CheckResult:
    out = results["ablation-weighted-cfs"]
    even, skewed = metric(out, "1"), metric(out, "4")
    return check_all(
        [
            check_band(
                ratio(abs(metric(even, "premium") - metric(even, "standard")),
                      metric(even, "standard")),
                None,
                tol["max_even_imbalance"],
                "equal weights |premium - standard| / standard",
            ),
            check_band(
                ratio(metric(skewed, "premium"), metric(skewed, "standard")),
                tol["min_premium_ratio"],
                None,
                "4x weight premium / standard tokens",
                strict=True,
            ),
            check_band(
                ratio(sum(skewed.values()), sum(even.values())),
                tol["min_total_fraction"],
                None,
                "4x weight / equal weight total tokens",
                strict=True,
            ),
        ]
    )


# ---------------------------------------------------------------------------
# §9 baselines, hardware sensitivity and the chat-context extension
# ---------------------------------------------------------------------------
def check_baseline_offload(results, tol) -> CheckResult:
    out = results["baseline-offload"]
    tokens = {label: metric(out, label) for label in out}
    order = ("uvm/pcie", "deepspeed/pcie", "flexgen/pcie", "uvm/nvlink", "aqua")
    # The three PCIe baselines may tie; each NVLink step must be a gain.
    subchecks = [
        check_band(
            ratio(tokens[a], tokens[b]), None, 1.0, f"{a} / {b} tokens",
            strict=b in ("uvm/nvlink", "aqua"),
        )
        for a, b in zip(order, order[1:])
    ]
    subchecks.append(
        check_band(
            ratio(tokens["deepspeed+aqua"], tokens["deepspeed/pcie"]),
            tol["min_deepspeed_gain"],
            None,
            "deepspeed+aqua / deepspeed/pcie tokens",
            strict=True,
        )
    )
    return check_all(subchecks)


def check_baseline_orca(results, tol) -> CheckResult:
    out = results["baseline-orca"]
    return check_all(
        [
            check_band(
                ratio(metric(out, "vllm", "peak_concurrency"),
                      metric(out, "orca", "peak_concurrency")),
                tol["min_concurrency_gain"],
                None,
                "vllm / orca peak batch",
                strict=True,
            ),
            *(
                check_band(
                    ratio(metric(out, "vllm", key), metric(out, "orca", key)), None, 1.0,
                    f"vllm / orca {key}", strict=True,
                )
                for key in ("finish", "ttft_p95")
            ),
        ]
    )


def check_context_cache(results, tol) -> CheckResult:
    out = results["context-cache"]
    plain, cached = metric(out, "aqua"), metric(out, "aqua+ctx-cache")
    return check_all(
        [
            *(
                check_band(
                    float(metric(run, "completed")), tol["turns"], tol["turns"],
                    f"{label} turns completed",
                )
                for label, run in (("aqua", plain), ("aqua+ctx-cache", cached))
            ),
            check_band(
                float(metric(cached, "cache_hits")), tol["min_cache_hits"], None,
                "context-cache hits",
            ),
            check_band(
                ratio(metric(cached, "rct_mean"), metric(plain, "rct_mean")),
                None,
                tol["max_rct_fraction"],
                "cached / plain rct_mean",
                strict=True,
            ),
            check_band(
                ratio(metric(cached, "finish"), metric(plain, "finish")), None, 1.0,
                "cached / plain finish time", strict=True,
            ),
        ]
    )


def check_sensitivity_hardware(results, tol) -> CheckResult:
    out = results["sensitivity-hardware"]
    a100, pcie5, h100 = (
        metric(out, "A100 + NVLink3 / PCIe4"),
        metric(out, "A100 + NVLink3 / PCIe5"),
        metric(out, "H100 + NVLink4 / PCIe5"),
    )
    return check_all(
        [
            *(
                check_band(
                    metric(row, "speedup"), tol["min_speedup"], None, f"{label} speedup",
                    strict=True,
                )
                for label, row in out.items()
            ),
            check_band(
                ratio(metric(pcie5, "speedup"), metric(a100, "speedup")), None, 1.0,
                "PCIe5 / PCIe4 speedup", strict=True,
            ),
            check_band(
                ratio(metric(h100, "aqua"), metric(a100, "aqua")), 1.0, None,
                "H100 / A100 AQUA tokens", strict=True,
            ),
        ]
    )


# ---------------------------------------------------------------------------
# Robustness: headline effects across seeds and request rates
# ---------------------------------------------------------------------------
def check_seed_robustness(results, tol) -> CheckResult:
    out = results["seed-robustness"]
    subchecks = []
    for key, floor in (("lora_gain", "min_lora_gain"), ("longprompt_speedup", "min_speedup")):
        values = metric(out, key)
        if len(values) < 2:
            raise MissingMetric(f"{key} needs two seeds for a spread")
        mean = statistics.mean(values)
        subchecks += [
            check_band(mean, tol[floor], None, f"mean {key}", strict=True),
            check_band(
                abs(ratio(statistics.stdev(values), mean)), None, tol["max_cv"],
                f"{key} coefficient of variation", strict=True,
            ),
        ]
    return check_all(subchecks)


def check_sweep_tradeoffs(results, tol) -> CheckResult:
    points = list(results["sweep"].items())
    if not points:
        raise MissingMetric("the sweep measured no rates")

    def ratio_to_vllm(systems, system, key):
        return ratio(metric(systems, system, key), metric(systems, "vllm", key))

    (light_rate, light), (heavy_rate, heavy) = points[0], points[-1]
    subchecks = [
        check_band(
            ratio_to_vllm(light, "aqua", "rct_mean"), None, tol["max_light_aqua_penalty"],
            f"rate {light_rate} aqua rct penalty", strict=True,
        ),
        check_band(
            ratio(metric(heavy, "vllm", "ttft_p95"), metric(heavy, "aqua", "ttft_p95")),
            tol["min_heavy_ttft_gain"],
            None,
            f"rate {heavy_rate} vllm/aqua ttft_p95",
            strict=True,
        ),
        check_band(
            ratio_to_vllm(heavy, "cfs-dram", "rct_mean")
            - ratio_to_vllm(light, "cfs-dram", "rct_mean"),
            0.0,
            None,
            "cfs rct penalty growth, lightest to heaviest rate",
            strict=True,
        ),
    ]
    subchecks += [
        check_band(
            ratio_to_vllm(systems, "aqua", "rct_mean")
            - ratio_to_vllm(systems, "cfs-dram", "rct_mean"),
            None,
            tol["penalty_slack"],
            f"rate {rate} aqua - cfs rct penalty",
        )
        for rate, systems in points
    ]
    return check_all(subchecks)


# ---------------------------------------------------------------------------
# §A.2, §6.1 cluster runs and Tables 1-3 run to completion
# ---------------------------------------------------------------------------
def check_a2_long_lora(results, tol) -> CheckResult:
    out = results["a2-long-lora"]
    base, aqua = metric(out, "baseline"), metric(out, "aqua")
    subchecks = [
        check_band(
            float(metric(run, "completed")), metric(run, "submitted"),
            metric(run, "submitted"), f"{label} requests completed",
        )
        for label, run in (("baseline", base), ("aqua", aqua))
    ]
    subchecks += [
        check_band(
            ratio(metric(base, key), metric(aqua, key)), tol["min_gain"], None,
            f"baseline/aqua {key}", strict=True,
        )
        for key in ("rct_p50", "rct_p95")
    ]
    return check_all(subchecks)


def check_cluster_concurrent(results, tol) -> CheckResult:
    out = results["cluster-concurrent"]
    aqua, dram = metric(out, "balanced-aqua"), metric(out, "balanced-dram")
    heavy = metric(out, "llm-heavy-aqua")
    subchecks = [
        check_band(
            ratio(metric(aqua, name, "tokens"), metric(dram, name, "tokens")),
            tol["min_consumer_speedup"],
            None,
            f"balanced {name} aqua/dram tokens",
            strict=True,
        )
        for name in ("opt-0", "opt-1")
    ]
    subchecks += [
        check_band(
            ratio(metric(r, "completed"), metric(dram, name, "completed")),
            tol["min_producer_completed_fraction"],
            None,
            f"balanced {name} aqua/dram completed",
        )
        for name, r in aqua.items()
        if metric(r, "role") == "producer"
    ]
    opt = [metric(r, "tokens") for name, r in heavy.items() if name.startswith("opt")]
    subchecks.append(check_band(float(len(opt)), 4, 4, "llm-heavy long-prompt consumers"))
    subchecks += [
        check_band(
            float(tokens), tol["min_llm_heavy_tokens"], None, "llm-heavy opt tokens",
            strict=True,
        )
        for tokens in opt
    ]
    subchecks += [
        check_band(
            float(metric(r, "completed")), 0.0, None, f"llm-heavy {name} completed",
            strict=True,
        )
        for name, r in heavy.items()
        if name.startswith("idle")
    ]
    return check_all(subchecks)


def check_workload_runs(results, tol) -> CheckResult:
    subchecks = []
    for job, run in results["workload-runs"].items():
        subchecks.append(
            check_band(float(metric(run, "tokens")), 0.0, None, f"{job} tokens", strict=True)
        )
        if job != _LONG_PROMPT_JOB:  # one long prompt outlasts the slice
            submitted = metric(run, "submitted")
            subchecks.append(
                check_band(float(metric(run, "done")), submitted, submitted, f"{job} done")
            )
    return check_all(subchecks)


# ---------------------------------------------------------------------------
# Registration — one entry per figure/table claim
# ---------------------------------------------------------------------------
CLAIMS = [
    Claim(
        id="fig01-starvation",
        figure="Figure 1",
        claim="vLLM's batch admission starves late arrivals (TTFT spikes once "
        "~20 requests exhaust KV memory); CFS keeps TTFT flat.",
        experiments=("fig01",),
        check=check_fig01_starvation,
        tolerance={"min_ttft_gap": 1.5},
        expected="vLLM TTFT p95 at least 1.5x CFS-over-DRAM's and AQUA's (measured "
        "~2x at 5 req/s)",
    ),
    Claim(
        id="fig01-rct-recovery",
        figure="Figure 1",
        claim="CFS over DRAM costs ~1.5-2x RCT; AQUA recovers most of that, "
        "ending near vLLM's RCT.",
        experiments=("fig01",),
        check=check_fig01_rct_recovery,
        tolerance={"max_aqua_rct_penalty": 1.5, "min_cfs_rct_penalty": 1.3},
        expected="AQUA mean RCT <= 1.5x vLLM's and below CFS-over-DRAM's, which "
        "pays > 1.3x vLLM's (measured 1.8x)",
    ),
    Claim(
        id="fig02-producer-headroom",
        figure="Figure 2",
        claim="Image/audio generation is compute-bound: throughput plateaus "
        "with tens of GB of HBM still free.",
        experiments=("fig02",),
        check=check_fig02_producer_headroom,
        tolerance={
            "min_producer_free_gib": 10.0,
            "min_plateau_free_gib": 20.0,
            "max_plateau_growth": 1.2,
        },
        expected="AudioGen and StableDiffusion keep >= 10 GiB free at peak "
        "throughput and > 20 GiB at their largest batch, which gains < 1.2x "
        "throughput over the middle batch",
    ),
    Claim(
        id="fig02-llm-exhaustion",
        figure="Figure 2",
        claim="LLM inference is memory-bound: free memory ~0 at peak "
        "throughput (the KV cache exhausts HBM).",
        experiments=("fig02",),
        check=check_fig02_llm_exhaustion,
        tolerance={"max_llm_free_gib": 2.0, "min_llm_throughput_growth": 1.0},
        expected="Llama-2-13B has <= 2 GiB free at its largest feasible batch, "
        "whose throughput exceeds its smallest batch's (measured 29x)",
    ),
    Claim(
        id="fig03a-small-transfers",
        figure="Figure 3a",
        claim="At small (~4 KB) transfers NVLink is nearly as slow as PCIe — "
        "latency dominates.",
        experiments=("fig03",),
        check=check_fig03a_small_transfers,
        tolerance={"max_smallbuf_advantage": 2.0},
        expected="NVLink <= 2x PCIe effective bandwidth at the smallest buffer",
    ),
    Claim(
        id="fig03a-peak-bandwidth",
        figure="Figure 3a",
        claim="Large transfers reach ~250 GB/s over NVLink, an order of "
        "magnitude above PCIe.",
        experiments=("fig03",),
        check=check_fig03a_peak_bandwidth,
        tolerance={"nvlink_peak_lo": 200.0, "nvlink_peak_hi": 280.0, "min_peak_ratio": 5.0},
        expected="NVLink peak within [200, 280] GB/s and >= 5x PCIe peak",
    ),
    Claim(
        id="fig03b-producer-impact",
        figure="Figure 3b",
        claim="Serving NVLink offloads costs the producer <5% throughput.",
        experiments=("fig03",),
        check=check_fig03b_producer_impact,
        # Of the two bounds once checked (<= 0.10 here, < 0.08 over 120 s),
        # the tighter is kept; runs land at 1-6%.
        tolerance={"max_impact_fraction": 0.08},
        expected="impact fraction < 0.08 (batch quantization lands runs at 1-6%)",
    ),
    # The two points Figure 3a's text names, thresholds kept from the
    # earlier full-scale check; the figure cell's size grid skips both.
    Claim(
        id="fig03a-anchors-bandwidth",
        figure="Figure 3a",
        claim="NVLink reaches ~100 GB/s only at 2 MB transfers and "
        "saturates near its 250 GB/s peak.",
        experiments=("fig03a-anchors",),
        check=check_fig03a_anchors,
        tolerance={"gbps_2mb_lo": 80.0, "gbps_2mb_hi": 130.0, "min_gbps_1gb": 225.0},
        expected="strictly between 80 and 130 GB/s at 2 MB; > 90% of 250 GB/s at 1 GB",
    ),
    Claim(
        id="fig07-ordering",
        figure="Figure 7",
        claim="AQUA outpaces FlexGen-to-DRAM on long-prompt inference with "
        "every producer pairing (SD, AudioGen, Llama).",
        experiments=("fig07",),
        check=check_fig07_ordering,
        tolerance={},
        expected="FlexGen-to-DRAM generates tokens and every AQUA variant "
        "generates more",
    ),
    Claim(
        id="fig07-speedup",
        figure="Figure 7",
        claim="AQUA generates ~6x more tokens than FlexGen in the same window.",
        experiments=("fig07",),
        check=check_fig07_speedup,
        tolerance={"speedup_lo": 4.0, "speedup_hi": 10.0},
        expected="speedup within [4, 10]x for every producer pairing (measured ~7x)",
    ),
    Claim(
        id="fig08-gain",
        figure="Figure 8",
        claim="AQUA improves LoRA request completion times up to ~1.8x.",
        experiments=("fig08",),
        check=check_fig08_gain,
        tolerance={"gain_lo": 1.4, "gain_hi": 2.6},
        expected="baseline/AQUA mean RCT within [1.4, 2.6]x for every producer "
        "(measured ~1.9x)",
    ),
    Claim(
        id="fig08-producer-equivalence",
        figure="Figure 8",
        claim="The LoRA benefit is identical whether the producer is SD, "
        "SD-XL or a Llama-2-13B LLM.",
        experiments=("fig08",),
        check=check_fig08_producer_equivalence,
        tolerance={"max_rel_spread": 0.15},
        expected="mean RCT spread across the three producers <= 15%",
    ),
    Claim(
        id="fig09-starvation-gap",
        figure="Figure 9",
        claim="CFS cuts TTFT ~4x vs vLLM's batching (the starvation gap), "
        "and AQUA preserves the CFS TTFT.",
        experiments=("fig09",),
        check=check_fig09_starvation_gap,
        tolerance={"min_ttft_gap": 1.5, "max_aqua_vs_cfs": 1.3, "min_low_rate_ttft_gap": 2.0},
        expected="vLLM TTFT p95 >= 1.5x CFS's at every rate and > 2x CFS's and "
        "AQUA's at the lowest; AQUA within 1.3x of CFS",
    ),
    Claim(
        id="fig09-rct-ordering",
        figure="Figure 9",
        claim="AQUA's RCT lands near vLLM's, below CFS-over-DRAM's penalty.",
        experiments=("fig09",),
        check=check_fig09_rct_ordering,
        tolerance={"max_aqua_rct_penalty": 1.3},
        expected="AQUA mean RCT <= 1.3x vLLM's and below CFS-over-DRAM's at every rate",
    ),
    Claim(
        id="fig10-sawtooth",
        figure="Figure 10",
        claim="The producer donates when idle, a heavy burst reclaims the "
        "memory (denting consumer throughput), and re-donation restores it.",
        experiments=("fig10",),
        check=check_fig10_sawtooth,
        tolerance={
            "min_fast_over_reclaimed": 3.0,
            "min_recovery_fraction": 0.6,
            "min_reclaimed_over_donated": 2.0,
            "min_before_over_during": 1.5,
            "min_after_over_during": 1.3,
        },
        expected="fast path >= 3x reclaimed-window tokens/s; recovery >= 60% of "
        "fast path; before-burst > 1.5x and after-burst > 1.3x during-reclaim "
        "tokens/s; reclaimed free memory > 2x donated",
    ),
    Claim(
        id="fig11-producer-overhead",
        figure="Figure 11",
        claim="Baseline and AQUA producer RCTs are very similar — donating "
        "costs the producer almost nothing.",
        experiments=("fig11",),
        check=check_fig11_producer_overhead,
        tolerance={"max_overhead_ratio": 1.05, "min_completed_fraction": 0.95},
        expected="AQUA producer RCT p50/p95 within 5% of the baseline's, "
        "completing >= 95% as many requests",
    ),
    Claim(
        id="fig12-size-ordering",
        figure="Figure 12",
        claim="Larger offloaded tensors benefit more: 320 MB adapters save "
        "more RCT than 160 MB ones (same compute, more I/O).",
        experiments=("fig12",),
        check=check_fig12_size_ordering,
        tolerance={"min_saved_ratio": 1.5},
        expected="saved RCT positive at 160 MB and > 1.5x that at 320 MB",
    ),
    Claim(
        id="fig13-chatbot",
        figure="Figure 13",
        claim="Without CFS some users repeatedly hit unresponsiveness; with "
        "AQUA worst-case TTFT collapses at near-vLLM RCT.",
        experiments=("fig13",),
        check=check_fig13_chatbot,
        tolerance={"min_worstcase_ttft_gap": 2.0, "max_aqua_rct_penalty": 1.2, "turns": 100.0},
        expected="all 100 turns complete; vLLM worst TTFT > 2x AQUA's and "
        "CFS's; AQUA mean RCT <= 1.2x vLLM's and <= CFS's",
    ),
    Claim(
        id="fig14-placer-ordering",
        figure="Figure 14 / §A.1",
        claim="50/50 LLM clusters solve in under a second; mixed-modality "
        "instances are the slow case.",
        experiments=("fig14",),
        check=check_fig14_placer_ordering,
        tolerance={"max_llm5050_seconds": 2.0},
        expected="50/50 solves < 2 s (CI slack over the paper's <1 s), faster "
        "than mixed, and pair every consumer",
    ),
    # Only the 128-GPU mixed instance tests the solver's time budget;
    # the 90 s bound is 60 s of HiGHS time limit plus model build.
    Claim(
        id="fig14-128gpu-budget",
        figure="Figure 14 / §A.1",
        claim="Up to 128 GPUs, 50/50 clusters stay fast and fully paired, "
        "and the time budget bounds the largest mixed instance.",
        experiments=("fig14-128gpu",),
        check=check_fig14_128gpu_budget,
        tolerance={"max_llm5050_seconds": 2.0, "max_mixed_seconds": 90.0},
        expected="every row as fig14-placer-ordering; 128-GPU mixed solve < 90 s",
    ),
    Claim(
        id="fig15-17-producer-invariance",
        figure="Figures 15/16/17",
        claim="The CFS improvements hold whether the producer is an elastic "
        "LLM, StableDiffusion, or behind an 8-GPU NVSwitch.",
        experiments=("fig15", "fig16", "fig17"),
        check=check_fig15_17_invariance,
        # Of the two TTFT-gap bounds once checked (>= 1.5x, and AQUA
        # halving vLLM's TTFT), the tighter > 2x is kept; measured ~3.7x.
        tolerance={"min_ttft_gap": 2.0, "max_rel_spread": 0.3},
        expected="vLLM/AQUA TTFT p95 gap > 2x and AQUA RCT below CFS's in all "
        "three variants; AQUA TTFT spread across variants <= 30%",
    ),
    Claim(
        id="fig18-nvswitch-scaling",
        figure="Figure 18",
        claim="Four consumer/producer pairs across the NVSwitch each match "
        "the 2-GPU direct-NVLink throughput — ports don't contend.",
        experiments=("fig18",),
        check=check_fig18_nvswitch,
        tolerance={"min_reference_fraction": 0.8, "max_consumer_spread": 1.2},
        expected="all four consumers > 80% of the 2-GPU reference tokens and "
        "within < 1.2x of each other",
    ),
    Claim(
        id="tables-inventory",
        figure="Tables 1-3",
        claim="The evaluation serves three memory-deficit LLM jobs, two "
        "elastic LLM producers and the image/audio producer jobs.",
        experiments=("tables",),
        check=check_tables_inventory,
        tolerance={},
        expected="all nine (model, workload, engine) rows present",
    ),
    # Serving the inventory, not just listing it: a short slice of
    # every job must finish on its engine (the one long prompt only
    # has to make progress).
    Claim(
        id="workload-runs-complete",
        figure="Tables 1-3",
        claim="Every (model, workload, engine) row of Tables 1-3 runs on "
        "the reproduction.",
        experiments=("workload-runs",),
        check=check_workload_runs,
        tolerance={},
        expected="every job generates tokens and finishes all its requests, "
        "except the long prompt, which only has to generate tokens",
    ),
    Claim(
        id="frontier-conservation",
        figure="docs/frontier.md",
        claim="The global router never loses a request: every frontier "
        "cell's books balance (offered == routed + shed) for every "
        "policy at every offered load, total and per tenant.",
        experiments=("frontier",),
        check=check_frontier_conservation,
        tolerance={},
        expected="offered - routed - shed == 0 and a clean ledger verdict "
        "in every cell of the grid",
    ),
    Claim(
        id="frontier-low-load",
        figure="docs/frontier.md",
        claim="Below the cluster knee the frontier is ideal: goodput "
        "tracks offered load, nothing sheds, and TTFT attainment is "
        "near-perfect for every routing policy.",
        experiments=("frontier",),
        check=check_frontier_low_load,
        tolerance={
            "min_low_load_attainment": 0.9,
            "max_low_load_shed": 0.02,
            "goodput_frac_lo": 0.8,
            "goodput_frac_hi": 1.2,
        },
        expected="at the lowest grid rate: attainment >= 0.9, shed <= 2%, "
        "goodput within [0.8, 1.2]x offered (measured ~0.95x)",
    ),
    Claim(
        id="frontier-overload-shedding",
        figure="docs/frontier.md",
        claim="Past the knee the router degrades gracefully: shed rate "
        "rises monotonically with offered load, overload sheds "
        "explicitly rather than silently, and goodput holds near its "
        "peak instead of collapsing.",
        experiments=("frontier",),
        check=check_frontier_overload,
        tolerance={
            "min_overload_shed": 0.05,
            "min_overload_goodput_frac": 0.5,
        },
        expected="shed rate non-decreasing in offered load, >= 5% at the "
        "top rate (measured 19-49%), overload goodput >= 50% of the "
        "policy's best (measured 68-99%)",
    ),
    Claim(
        id="e2e-placement-coverage",
        figure="§6.1",
        claim="AQUA-PLACER pairs every memory-deficit consumer with a "
        "producer in both the balanced and LLM-heavy splits.",
        experiments=("e2e",),
        check=check_e2e_placement,
        tolerance={"min_pairs": 6.0},
        expected="zero unmatched consumers and >= 6 pairs per split",
    ),
    # The paper runs its placed servers one at a time; running all of
    # them at once must keep the per-pair results (fig07's speedup floor
    # of 3x on DRAM, producers within 10% of their DRAM-run service).
    Claim(
        id="cluster-concurrent-speedup",
        figure="§6.1",
        claim="With all 16 models live on one coordinator, long-prompt "
        "consumers keep their NVLink speedup and producers keep serving.",
        experiments=("cluster-concurrent",),
        check=check_cluster_concurrent,
        tolerance={
            "min_consumer_speedup": 3.0,
            "min_producer_completed_fraction": 0.9,
            "min_llm_heavy_tokens": 400.0,
        },
        expected="balanced: OPT consumers > 3x their DRAM tokens, producers "
        ">= 90% of their DRAM-run completions; LLM-heavy: four OPT consumers "
        "> 400 tokens (DRAM manages ~120), every elastic producer serves",
    ),
    # Figure 9 samples two rates; the sweep fills in the curve.  A light
    # load must make fairness nearly free and a heavy one must show the
    # TTFT win; the 0.05 slack absorbs batch quantization.
    Claim(
        id="sweep-tradeoffs",
        figure="Figure 9 (rate sweep)",
        claim="Fairness is free at light load; under load CFS wins TTFT and "
        "AQUA's RCT penalty stays below DRAM-CFS's at every rate.",
        experiments=("sweep",),
        check=check_sweep_tradeoffs,
        tolerance={
            "max_light_aqua_penalty": 1.2,
            "min_heavy_ttft_gain": 1.3,
            "penalty_slack": 0.05,
        },
        expected="AQUA RCT penalty < 1.2 at 1 req/s; vLLM/AQUA TTFT p95 > 1.3 "
        "at 6 req/s; AQUA penalty <= CFS-DRAM's + 0.05 at every rate; the "
        "CFS-DRAM penalty grows with load",
    ),
    # The headline effects must not hinge on one trace: the means keep
    # the paper's shape and vary by under 25% (sample stdev, ddof=1).
    Claim(
        id="seed-robustness-headlines",
        figure="Figures 7/8 (seeds)",
        claim="The LoRA RCT gain and the long-prompt speedup hold across "
        "workload seeds.",
        experiments=("seed-robustness",),
        check=check_seed_robustness,
        tolerance={"min_lora_gain": 1.3, "min_speedup": 4.0, "max_cv": 0.25},
        expected="over seeds 0-3: mean LoRA gain > 1.3, mean speedup > 4, "
        "each coefficient of variation < 0.25",
    ),
    # §A.2 reports 2x/1.7x over an hour; the simulated baseline loader
    # has no Python-side deserialization stalls, so the margin is
    # smaller and the band only asks for a sustained gain.
    Claim(
        id="a2-long-lora-sustained",
        figure="§A.2",
        claim="Over a long LoRA run AQUA keeps improving p50 and p95 RCT.",
        experiments=("a2-long-lora",),
        check=check_a2_long_lora,
        tolerance={"min_gain": 1.1},
        expected="all 1200 requests complete in both systems; baseline/AQUA "
        "RCT p50 and p95 > 1.1 (paper: 2x / 1.7x)",
    ),
    # Design ablations: each band states the alternative's cost as the
    # paper argues it, at the thresholds first set for these runs.  A
    # strict edge fails on a tie, i.e. when the knob has no effect.
    Claim(
        id="ablation-gather-switch-time",
        figure="§5 (gather kernels)",
        claim="Without the gather kernel, context switches over NVLink "
        "issue many small copies and lose most of their speed.",
        experiments=("ablation-gather",),
        check=check_ablation_gather,
        tolerance={"min_switch_slowdown": 3.0},
        expected="naive context-switch time > 3x the gathered one",
    ),
    Claim(
        id="ablation-placer-milp-vs-greedy",
        figure="§4 (AQUA-PLACER)",
        claim="The exact placer is never worse than the greedy heuristic, "
        "which is faster but no better.",
        experiments=("ablation-placer",),
        check=check_ablation_placer,
        tolerance={"objective_slack": 1e-6, "max_greedy_time_ratio": 2.0},
        expected="MILP objective <= greedy's + 1e-6, both pair every consumer, "
        "greedy solves in < 2x the MILP's time",
    ),
    Claim(
        id="ablation-slice-tradeoff",
        figure="§5 (CFS slice length)",
        claim="Short CFS slices switch more; long slices drift back towards "
        "batch-like TTFT.",
        experiments=("ablation-slice",),
        check=check_ablation_slice,
        tolerance={},
        expected="1-token slices switch longer than 20-token ones; 80-token "
        "slices have higher TTFT p95 than 5-token ones",
    ),
    Claim(
        id="ablation-block-size-scatter",
        figure="§5 (KV block size)",
        claim="Small KV blocks scatter a context into many more pieces "
        "without costing concurrency or capacity.",
        experiments=("ablation-block-size",),
        check=check_ablation_block_size,
        tolerance={"min_scatter_ratio": 8.0, "max_capacity_spread": 1.05},
        expected="8-token blocks give > 8x the pieces of 256-token ones and "
        "no smaller peak batch; capacity within < 5% across sizes",
    ),
    Claim(
        id="ablation-control-frequency-reaction",
        figure="§3 (control-plane frequency)",
        claim="Checking the coordinator often catches a donation early, and a "
        "moderate interval loses little.",
        experiments=("ablation-control-frequency",),
        check=check_ablation_control_frequency,
        tolerance={"min_moderate_fraction": 0.9},
        expected="respond_every=4 generates more tokens than 512; 16 keeps > 90% "
        "of 4's tokens",
    ),
    Claim(
        id="ablation-scaleup-domain-bandwidth",
        figure="§2.3/§4 (scale-up domain)",
        claim="Offloading outside the NVLink domain is no faster than host "
        "DRAM, an order of magnitude behind NVLink.",
        experiments=("ablation-scaleup-domain",),
        check=check_ablation_scaleup_domain,
        tolerance={"min_nvlink_advantage": 5.0, "min_rdma_over_dram": 0.95},
        expected="DRAM and remote-GPU reads > 5x slower than NVLink; RDMA "
        ">= 0.95x the DRAM read time",
    ),
    Claim(
        id="ablation-shared-producer-bandwidth",
        figure="§4 (one producer per consumer)",
        claim="Sharing one producer between consumers shares its NVLink "
        "port and cuts their throughput.",
        experiments=("ablation-shared-producer",),
        check=check_ablation_shared_producer,
        tolerance={"max_shared_fraction": 0.8},
        expected="shared-producer aggregate tokens < 80% of dedicated",
    ),
    Claim(
        id="ablation-weighted-cfs-split",
        figure="§5 (weighted CFS)",
        claim="CFS weights split service between tenant classes without "
        "losing aggregate throughput.",
        experiments=("ablation-weighted-cfs",),
        check=check_ablation_weighted_cfs,
        tolerance={
            "max_even_imbalance": 0.3,
            "min_premium_ratio": 2.0,
            "min_total_fraction": 0.7,
        },
        expected="equal weights within 30%; 4x weight gets > 2x the tokens; "
        "total > 70% of the equal split",
    ),
    # §9 baselines: the ordering its arguments imply.
    Claim(
        id="baseline-offload-ordering",
        figure="§9 (offload baselines)",
        claim="UVM/PCIe <= DeepSpeed/PCIe <= FlexGen/PCIe < UVM/NVLink < "
        "AQUA, and AQUA speeds DeepSpeed up too.",
        experiments=("baseline-offload",),
        check=check_baseline_offload,
        tolerance={"min_deepspeed_gain": 3.0},
        expected="the ordering holds on 60 s of long-prompt tokens; "
        "DeepSpeed+AQUA > 3x DeepSpeed/PCIe",
    ),
    Claim(
        id="baseline-orca-paging",
        figure="§9 (Orca)",
        claim="Paged attention admits several times Orca's max-length "
        "reservation concurrency, finishing and responding sooner.",
        experiments=("baseline-orca",),
        check=check_baseline_orca,
        tolerance={"min_concurrency_gain": 1.5},
        expected="vLLM peak batch > 1.5x Orca's; vLLM finish and TTFT p95 "
        "below Orca's",
    ),
    Claim(
        id="context-cache-reuse",
        figure="§8 (chat-context extension)",
        claim="Parking chat contexts in donated memory between turns turns "
        "history re-prefill into an NVLink read.",
        experiments=("context-cache",),
        check=check_context_cache,
        tolerance={"turns": 100.0, "min_cache_hits": 70.0, "max_rct_fraction": 0.9},
        expected="all 100 turns complete either way; >= 70 of the 75 returning "
        "turns hit; mean RCT < 90% and finish earlier with the cache",
    ),
    Claim(
        id="sensitivity-hardware-speedup",
        figure="§2.3 (hardware generations)",
        claim="AQUA's speedup persists across GPU and link generations: "
        "faster PCIe shrinks it, faster NVLink raises throughput.",
        experiments=("sensitivity-hardware",),
        check=check_sensitivity_hardware,
        tolerance={"min_speedup": 2.0},
        expected="speedup > 2 on every generation; PCIe5 speedup below PCIe4's; "
        "H100 AQUA tokens above A100's",
    ),
]

for _claim in CLAIMS:
    REGISTRY.register(_claim)
