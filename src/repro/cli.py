"""Command-line interface: run any paper experiment from the shell.

Examples::

    aqua-repro list
    aqua-repro fig07 --duration 120
    aqua-repro fig09 --rates 2 5 --count 50
    aqua-repro fig14 --gpus 16 32 64 128
    aqua-repro tables
    aqua-repro replicate --jobs 4
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Optional

from repro.experiments import figures, report


def _print(obj) -> None:
    print(json.dumps(obj, indent=2, default=str))


def cmd_fig01(args) -> None:
    result = figures.fig01_motivation(rate=args.rate, count=args.count)
    rows = []
    for label, data in result.items():
        s = data["summary"]
        rows.append(
            [
                label,
                s.get("ttft_mean"),
                s.get("ttft_p95"),
                s.get("rct_mean"),
                s.get("rct_p95"),
            ]
        )
    print(
        report.format_table(
            ["system", "ttft_mean_s", "ttft_p95_s", "rct_mean_s", "rct_p95_s"],
            rows,
            title=f"Figure 1: responsiveness vs throughput ({args.rate} req/s)",
        )
    )


def cmd_fig02(args) -> None:
    result = figures.fig02_contention()
    for model, rows in result.items():
        print(
            report.format_table(
                ["batch", "throughput/s", "free_GiB"],
                [[r["batch"], r["throughput"], r["free_gib"]] for r in rows],
                title=f"Figure 2: {model}",
            )
        )
        print()


def cmd_fig03(args) -> None:
    bw = figures.fig03a_interconnect_bandwidth()
    print(
        report.format_table(
            ["size_bytes", "NVLink_GB/s", "PCIe_GB/s"],
            [[r["size_bytes"], r["nvlink_gbps"], r["pcie_gbps"]] for r in bw["rows"]],
            title="Figure 3a: effective bandwidth vs transfer size",
        )
    )
    impact = figures.fig03b_sharing_impact(duration=args.duration)
    print()
    print(
        report.format_table(
            ["isolated/s", "shared/s", "impact"],
            [
                [
                    impact["isolated_throughput"],
                    impact["shared_throughput"],
                    f"{impact['impact_fraction']:.1%}",
                ]
            ],
            title="Figure 3b: producer throughput while donating memory",
        )
    )


def cmd_fig07(args) -> None:
    result = figures.fig07_longprompt(duration=args.duration, jobs=args.jobs)
    print(
        report.format_table(
            ["system", "tokens", "speedup"],
            [[k, v["tokens"], v["speedup"]] for k, v in result.items()],
            title=f"Figure 7: long-prompt tokens in {args.duration:.0f}s",
        )
    )


def cmd_fig08(args) -> None:
    result = figures.fig08_lora(rate=args.rate, count=args.count)
    rows = []
    for label, data in result.items():
        s = data["summary"]
        rows.append([label, s.get("rct_p50"), s.get("rct_mean"), s.get("rct_p95")])
    print(
        report.format_table(
            ["system", "rct_p50_s", "rct_mean_s", "rct_p95_s"],
            rows,
            title="Figure 8: LoRA adapter serving",
        )
    )


def cmd_fig09(args) -> None:
    result = figures.fig09_cfs(
        rates=tuple(args.rates), count=args.count, jobs=args.jobs
    )
    for rate, systems in result.items():
        rows = []
        for label, data in systems.items():
            s = data["summary"]
            rows.append(
                [label, s.get("ttft_mean"), s.get("ttft_p95"), s.get("rct_mean")]
            )
        print(
            report.format_table(
                ["system", "ttft_mean_s", "ttft_p95_s", "rct_mean_s"],
                rows,
                title=f"Figure 9: CFS responsiveness at {rate} req/s",
            )
        )
        print()


def cmd_fig10(args) -> None:
    result = figures.fig10_elastic()
    print("Figure 10: elastic memory sharing")
    print(f"consumer tokens total: {result['consumer_tokens_total']}")
    samples = result["free_memory_gib"]
    step = max(1, len(samples) // 20)
    print(
        report.format_table(
            ["t_s", "engine_free_GiB"],
            [[f"{t:.0f}", v] for t, v in samples[::step]],
        )
    )


def cmd_fig11(args) -> None:
    result = figures.fig11_producer_overhead()
    base, aqua = result["baseline"], result["aqua"]

    def mid(xs):
        return xs[len(xs) // 2] if xs else float("nan")

    print(
        report.format_table(
            ["system", "completed", "rct_p50_s", "rct_max_s"],
            [
                ["baseline", len(base), mid(base), max(base, default=float("nan"))],
                ["aqua-producer", len(aqua), mid(aqua), max(aqua, default=float("nan"))],
            ],
            title="Figure 11: producer-side overhead of donating memory",
        )
    )


def cmd_fig12(args) -> None:
    result = figures.fig12_tensor_size(count=args.count, jobs=args.jobs)
    rows = []
    for size, data in result.items():
        rows.append(
            [
                size,
                data["baseline"]["summary"].get("rct_mean"),
                data["aqua"]["summary"].get("rct_mean"),
                data["rct_mean_saved"],
            ]
        )
    print(
        report.format_table(
            ["adapter", "baseline_rct_s", "aqua_rct_s", "saved_s"],
            rows,
            title="Figure 12: AQUA benefit vs offloaded tensor size",
        )
    )


def cmd_fig13(args) -> None:
    result = figures.fig13_chatbot(n_users=args.users, turns=args.turns)
    rows = []
    for label, data in result.items():
        s = data["summary"]
        rows.append(
            [
                label,
                data["turns_completed"],
                s.get("ttft_mean"),
                s.get("rct_mean"),
                s.get("rct_max"),
            ]
        )
    print(
        report.format_table(
            ["system", "turns", "ttft_mean_s", "rct_mean_s", "rct_max_s"],
            rows,
            title="Figure 13: chatbot responsiveness over turns",
        )
    )


def cmd_fig14(args) -> None:
    result = figures.fig14_placer_convergence(gpu_counts=tuple(args.gpus))
    print(
        report.format_table(
            ["gpus", "mixed_s", "llm5050_s"],
            [
                [r["gpus"], r["mixed_seconds"], r["llm5050_seconds"]]
                for r in result["rows"]
            ],
            title="Figure 14: AQUA-PLACER convergence time",
        )
    )


def cmd_fig18(args) -> None:
    result = figures.fig18_nvswitch_stress(duration=args.duration)
    print("Figure 18: NVSwitch stress (4 consumers + 4 producers)")
    print(f"per-consumer tokens: {result['per_consumer_tokens']}")
    print(f"2-GPU reference:     {result['two_gpu_reference_tokens']}")


def cmd_resilience(args) -> int:
    from repro.experiments.resilience import resilience_experiment
    from repro.faults import FaultSchedule

    schedule = FaultSchedule.from_file(args.faults) if args.faults else None
    result = resilience_experiment(
        schedule=schedule,
        duration=args.duration,
        audit=args.audit,
        jobs=args.jobs,
        scrape_interval=_resolve_scrape_interval(args),
        postmortem_dir=args.postmortem_dir,
    )
    print("Resilience: goodput under faults (FlexGen consumer, LLM producer)")
    for entry in result["fault_log"]:
        print(f"  t={entry['t']:7.2f}  {entry['event']}  {entry['target']}")
    rec = result["recovery_time_s"]
    print(
        report.format_table(
            ["metric", "value"],
            [
                ["pre-fault goodput (tok/s)", f"{result['pre_fault_goodput']:.2f}"],
                ["post-fault goodput (tok/s)", f"{result['post_fault_goodput']:.2f}"],
                [
                    "post-fault vs fault-free control",
                    f"{result['post_fault_goodput_ratio']:.2f}x"
                    if result["post_fault_goodput_ratio"] is not None
                    else "n/a",
                ],
                [
                    "recovery time after all-clear (s)",
                    f"{rec:.1f}" if rec is not None else "not recovered",
                ],
                ["transfer retries", result["retries"]],
                ["requests re-queued", result["requeues"]],
                ["tensors lost", result["lost_tensors"]],
                ["requests dropped", result["dropped_requests"]],
                ["tokens generated", result["tokens_total"]],
            ],
        )
    )
    if args.trace:
        result["tracer"].export_json(args.trace)
        print(f"trace written to {args.trace}")
    if result.get("observability") is not None:
        _print_observability(
            result["observability"], args.dashboard, result.get("dashboard_data")
        )
    if args.audit:
        return _print_audit_reports(result["audit"])
    return 0


def _print_audit_reports(reports: dict) -> int:
    """Print per-run audit outcomes; non-zero when any invariant broke."""
    failed = 0
    for run, report in reports.items():
        status = "clean" if report["ok"] else f"{len(report['violations'])} violation(s)"
        print(
            f"audit[{run}]: {status} "
            f"({report['checks']} checkpoints, "
            f"{report['transfers_observed']} transfers, "
            f"digest {report['digest'][:16]}…)"
        )
        for violation in report["violations"]:
            print(f"  {violation}")
        failed += 0 if report["ok"] else 1
    return 1 if failed else 0


def cmd_audit(args) -> int:
    """Conservation-audit smoke run.

    Runs the resilience scenario (faults included) twice under the
    invariant monitor: every checkpoint must come up clean, and the two
    identical runs must produce byte-identical event digests (the
    determinism law).
    """
    from repro.experiments.resilience import resilience_experiment

    print(f"audit smoke: 2 identical resilience runs, {args.duration:.0f}s each")
    first = resilience_experiment(duration=args.duration, audit=True)
    second = resilience_experiment(duration=args.duration, audit=True)
    rc = _print_audit_reports(first["audit"])

    digests_first = {run: r["digest"] for run, r in first["audit"].items()}
    digests_second = {run: r["digest"] for run, r in second["audit"].items()}
    if digests_first == digests_second:
        print("determinism: identical runs produced identical digests")
    else:
        print("determinism: DIGEST MISMATCH between identical runs")
        for run in digests_first:
            print(f"  {run}: {digests_first[run]} vs {digests_second[run]}")
        rc = 1
    return rc


def cmd_observe(args) -> int:
    """One telemetered run: trace + metrics + latency attribution."""
    from repro.experiments.observe import observe_experiment
    from repro.telemetry import COMPONENTS

    result = observe_experiment(
        duration=args.duration,
        faults=not args.no_faults,
        scrape_interval=_resolve_scrape_interval(args),
        postmortem_dir=args.postmortem_dir,
    )
    rep = result["report"]

    print(f"Observe: telemetered offloading run ({args.duration:.0f}s simulated)")
    for entry in result["fault_log"]:
        print(f"  t={entry['t']:7.2f}  {entry['event']}  {entry['target']}")
    rows = []
    for component in COMPONENTS:
        agg = rep["aggregates"][component]
        rows.append(
            [
                component,
                f"{agg['mean']:.3f}",
                f"{agg['p50']:.3f}",
                f"{agg['p99']:.3f}",
            ]
        )
    print(
        report.format_table(
            ["component", "mean_s", "p50_s", "p99_s"],
            rows,
            title=f"Latency attribution over {rep['count']} finished request(s)",
        )
    )

    telemetry = result["telemetry"]
    if args.trace:
        telemetry.tracer.export_json(args.trace)
        print(f"trace written to {args.trace}")
    if args.metrics:
        with open(args.metrics, "w") as fh:
            fh.write(result["prometheus"])
        print(f"metrics written to {args.metrics}")
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(rep, fh, indent=2)
        print(f"attribution report written to {args.report}")
    if "observability" in result:
        _print_observability(
            result["observability"], args.dashboard, result.get("dashboard_data")
        )
    return 0


def cmd_tables(args) -> None:
    for title, rows in (
        ("Table 1: LLM jobs with memory deficit", figures.table1_deficit_jobs()),
        ("Table 2: LLM jobs with excess memory", figures.table2_excess_llm_jobs()),
        ("Table 3: image/audio producers", figures.table3_producer_jobs()),
    ):
        print(
            report.format_table(
                ["model", "workload", "engine"],
                [[r["model"], r["workload"], r["engine"]] for r in rows],
                title=title,
            )
        )
        print()


def cmd_e2e(args) -> None:
    _print(figures.e2e_cluster_placement())


def cmd_all(args) -> None:
    from repro.experiments.runall import run_all

    run_all(
        args.out,
        only=args.only or None,
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
    )


def cmd_replicate(args) -> int:
    """One-command verdict: does this repo still reproduce the paper?"""
    from repro import evals

    if args.list:
        for claim in evals.get_claims():
            print(f"{claim.id:32s} {claim.figure:18s} cells: {', '.join(claim.experiments)}")
        return 0

    doc = evals.replicate(
        only=args.only or None,
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        progress=print,
    )
    print(evals.render_text(doc))
    out_path = evals.write_replication(doc, args.out)
    print(f"replication document written to {out_path}")
    if args.report:
        evals.write_markdown(doc, args.report)
        print(f"markdown report written to {args.report}")
    return 1 if doc["summary"]["verdict"] == "FAIL" else 0


def cmd_sweep(args) -> None:
    from repro.experiments.sweep import sweep_request_rate, sweep_rows

    points = sweep_request_rate(
        rates=tuple(args.rates), count=args.count, jobs=args.jobs
    )
    print(
        report.format_table(
            [
                "rate",
                "vllm_ttft_p95",
                "cfs_ttft_p95",
                "aqua_ttft_p95",
                "cfs_rct_penalty",
                "aqua_rct_penalty",
            ],
            sweep_rows(points),
            title="Scheduler trade-offs vs request rate",
        )
    )


def cmd_frontier(args) -> int:
    """Cluster serving frontier: offered load vs goodput/SLO/shed."""
    from repro.experiments.frontier import frontier_rows, frontier_sweep

    sweep = frontier_sweep(
        rates=tuple(args.rates),
        policies=tuple(args.policies),
        duration=args.duration,
        workload=args.workload,
        n_servers=args.servers,
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        progress=print,
    )
    for policy, rows in frontier_rows(sweep).items():
        print(
            report.format_table(
                ["rate", "offered", "goodput/s", "attainment", "shed_rate", "q_full"],
                rows,
                title=(
                    f"Frontier: {policy} over {args.servers} servers "
                    f"({args.workload} workload, {args.duration:.0f}s)"
                ),
            )
        )
        print()
    bad = [
        cell
        for cells in sweep["grid"].values()
        for cell in cells
        if not cell["ledger_ok"]
    ]
    if bad:
        for cell in bad:
            print(f"LEDGER VIOLATIONS in {cell['policy']}@{cell['rate']:g}:")
            for violation in cell["violations"]:
                print(f"  {violation}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(sweep, fh, indent=1)
        print(f"frontier sweep written to {args.out}")
    return 1 if bad else 0


COMMANDS: dict[str, Callable] = {
    "fig01": cmd_fig01,
    "fig02": cmd_fig02,
    "fig03": cmd_fig03,
    "fig07": cmd_fig07,
    "fig08": cmd_fig08,
    "fig09": cmd_fig09,
    "fig10": cmd_fig10,
    "fig11": cmd_fig11,
    "fig12": cmd_fig12,
    "fig13": cmd_fig13,
    "fig14": cmd_fig14,
    "fig18": cmd_fig18,
    "resilience": cmd_resilience,
    "observe": cmd_observe,
    "audit": cmd_audit,
    "tables": cmd_tables,
    "e2e": cmd_e2e,
    "all": cmd_all,
    "sweep": cmd_sweep,
    "frontier": cmd_frontier,
    "replicate": cmd_replicate,
}


def _add_jobs_argument(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Uniform ``--jobs N`` fan-out flag (see ``docs/parallelism.md``).

    The default is one worker per CPU; ``--jobs 1`` preserves the serial
    path exactly.
    """
    from repro.experiments.pool import default_jobs

    parser.add_argument(
        "--jobs",
        type=int,
        default=default_jobs(),
        metavar="N",
        help="worker processes for independent simulations "
        "(default: %(default)s; 1 = serial)",
    )
    return parser


def _add_trace_argument(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Uniform ``--trace`` export, shared by every experiment command.

    Commands whose handlers export their own tracer (``resilience``,
    ``observe``) declare it themselves; everything else gets an ambient
    :func:`repro.telemetry.capture_trace` wrapped around the run by
    :func:`main`.
    """
    parser.add_argument(
        "--trace", metavar="trace.json", help="write a Chrome trace of the run"
    )
    return _add_observability_arguments(parser)


def _add_observability_arguments(
    parser: argparse.ArgumentParser,
) -> argparse.ArgumentParser:
    """Uniform ``--scrape-interval`` / ``--dashboard`` observability flags.

    ``resilience`` and ``observe`` handle the flags themselves (their
    experiments return observability exports directly); every other
    command gets an ambient :func:`repro.telemetry.capture_observability`
    wrapped around the run by :func:`main`.  Like ``--trace``, the
    ambient spec does not cross process boundaries — combine with
    ``--jobs 1`` on pooled commands to scrape the rigs in-process.
    """
    parser.add_argument(
        "--scrape-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="scrape metrics into time series every N simulated seconds "
        "(enables the SLO tracker and flight recorder)",
    )
    parser.add_argument(
        "--dashboard",
        metavar="out.html",
        help="write a self-contained HTML dashboard of the scraped run "
        "(implies --scrape-interval 1.0 unless set)",
    )
    return parser


def _resolve_scrape_interval(args) -> Optional[float]:
    """``--dashboard`` without ``--scrape-interval`` implies 1 s scrapes."""
    if args.scrape_interval is not None:
        return args.scrape_interval
    return 1.0 if args.dashboard else None


def _print_observability(obs: dict, dashboard_path: Optional[str],
                         dashboard_data: Optional[dict]) -> None:
    """Shared alert/bundle summary + dashboard export for CLI handlers."""
    slo = obs.get("slo")
    if slo is not None:
        alerts = slo.get("alerts", [])
        print(f"SLO burn-rate alerts: {len(alerts)}")
        for alert in alerts:
            print(
                f"  t={alert['t']:7.2f}  {alert['slo']} [{alert['severity']}] "
                f"burn {alert['burn_long']:.1f}x/{alert['burn_short']:.1f}x"
            )
    recorder = obs.get("recorder")
    if recorder is not None:
        for bundle in recorder.get("bundles", []):
            where = bundle.get("path", "(in memory)")
            print(
                f"  post-mortem #{bundle['seq']} at t={bundle['t']:.2f} "
                f"({bundle['reason']}): {where}"
            )
    if dashboard_path and dashboard_data is not None:
        from repro.telemetry import render_dashboard

        with open(dashboard_path, "w") as fh:
            fh.write(render_dashboard(dashboard_data))
        print(f"dashboard written to {dashboard_path}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aqua-repro",
        description="Reproduce the AQUA paper's figures on simulated hardware.",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")

    p = _add_trace_argument(
        sub.add_parser("fig01", help="motivation: TTFT/RCT per scheduler")
    )
    p.add_argument("--rate", type=float, default=5.0)
    p.add_argument("--count", type=int, default=60)

    _add_trace_argument(
        sub.add_parser("fig02", help="resource contention vs batch size")
    )

    p = _add_trace_argument(
        sub.add_parser("fig03", help="interconnect bandwidth + sharing impact")
    )
    p.add_argument("--duration", type=float, default=60.0)

    p = _add_trace_argument(sub.add_parser("fig07", help="long-prompt throughput"))
    p.add_argument("--duration", type=float, default=120.0)
    _add_jobs_argument(p)

    p = _add_trace_argument(sub.add_parser("fig08", help="LoRA adapter RCTs"))
    p.add_argument("--rate", type=float, default=5.0)
    p.add_argument("--count", type=int, default=100)

    p = _add_trace_argument(sub.add_parser("fig09", help="CFS responsiveness"))
    p.add_argument("--rates", type=float, nargs="+", default=[2.0, 5.0])
    p.add_argument("--count", type=int, default=50)
    _add_jobs_argument(p)

    _add_trace_argument(
        sub.add_parser("fig10", help="elastic memory sharing timeline")
    )
    _add_trace_argument(sub.add_parser("fig11", help="producer overhead"))

    p = _add_trace_argument(sub.add_parser("fig12", help="benefit vs tensor size"))
    p.add_argument("--count", type=int, default=200)
    _add_jobs_argument(p)

    p = _add_trace_argument(
        sub.add_parser("fig13", help="chatbot long-term responsiveness")
    )
    p.add_argument("--users", type=int, default=25)
    p.add_argument("--turns", type=int, default=4)

    p = _add_trace_argument(sub.add_parser("fig14", help="placer convergence time"))
    p.add_argument("--gpus", type=int, nargs="+", default=[16, 32, 64, 128])

    p = _add_trace_argument(sub.add_parser("fig18", help="NVSwitch stress"))
    p.add_argument("--duration", type=float, default=60.0)

    p = sub.add_parser("resilience", help="goodput under injected faults")
    p.add_argument(
        "--faults",
        metavar="schedule.json",
        help="fault schedule JSON (default: the documented built-in scenario)",
    )
    p.add_argument("--duration", type=float, default=160.0)
    _add_trace_argument(p)
    _add_jobs_argument(p)
    p.add_argument(
        "--audit",
        action="store_true",
        help="run the conservation audit alongside; non-zero exit on violations",
    )
    p.add_argument(
        "--postmortem-dir",
        metavar="DIR",
        help="write flight-recorder post-mortem bundles here "
        "(requires --scrape-interval)",
    )

    p = sub.add_parser(
        "observe",
        help="telemetered run: causal trace + metrics + latency attribution",
    )
    p.add_argument("--duration", type=float, default=45.0)
    _add_trace_argument(p)
    p.add_argument(
        "--metrics",
        metavar="metrics.prom",
        help="write metrics in Prometheus text exposition format",
    )
    p.add_argument(
        "--report",
        metavar="report.json",
        help="write the latency-attribution report as JSON",
    )
    p.add_argument(
        "--no-faults",
        action="store_true",
        help="skip the demo DMA-stall injection",
    )
    p.add_argument(
        "--postmortem-dir",
        metavar="DIR",
        help="write flight-recorder post-mortem bundles here "
        "(requires --scrape-interval)",
    )

    p = sub.add_parser(
        "audit", help="conservation-audit smoke run (invariants + determinism)"
    )
    p.add_argument("--duration", type=float, default=60.0)

    sub.add_parser("tables", help="workload inventory (Tables 1-3)")
    _add_trace_argument(
        sub.add_parser("e2e", help="cluster placement (balanced vs LLM-heavy)")
    )

    p = sub.add_parser("all", help="run every experiment, write JSON results")
    p.add_argument("--out", default="results")
    p.add_argument("--only", nargs="*", help="subset of experiment names")
    _add_jobs_argument(p)
    p.add_argument(
        "--cache-dir",
        default=".aqua-cache",
        metavar="DIR",
        help="content-addressed run cache location (default: %(default)s)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every experiment, bypassing the run cache",
    )

    p = sub.add_parser(
        "replicate",
        help="score every paper claim PASS/FAIL/SKIP (see docs/replication.md)",
    )
    p.add_argument(
        "--only",
        nargs="*",
        metavar="CLAIM",
        help="claim ids, id prefixes or experiment names (default: all claims)",
    )
    p.add_argument(
        "--out",
        default="REPLICATION.json",
        metavar="REPLICATION.json",
        help="where to write the scored document (default: %(default)s)",
    )
    p.add_argument(
        "--report",
        metavar="report.md",
        help="also write a human-readable markdown report",
    )
    p.add_argument(
        "--cache-dir",
        default=".aqua-cache",
        metavar="DIR",
        help="content-addressed run cache location (default: %(default)s)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every experiment cell, bypassing the run cache",
    )
    p.add_argument("--list", action="store_true", help="list claims and exit")
    _add_jobs_argument(p)

    p = _add_trace_argument(
        sub.add_parser("sweep", help="scheduler trade-offs across request rates")
    )
    p.add_argument("--rates", type=float, nargs="+", default=[1.0, 2.0, 4.0, 6.0])
    p.add_argument("--count", type=int, default=40)
    _add_jobs_argument(p)

    p = sub.add_parser(
        "frontier",
        help="cluster serving frontier: goodput/SLO/shed vs offered load "
        "per routing policy (see docs/frontier.md)",
    )
    p.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=[8.0, 24.0, 48.0, 96.0],
        help="offered loads in req/s (default: %(default)s)",
    )
    p.add_argument(
        "--policies",
        nargs="+",
        default=["round-robin", "least-loaded", "session-affinity", "slo-aware"],
        choices=["round-robin", "least-loaded", "session-affinity", "slo-aware"],
        help="routing policies to sweep (default: all four)",
    )
    p.add_argument("--duration", type=float, default=30.0)
    p.add_argument(
        "--servers", type=int, default=4, help="cluster size (default: %(default)s)"
    )
    p.add_argument(
        "--workload",
        choices=["steady", "diurnal", "flash", "regions"],
        default="diurnal",
        help="arrival-rate shape / tenant mix (default: %(default)s)",
    )
    p.add_argument(
        "--out",
        metavar="frontier.json",
        help="also write the full sweep as JSON",
    )
    p.add_argument(
        "--cache-dir",
        default=".aqua-cache",
        metavar="DIR",
        help="content-addressed run cache location (default: %(default)s)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every frontier cell, bypassing the run cache",
    )
    _add_jobs_argument(p)
    return parser


def main(argv=None) -> int:
    from contextlib import ExitStack

    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in (None, "list"):
        for name in sorted(COMMANDS):
            print(name)
        return 0
    # resilience/observe thread the uniform flags through their
    # experiments themselves; every other command gets ambient captures
    # wrapped around the run (see capture_trace/capture_observability).
    ambient = args.command not in ("resilience", "observe")
    trace_path = getattr(args, "trace", None) if ambient else None
    scrape_interval = (
        _resolve_scrape_interval(args)
        if ambient and hasattr(args, "scrape_interval")
        else None
    )
    obs_spec = None
    with ExitStack() as stack:
        if trace_path:
            from repro.telemetry import capture_trace

            stack.enter_context(capture_trace(trace_path))
        if scrape_interval is not None:
            from repro.telemetry import capture_observability
            from repro.telemetry.slo import default_slo_policy

            obs_spec = stack.enter_context(
                capture_observability(
                    scrape_interval=scrape_interval,
                    slo_policy=default_slo_policy(),
                )
            )
        rc = COMMANDS[args.command](args)
    if trace_path:
        print(f"trace written to {trace_path}")
    if obs_spec is not None:
        hubs = obs_spec["hubs"]
        if not hubs:
            print(
                "observability: no rig ran in-process (pooled commands "
                "need --jobs 1 for --scrape-interval/--dashboard)"
            )
        else:
            # Several rigs may have adopted the spec (multi-system
            # figures); summarise and chart the busiest one.
            from repro.telemetry.dashboard import dashboard_data

            hub = max(hubs, key=lambda h: h.scraper.scrapes)
            _print_observability(
                hub.observability_report(),
                args.dashboard,
                dashboard_data(hub, title=f"aqua-repro {args.command}"),
            )
    return int(rc or 0)


if __name__ == "__main__":
    sys.exit(main())
