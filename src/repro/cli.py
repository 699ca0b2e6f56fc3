"""Command-line interface: run any paper experiment from the shell.

Every entry of :data:`repro.experiments.runall.EXPERIMENTS` without a
hand-written command here is a subcommand of the same name: its flags
are the cell's keyword parameters, and it prints the cell's table.

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
import inspect
import json
import sys
from typing import Callable

from repro.experiments import report
from repro.experiments.runall import EXPERIMENTS, run_all


def cmd_resilience(args) -> int:
    from repro.experiments.resilience import resilience_experiment
    from repro.faults import FaultSchedule

    schedule = FaultSchedule.from_file(args.faults) if args.faults else None
    result = resilience_experiment(
        schedule=schedule,
        duration=args.duration,
        audit=args.audit,
        jobs=args.jobs,
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

    if args.metrics:
        with open(args.metrics, "w") as fh:
            fh.write(result["prometheus"])
        print(f"metrics written to {args.metrics}")
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(rep, fh, indent=2)
        print(f"attribution report written to {args.report}")
    return 0


def cmd_all(args) -> None:
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
        print(evals.render_catalog(evals.get_claims()))
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


def cmd_frontier(args) -> int:
    """Cluster serving frontier: offered load vs goodput/SLO/shed."""
    from repro.experiments.frontier import frontier_sweep

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
    print(EXPERIMENTS["frontier"].render(sweep))
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


def _cell_params(name: str) -> dict[str, inspect.Parameter]:
    return dict(inspect.signature(EXPERIMENTS[name].cell).parameters)


def _cell_command(name: str) -> Callable:
    """Run experiment ``name``'s cell in-process with the parsed flags
    (not through the run cache) and print its table."""
    experiment = EXPERIMENTS[name]

    def command(args) -> None:
        params = {}
        for param in _cell_params(name):
            value = getattr(args, param)
            params[param] = tuple(value) if isinstance(value, list) else value
        print(experiment.render(experiment.cell(**params)))

    return command


#: The hand-written commands; every other ``EXPERIMENTS`` entry is a
#: generated command of the same name.
_HAND_WRITTEN: dict[str, Callable] = {
    "resilience": cmd_resilience,
    "observe": cmd_observe,
    "audit": cmd_audit,
    "all": cmd_all,
    "frontier": cmd_frontier,
    "replicate": cmd_replicate,
}
COMMANDS: dict[str, Callable] = {
    **{name: _cell_command(name) for name in EXPERIMENTS if name not in _HAND_WRITTEN},
    **_HAND_WRITTEN,
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


def _add_observation_arguments(
    parser: argparse.ArgumentParser,
) -> argparse.ArgumentParser:
    """``--trace`` / ``--scrape-interval`` / ``--dashboard``, for commands
    that build simulated rigs; :func:`main` observes every rig with them
    (see :func:`~repro.telemetry.observing`), in ``--jobs`` workers too."""
    parser.add_argument(
        "--trace", metavar="trace.json", help="write a Chrome trace of the run"
    )
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


def _observation(args):
    """The flags as an :class:`~repro.telemetry.Observation`;
    ``--dashboard`` without ``--scrape-interval`` implies 1 s scrapes."""
    from repro.telemetry import Observation

    if not hasattr(args, "trace"):
        return Observation()
    scrape_interval = args.scrape_interval
    if scrape_interval is None and args.dashboard:
        scrape_interval = 1.0
    return Observation(trace=bool(args.trace), scrape_interval=scrape_interval)


def _write_observation(args, exports: list[dict]) -> int:
    """Write the trace; summarise and chart the rig with the most
    scrapes.  Non-zero when a requested export came out empty."""
    from repro.telemetry import render_dashboard

    settings = _observation(args)
    failures = []
    if settings.trace:
        events = []  # one named pid per rig
        for pid, export in enumerate(exports, 1):
            name = {"name": export["name"]}
            events.append({"ph": "M", "name": "process_name", "pid": pid, "args": name})
            events += ({**event, "pid": pid} for event in export.get("trace", ()))
        with open(args.trace, "w") as fh:
            json.dump({"traceEvents": events}, fh)
        print(f"trace written to {args.trace}")
        if all(e["ph"] == "M" for e in events):
            failures.append("--trace recorded no events")
    scraped = [e["dashboard"] for e in exports if "dashboard" in e]
    if settings.scrape_interval is not None and not scraped:
        failures.append("no rig was scraped")
    if scraped:
        data = max(scraped, key=lambda d: d["scrape"]["scrapes"])
        alerts = data["slo"]["alerts"]
        print(f"SLO burn-rate alerts: {len(alerts)}")
        for alert in alerts:
            print(
                f"  t={alert['t']:7.2f}  {alert['slo']} [{alert['severity']}] "
                f"burn {alert['burn_long']:.1f}x/{alert['burn_short']:.1f}x"
            )
        for bundle in data["recorder"]["bundles"]:
            print(
                f"  post-mortem #{bundle['seq']} at t={bundle['t']:.2f} "
                f"({bundle['reason']}): {bundle.get('path', '(in memory)')}"
            )
        if args.dashboard:
            with open(args.dashboard, "w") as fh:
                fh.write(render_dashboard(data))
            print(f"dashboard written to {args.dashboard}")
    for failure in failures:
        print(f"aqua-repro {args.command}: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _add_cell_parser(sub, name: str) -> None:
    """A generated command's parser: one flag per keyword parameter of
    the cell (its default is the flag's), ``--jobs`` when the cell takes
    ``jobs``, and the observation flags when the cell builds rigs."""
    experiment = EXPERIMENTS[name]
    p = sub.add_parser(name, help=experiment.help)
    params = _cell_params(name)
    for param in params.values():
        if param.name == "jobs":
            continue
        default = param.default
        if isinstance(default, tuple):
            p.add_argument(
                f"--{param.name}", type=type(default[0]), nargs="+", default=list(default)
            )
        else:
            p.add_argument(f"--{param.name}", type=type(default), default=default)
    if experiment.rigs:
        _add_observation_arguments(p)
    if "jobs" in params:
        _add_jobs_argument(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aqua-repro",
        description="Reproduce the AQUA paper's figures on simulated hardware.",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")

    for name in EXPERIMENTS:
        if name not in _HAND_WRITTEN:
            _add_cell_parser(sub, name)

    p = sub.add_parser("resilience", help="goodput under injected faults")
    p.add_argument(
        "--faults",
        metavar="schedule.json",
        help="fault schedule JSON (default: the documented built-in scenario)",
    )
    p.add_argument("--duration", type=float, default=160.0)
    _add_observation_arguments(p)
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
    _add_observation_arguments(p)
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
    p.add_argument(
        "--list",
        action="store_true",
        help="print the claim catalog as docs/replication.md's table and exit",
    )
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
    from repro.telemetry import observing

    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in (None, "list"):
        for name in sorted(COMMANDS):
            print(name)
        return 0
    exports: list[dict] = []
    try:
        with observing(_observation(args), label=args.command) as exports:
            rc = int(COMMANDS[args.command](args) or 0)
    finally:  # a partial trace is what explains a failed command
        observed_rc = _write_observation(args, exports)
    return rc or observed_rc


if __name__ == "__main__":
    sys.exit(main())
