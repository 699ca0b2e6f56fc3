"""Run the repository benchmark.

Full protocol (7 interleaved rounds of the four workloads, then one
traced run per workload)::

    python3 bench/run.py --seed 0 [--out DIR]

One measurement of one workload, for ``--seconds`` seconds; the last
line of standard output is one JSON result (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``)::

    python3 bench/run.py --workload chat --seed 0 --seconds 25 --trace 0

Every run is a fresh ``bench/child.py`` interpreter, one at a time,
with single-threaded BLAS.  With ``--out`` the command writes
``results.json`` and one ``trace-<workload>.json`` per traced run.  It
exits non-zero when any run fails or any output check breaks.
See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
if not __package__:
    # Run as a script: import the bench as a package, since its ``trace``
    # module would otherwise shadow the stdlib one.
    sys.path[0] = str(ROOT)

from bench.trace import LAYERS, ROOT_LAYER  # noqa: E402

#: Workloads in the fixed order every round runs them.
WORKLOAD_NAMES = ("chat", "offload", "observed", "frontier")

END_TO_END_UNITS = {
    "sim_s_per_wall_s": "sim_s/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: Counters read off the simulator's public objects after a run.
COUNTER_UNITS = {
    "sim.events": "count",
    "serving.tokens": "count",
    "serving.completed": "count",
    "serving.ttft_p50_s": "sim_s",
    "serving.ttft_p99_s": "sim_s",
    "serving.preemptions": "count",
    "hardware.transfers": "count",
    "hardware.transfer_gib": "GiB",
    "hardware.link_busy_s": "sim_s",
    "aqua.offloaded_fast_gib": "GiB",
    "aqua.offloaded_dram_gib": "GiB",
    "routing.offered": "count",
    "routing.completed": "count",
    "routing.shed": "count",
    "routing.goodput_rps": "1/sim_s",
}

PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS + (ROOT_LAYER,)},
    **{f"{layer}.self_frac": "frac" for layer in LAYERS + (ROOT_LAYER,)},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **COUNTER_UNITS,
    "sim.wall_us_per_event": "us",
    "trace.overhead_x": "x",
}

ROUNDS = 7
#: Fewest untraced runs behind one ``--trace 0`` measurement.
MIN_RUNS = 3
CHILD_TIMEOUT_S = 120
#: Self times must add up to the traced wall time within this share.
PARTITION_TOLERANCE = 0.01
EXPECTED = BENCH / "expected.json"


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------
def run_child(workload: str, seed: int, traced: bool = False, trace_out=None) -> dict:
    """Run ``bench/child.py`` once; return its result, or ``{"error": ...}``."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s", "elapsed_s": CHILD_TIMEOUT_S}
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"error": f"exit code {proc.returncode}: {tail}", "elapsed_s": elapsed}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": "no JSON result on stdout", "elapsed_s": elapsed}
    result["elapsed_s"] = elapsed
    return result


def run_problems(result: dict, reference: str | None, traced: bool) -> list[str]:
    """What is wrong with one run: crash, broken invariant, changed outputs
    or (when traced) an empty or non-partitioning trace."""
    if "error" in result:
        return [result["error"]]
    problems = list(result["invariant_failures"])
    if reference is not None and result["fingerprint"] != reference:
        problems.append(f"fingerprint {result['fingerprint'][:12]} != {reference[:12]}")
    if traced:
        trace = result.get("trace", {"spans_total": 0, "self_s": {}, "wall_s": 0.0})
        if trace["spans_total"] <= 1:
            problems.append("trace has no spans")
        covered = sum(trace["self_s"].values())
        if abs(covered - trace["wall_s"]) > PARTITION_TOLERANCE * trace["wall_s"]:
            problems.append(
                f"layer self times sum to {covered:.6f} s of {trace['wall_s']:.6f} s traced"
            )
    return problems


class Ledger:
    """Runs of one workload, their failures and the reference fingerprint."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.untraced: list[dict] = []
        self.traced: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.fingerprint: str | None = None

    def add(self, result: dict, traced: bool = False) -> bool:
        """Record one run; return whether it passed every check."""
        self.attempted += 1
        label = f"{self.workload} run {self.attempted}" + (" (traced)" if traced else "")
        problems = run_problems(result, self.fingerprint, traced)
        if problems:
            self.failed += 1
            self.failures += [f"{label}: {p}" for p in problems]
            return False
        if self.fingerprint is None:
            self.fingerprint = result["fingerprint"]
        if traced:
            self.traced = result
        else:
            self.untraced.append(result)
        return True


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def end_to_end(runs: list[dict]) -> dict:
    """Medians of the untraced runs."""
    values = {
        "sim_s_per_wall_s": [r["sim_s"] / r["run_s"] for r in runs],
        "setup_s": [r["setup_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    return {
        name: {"value": statistics.median(vals), "unit": END_TO_END_UNITS[name], "runs": vals}
        for name, vals in values.items()
    }


def per_layer(traced: dict, runs: list[dict]) -> dict:
    """Layer self times and calls from the traced run; counters and
    host cost per event from the untraced runs."""
    trace = traced["trace"]
    values = {}
    for layer in LAYERS + (ROOT_LAYER,):
        self_s = trace["self_s"].get(layer, 0.0)
        values[f"{layer}.self_s"] = self_s
        values[f"{layer}.self_frac"] = self_s / trace["wall_s"]
        if layer != ROOT_LAYER:
            values[f"{layer}.calls"] = trace["calls"].get(layer, 0)
    outputs = runs[0]["outputs"]
    values.update({name: outputs[name] for name in COUNTER_UNITS})
    run_s = statistics.median(r["run_s"] for r in runs)
    values["sim.wall_us_per_event"] = run_s / outputs["sim.events"] * 1e6
    untraced_total = statistics.median(r["setup_s"] + r["run_s"] for r in runs)
    values["trace.overhead_x"] = (traced["setup_s"] + traced["run_s"]) / untraced_total
    return {name: {"value": values[name], "unit": PER_LAYER_UNITS[name]} for name in PER_LAYER_UNITS}


def pinned_fingerprint(seed: int, workload: str) -> str | None:
    pinned = json.loads(EXPECTED.read_text())
    return pinned.get(str(seed), {}).get(workload)


def summarize(ledger: Ledger, seed: int) -> dict:
    """A workload's block of ``results.json``."""
    pinned = pinned_fingerprint(seed, ledger.workload)
    block = {
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failed_frac": {"value": ledger.failed / max(ledger.attempted, 1), "unit": "failed/attempted"},
        "failures": ledger.failures,
        "fingerprint": ledger.fingerprint,
        "outputs_match": None if pinned is None else ledger.fingerprint == pinned,
    }
    if ledger.untraced:
        block["end_to_end"] = end_to_end(ledger.untraced)
        if ledger.traced is not None:
            block["per_layer"] = per_layer(ledger.traced, ledger.untraced)
    return block


def print_block(workload: str, block: dict) -> None:
    match = block["outputs_match"]
    print(f"== {workload}: {block['attempted']} runs, {block['failed']} failed ==")
    for section in ("end_to_end", "per_layer"):
        for name, metric in block.get(section, {}).items():
            value = metric["value"]
            text = f"{value:.6g}" if isinstance(value, float) else str(value)
            print(f"  {name:<28} {text:>14}  {metric['unit']}")
    print(f"  {'failed_frac':<28} {block['failed_frac']['value']:>14.6g}  failed/attempted")
    print(f"  {'outputs_match':<28} {'n/a' if match is None else str(match).lower():>14}")
    for failure in block["failures"]:
        print(f"  FAILED {failure}")


def host_info(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def write_results(out: Path | None, results: dict) -> None:
    if out is not None:
        (out / "results.json").write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------
def full_protocol(seed: int, out: Path | None) -> int:
    ledgers = {name: Ledger(name) for name in WORKLOAD_NAMES}
    for round_no in range(1, ROUNDS + 1):
        for name in WORKLOAD_NAMES:
            ledgers[name].add(run_child(name, seed))
        print(f"round {round_no}/{ROUNDS} done", file=sys.stderr, flush=True)
    for name in WORKLOAD_NAMES:
        trace_out = out / f"trace-{name}.json" if out is not None else None
        ledgers[name].add(run_child(name, seed, traced=True, trace_out=trace_out), traced=True)

    blocks = {name: summarize(ledger, seed) for name, ledger in ledgers.items()}
    for name, block in blocks.items():
        print_block(name, block)
    failures = [f for block in blocks.values() for f in block["failures"]]
    write_results(
        out,
        {**host_info(seed), "rounds": ROUNDS, "correct": not failures, "workloads": blocks},
    )
    print("FAILED" if failures else "OK")
    return 1 if failures else 0


def one_measurement(workload: str, seed: int, seconds: float, traced: bool, out: Path | None) -> int:
    ledger = Ledger(workload)
    deadline = time.perf_counter() + seconds
    if traced:
        trace_out = out / f"trace-{workload}.json" if out is not None else None
        ledger.add(run_child(workload, seed, traced=True, trace_out=trace_out), traced=True)
    # Start another run only while it is expected to end by the deadline.
    min_runs = 1 if traced else MIN_RUNS
    runs = 0
    last = 0.0
    while runs < min_runs or time.perf_counter() + last <= deadline:
        result = run_child(workload, seed)
        runs += 1
        last = result["elapsed_s"]
        ledger.add(result)

    block = summarize(ledger, seed)
    print_block(workload, block)
    write_results(out, {**host_info(seed), "correct": not ledger.failures, "workloads": {workload: block}})
    section = "per_layer" if traced else "end_to_end"
    metrics = {
        name: {"value": metric["value"], "unit": metric["unit"]}
        for name, metric in block.get(section, {}).items()
    }
    correct = not ledger.failures and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0; seed 1 is held out for verifying claims)")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="measure one workload instead of running the full protocol")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="with --workload: how long to keep starting runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports per-layer instead of end-to-end metrics")
    parser.add_argument("--out", type=Path, help="write results.json and Chrome traces here")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        args.out = args.out.resolve()
    if args.workload is None:
        return full_protocol(args.seed, args.out)
    return one_measurement(args.workload, args.seed, args.seconds, bool(args.trace), args.out)


if __name__ == "__main__":
    sys.exit(main())
