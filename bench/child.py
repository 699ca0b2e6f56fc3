"""One benchmark run in a fresh interpreter: set up, time, check, report.

    python3 bench/child.py --workload chat --seed 0 [--traced [--trace-out FILE]]

``bench/run.py`` starts this script once per run.  ``setup_s`` runs
from the top of this file, before ``repro`` is imported, until the
workload's rig is built and its trace submitted; the timed region
follows.  With ``--traced`` the layer tracer (``bench/trace.py``)
records from before ``repro`` is imported to the end of the timed
region; ``--trace-out`` writes its spans as a Chrome trace.

The last line of standard output is one JSON object: the timings, the
process's peak RSS, the simulated outputs, their fingerprint, any broken
invariants and, when traced, the per-layer accounting.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def measure(
    workload: str,
    seed: int,
    started: float,
    traced: bool = False,
    trace_out=None,
    **sizes,
) -> dict:
    """Set up and run one workload; ``started`` is when set-up began.

    ``sizes`` override the workload's size arguments (the bench's tests
    shrink them).
    """
    tracer = None
    if traced:
        from bench.trace import Tracer, layer_classifier

        tracer = Tracer(layer_classifier(str(ROOT / "src" / "repro"))).start()

    from bench import workloads

    run = workloads.WORKLOADS[workload](seed, **sizes)
    t1 = time.perf_counter()
    outputs = run()
    t2 = time.perf_counter()
    if tracer is not None:
        tracer.stop()

    result = {
        "workload": workload,
        "seed": seed,
        "setup_s": t1 - started,
        "run_s": t2 - t1,
        "sim_s": outputs["sim_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": outputs,
        "fingerprint": workloads.fingerprint(outputs),
        "invariant_failures": workloads.INVARIANTS[workload](outputs),
    }
    if tracer is not None:
        result["trace"] = {
            "wall_s": tracer.wall_s,
            "self_s": tracer.self_s,
            "calls": tracer.calls,
            "spans_total": tracer.span_count,
            "spans_written": len(tracer.spans),
        }
        if trace_out is not None:
            tracer.write(trace_out, {"workload": workload, "seed": seed})
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    result = measure(args.workload, args.seed, T0, args.traced, args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # Import the bench as a package (its ``trace`` module would otherwise
    # shadow the stdlib one) and the simulator from the source tree.
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    sys.exit(main())
