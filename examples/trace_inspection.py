"""Observability: trace an engine's schedule and export a Chrome trace.

Attaches a :class:`repro.telemetry.Telemetry` hub to the server an AQUA
CFS engine runs on, under a bursty code-summary workload, then reads
the hub's tracer to report where the time went — prefill, decode
slices, context switches — and writes ``aqua_trace.json`` for chrome://tracing or
https://ui.perfetto.dev.

Run:  python examples/trace_inspection.py
"""

from repro.aqua import AquaLib, BatchInformer, Coordinator
from repro.experiments.report import format_table
from repro.hardware import Server
from repro.models import CODELLAMA_34B, KANDINSKY
from repro.serving import BatchEngine, CFSEngine
from repro.sim import Environment
from repro.telemetry import Telemetry
from repro.workloads import code_summary_requests
from repro.workloads.arrivals import submit_all

DURATION = 120.0
OUT = "aqua_trace.json"


def main() -> None:
    env = Environment()
    server = Server(env, n_gpus=2)
    coordinator = Coordinator()
    tm = Telemetry(env)
    tm.attach_server(server)

    consumer_lib = AquaLib(server.gpus[0], server, coordinator)
    producer_lib = AquaLib(server.gpus[1], server, coordinator, informer=BatchInformer())
    coordinator.pair(consumer_lib.name, producer_lib.name)

    producer = BatchEngine(server.gpus[1], server, KANDINSKY, aqua_lib=producer_lib)
    engine = CFSEngine(
        server.gpus[0],
        server,
        CODELLAMA_34B,
        use_aqua=True,
        aqua_lib=consumer_lib,
        slice_tokens=5,
        name="aqua-cfs",
    )
    producer.start()
    engine.start()
    env.run(until=1.0)

    requests = code_summary_requests(rate=4.0, count=60, seed=0, start=1.0)
    submit_all(env, engine, requests)
    env.run(until=DURATION)

    tracer = tm.tracer
    track = engine.name
    rows = []
    for activity in ("prefill", "slice", "context-switch"):
        spans = [s for s in tracer.spans_on(track) if s.name == activity]
        total = sum(s.duration for s in spans)
        rows.append(
            [activity, len(spans), total, f"{total / DURATION:.1%}"]
        )
    print(
        format_table(
            ["activity", "spans", "total_s", "of wall"],
            rows,
            title=f"Where {track} spent {DURATION:.0f}s (traced)",
        )
    )
    print(f"\nGPU-track utilization: {tracer.utilization(track, 0, DURATION):.1%}")

    tracer.export_json(OUT)
    print(f"Chrome trace written to {OUT} "
          f"({len(tracer)} events; open in chrome://tracing)")


if __name__ == "__main__":
    main()
