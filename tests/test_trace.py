"""Tests for the tracing module and its engine integration."""

import json

import pytest

from repro.hardware import Server
from repro.models import CODELLAMA_34B, MISTRAL_7B
from repro.serving import CFSEngine, Request, VLLMEngine
from repro.sim import Environment
from repro.telemetry import Telemetry
from repro.trace import Tracer
from repro.workloads.arrivals import submit_all


# ---------------------------------------------------------------------------
# Tracer primitives
# ---------------------------------------------------------------------------
def test_add_span_and_queries():
    tracer = Tracer()
    tracer.add_span("work", "t0", 1.0, 3.0, batch=4)
    tracer.add_span("work", "t0", 5.0, 6.0)
    tracer.add_span("other", "t1", 0.0, 1.0)
    assert [s.duration for s in tracer.spans_on("t0")] == [2.0, 1.0]
    assert len(tracer.spans_on("t1")) == 1
    assert len(tracer) == 3


def test_span_end_before_start_rejected():
    tracer = Tracer()
    with pytest.raises(ValueError):
        tracer.add_span("bad", "t", 2.0, 1.0)


def test_span_context_manager_uses_clock():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])
    with tracer.span("step", "engine"):
        now[0] = 2.5
    (span,) = tracer.spans
    assert span.start == 0.0
    assert span.end == 2.5


def test_instant_requires_clock_or_time():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        tracer.add_instant("x", "t")
    tracer.add_instant("x", "t", time=1.0)
    assert tracer.instants[0].time == 1.0


def test_utilization_merges_overlaps():
    tracer = Tracer()
    tracer.add_span("a", "t", 0.0, 4.0)
    tracer.add_span("b", "t", 2.0, 6.0)  # overlaps a
    assert tracer.utilization("t", 0.0, 10.0) == pytest.approx(0.6)
    assert tracer.utilization("t", 0.0, 6.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        tracer.utilization("t", 5.0, 5.0)


def test_utilization_clips_to_window():
    tracer = Tracer()
    tracer.add_span("a", "t", -5.0, 100.0)
    assert tracer.utilization("t", 0.0, 10.0) == pytest.approx(1.0)


def test_utilization_nested_and_partially_clipped_spans():
    tracer = Tracer()
    tracer.add_span("outer", "t", 1.0, 9.0)
    tracer.add_span("inner", "t", 2.0, 4.0)   # fully nested: no extra coverage
    tracer.add_span("tail", "t", 8.0, 15.0)   # straddles the window edge
    tracer.add_span("elsewhere", "u", 0.0, 100.0)  # other track: ignored
    # Covered within [0, 10): [1, 9] ∪ [8, 10) = 9 of 10 seconds.
    assert tracer.utilization("t", 0.0, 10.0) == pytest.approx(0.9)
    # A window entirely inside one span is fully utilized.
    assert tracer.utilization("t", 2.0, 3.0) == pytest.approx(1.0)
    # A window beyond every span is idle.
    assert tracer.utilization("t", 20.0, 30.0) == 0.0


def test_span_context_manager_annotates_errors():
    """A body that raises still gets its span, tagged with the error type."""
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])
    with pytest.raises(KeyError):
        with tracer.span("step", "engine", batch=2):
            now[0] = 1.5
            raise KeyError("boom")
    (span,) = tracer.spans
    assert span.start == 0.0 and span.end == 1.5
    assert span.args == {"error": "KeyError", "batch": 2}
    # The non-raising path stays unannotated.
    with tracer.span("ok", "engine"):
        now[0] = 2.0
    assert "error" not in tracer.spans[-1].args


def test_chrome_export_roundtrip(tmp_path):
    tracer = Tracer()
    tracer.add_span("work", "engine", 1.0, 2.0, batch=3)
    tracer.add_instant("reclaim", "aqua", time=1.5)
    path = tmp_path / "trace.json"
    tracer.export_json(str(path))
    data = json.loads(path.read_text())
    events = data["traceEvents"]
    kinds = {e["ph"] for e in events}
    assert kinds == {"M", "X", "i"}
    x = next(e for e in events if e["ph"] == "X")
    assert x["ts"] == 1.0e6 and x["dur"] == 1.0e6
    assert x["args"] == {"batch": 3}


def test_chrome_export_full_roundtrip(tmp_path):
    """Every span and instant survives the trip through the JSON file,
    with times in microseconds, args intact, and one thread-name
    metadata record per track mapping tids back to track names."""
    tracer = Tracer()
    tracer.add_span("prefill", "engine", 0.0, 0.5, tokens=100)
    tracer.add_span("decode", "engine", 0.5, 0.75)
    tracer.add_instant("dma-stall:apply", "faults", time=20.0,
                       targets=["nvlink:gpu1->gpu0"])
    tracer.add_instant("aqua-retry", "faults", time=20.05, attempt=1)
    path = tmp_path / "trace.json"
    tracer.export_json(str(path))
    events = json.loads(path.read_text())["traceEvents"]

    tid_to_track = {
        e["tid"]: e["args"]["name"] for e in events if e["ph"] == "M"
    }
    assert sorted(tid_to_track.values()) == ["engine", "faults"]

    spans = [e for e in events if e["ph"] == "X"]
    assert [(s["name"], s["ts"], s["dur"]) for s in spans] == [
        ("prefill", 0.0, 0.5e6), ("decode", 0.5e6, 0.25e6)
    ]
    assert all(tid_to_track[s["tid"]] == "engine" for s in spans)

    instants = [e for e in events if e["ph"] == "i"]
    assert [(i["name"], i["ts"]) for i in instants] == [
        ("dma-stall:apply", 20.0e6), ("aqua-retry", 20.05e6)
    ]
    assert instants[0]["args"] == {"targets": ["nvlink:gpu1->gpu0"]}
    assert all(i["s"] == "t" for i in instants)  # thread-scoped instants
    assert all(tid_to_track[i["tid"]] == "faults" for i in instants)


def test_chrome_export_empty_tracer(tmp_path):
    path = tmp_path / "empty.json"
    Tracer().export_json(str(path))
    assert json.loads(path.read_text()) == {"traceEvents": []}


def test_track_ids_stable_across_repeated_exports():
    """Exporting twice (or adding events between exports) must never
    re-number existing tracks — tids are how Perfetto correlates."""
    tracer = Tracer()
    tracer.add_span("a", "engine", 0.0, 1.0)
    tracer.add_span("b", "link", 0.0, 1.0)
    first = {
        e["args"]["name"]: e["tid"]
        for e in tracer.to_chrome_events()
        if e["ph"] == "M"
    }
    tracer.add_span("c", "aqua", 1.0, 2.0)  # new track appears later
    second = {
        e["args"]["name"]: e["tid"]
        for e in tracer.to_chrome_events()
        if e["ph"] == "M"
    }
    assert second["engine"] == first["engine"]
    assert second["link"] == first["link"]
    assert second["aqua"] not in (first["engine"], first["link"])
    # And a third export is byte-identical to the second.
    assert tracer.to_chrome_events() == tracer.to_chrome_events()


# ---------------------------------------------------------------------------
# Flow events and the critical path
# ---------------------------------------------------------------------------
def test_add_flow_validates_phase():
    tracer = Tracer()
    with pytest.raises(ValueError):
        tracer.add_flow("request", "engine", 1, "x", time=0.0)


def test_flow_export_format(tmp_path):
    tracer = Tracer()
    tracer.add_flow("request", "engine", 7, "s", time=1.0)
    tracer.add_flow("request", "link", 7, "t", time=2.0, nbytes=10)
    tracer.add_flow("request", "engine", 7, "f", time=3.0)
    path = tmp_path / "flows.json"
    tracer.export_json(str(path))
    events = json.loads(path.read_text())["traceEvents"]
    flows = [e for e in events if e["ph"] in ("s", "t", "f")]
    assert [f["ph"] for f in flows] == ["s", "t", "f"]
    assert all(f["cat"] == "flow" and f["id"] == 7 for f in flows)
    assert flows[1]["ts"] == 2.0e6 and flows[1]["args"] == {"nbytes": 10}
    # Only the finish event carries the enclosing-slice binding point.
    assert flows[2]["bp"] == "e"
    assert "bp" not in flows[0] and "bp" not in flows[1]
    assert len(tracer) == 3  # flows count toward the tracer's length


def test_critical_path_chains_innermost_spans():
    tracer = Tracer()
    tracer.add_span("iteration", "engine", 0.0, 10.0)   # outer envelope
    tracer.add_span("prefill", "engine", 1.0, 3.0)      # innermost at t=2
    tracer.add_span("dma", "link", 4.0, 6.0)
    tracer.add_span("decode", "engine", 7.0, 9.0)
    tracer.add_flow("request", "engine", 42, "s", time=2.0)
    tracer.add_flow("request", "link", 42, "t", time=5.0)
    tracer.add_flow("request", "engine", 42, "f", time=8.0)
    # An unrelated flow must not leak into the path.
    tracer.add_flow("request", "engine", 99, "s", time=2.5)

    path = tracer.critical_path(42)
    assert [(s.name, s.track) for s in path] == [
        ("prefill", "engine"), ("dma", "link"), ("decode", "engine")
    ]
    assert tracer.critical_path(12345) == []


def test_critical_path_orders_same_time_events_by_phase():
    tracer = Tracer()
    tracer.add_span("handoff", "a", 0.0, 2.0)
    tracer.add_span("pickup", "b", 2.0, 4.0)
    # Both events at t=2.0: the start (s) must come before the step (t).
    tracer.add_flow("request", "b", 1, "t", time=2.0)
    tracer.add_flow("request", "a", 1, "s", time=2.0)
    path = tracer.critical_path(1)
    assert [s.name for s in path] == ["handoff", "pickup"]


# ---------------------------------------------------------------------------
# Engine integration
# ---------------------------------------------------------------------------
def test_vllm_records_prefill_and_decode_spans():
    env = Environment()
    server = Server(env, n_gpus=1)
    tm = Telemetry(env)
    tracer = tm.tracer
    engine = VLLMEngine(server.gpus[0], server, MISTRAL_7B, telemetry=tm)
    engine.start()
    engine.submit(Request(arrival_time=0.0, prompt_tokens=100, max_new_tokens=20))
    env.run(until=30)
    names = {s.name for s in tracer.spans}
    assert names == {"prefill", "decode"}
    assert len([s for s in tracer.spans if s.name == "decode"]) == 19


def test_cfs_records_slices_and_switches():
    env = Environment()
    server = Server(env, n_gpus=1)
    tm = Telemetry(env)
    tracer = tm.tracer
    engine = CFSEngine(
        server.gpus[0], server, CODELLAMA_34B, slice_tokens=5, telemetry=tm
    )
    engine.start()
    requests = [
        Request(arrival_time=0.0, prompt_tokens=3000, max_new_tokens=30)
        for _ in range(16)
    ]
    submit_all(env, engine, requests)
    env.run(until=900)
    names = {s.name for s in tracer.spans}
    assert "slice" in names
    assert "context-switch" in names
    # Trace accounting agrees with the engine's own counter.
    switch_time = sum(
        s.duration for s in tracer.spans_on(engine.name) if s.name == "context-switch"
    )
    assert switch_time == pytest.approx(engine.context_switch_time)


def test_engine_without_tracer_records_nothing():
    env = Environment()
    server = Server(env, n_gpus=1)
    engine = VLLMEngine(server.gpus[0], server, MISTRAL_7B)
    engine.start()
    engine.submit(Request(arrival_time=0.0, prompt_tokens=50, max_new_tokens=5))
    env.run(until=10)
    assert engine.tracer is None  # and nothing crashed
