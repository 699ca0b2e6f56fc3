"""Tests of the benchmark itself: ``python -m pytest bench -q``.

They cover the tracer's accounting, every workload at a tiny size, the
metric names ``BENCHMARK.json`` promises, and the refusal to run without
the simulator's sources.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from bench import child, workloads
from bench import run as bench_run
from bench.trace import ROOT_LAYER, Tracer, layer_classifier

ROOT = Path(__file__).resolve().parent.parent

#: Sizes small enough for a unit test that still satisfy every invariant
#: (the observed horizon must pass the stall at 12-14 s).
TINY = {
    "chat": {"requests": 30},
    "offload": {"horizon": 20.0},
    "observed": {"requests": 20, "horizon": 20.0},
    "frontier": {"duration": 30.0},
}


# ---------------------------------------------------------------------------
# Tracer accounting
# ---------------------------------------------------------------------------
SYNTHETIC = {
    # sim drives a serving generator; each resume is an entry into serving.
    "repro/sim/loop.py": """
        def drive(make_steps, n):
            return sum(make_steps(n))
    """,
    # serving reaches memory through a helper that belongs to no layer.
    "repro/serving/engine.py": """
        def steps(n, via, alloc):
            for i in range(n):
                yield via(alloc, i)
    """,
    "helpers.py": """
        def via(fn, x):
            return fn(x)
    """,
    "repro/memory/kv.py": """
        def alloc(i):
            return same_layer(i) + 1

        def same_layer(i):
            return i
    """,
}


def _load(tmp_path: Path) -> dict:
    """Write the synthetic modules and load them; return their namespaces."""
    namespaces = {}
    for relpath, source in SYNTHETIC.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        namespace: dict = {}
        exec(compile(path.read_text(), str(path), "exec"), namespace)
        namespaces[relpath] = namespace
    return namespaces


def _traced_chain(tmp_path: Path, n: int) -> tuple[Tracer, int]:
    mods = _load(tmp_path)
    drive = mods["repro/sim/loop.py"]["drive"]
    steps = mods["repro/serving/engine.py"]["steps"]
    via = mods["helpers.py"]["via"]
    alloc = mods["repro/memory/kv.py"]["alloc"]
    ticks = itertools.count()
    tracer = Tracer(layer_classifier(str(tmp_path / "repro")), clock=lambda: next(ticks))
    tracer.start()
    total = drive(lambda k: steps(k, via, alloc), n)
    tracer.stop()
    return tracer, total


def test_self_times_partition_the_traced_interval(tmp_path):
    tracer, total = _traced_chain(tmp_path, n=5)
    assert total == sum(i + 1 for i in range(5))
    # An integer clock makes the arithmetic exact.
    assert sum(tracer.self_s.values()) == tracer.wall_s
    assert set(tracer.self_s) == {ROOT_LAYER, "sim", "serving", "memory"}
    assert all(value >= 0 for value in tracer.self_s.values())


def test_spans_open_at_layer_boundaries_with_correct_parents(tmp_path):
    tracer, _ = _traced_chain(tmp_path, n=5)
    # One sim entry; six serving resumes (five yields and the final
    # return); five memory entries, the same-layer helper opening none.
    assert tracer.calls == {ROOT_LAYER: 1, "sim": 1, "serving": 6, "memory": 5}
    spans = {span[0]: span for span in tracer.spans}
    assert len(spans) == tracer.span_count == 13
    layer = {span_id: span[1] for span_id, span in spans.items()}
    for span_id, span_layer, code, start, end, parent in spans.values():
        assert start <= end
        expected_parent_layer = {
            ROOT_LAYER: None, "sim": ROOT_LAYER, "serving": "sim", "memory": "serving",
        }[span_layer]
        assert layer.get(parent) == expected_parent_layer
        if parent in spans:  # a child lies inside its parent
            assert spans[parent][3] <= start and end <= spans[parent][4]
    names = {f"{s[1]}:{s[2].co_name}" for s in spans.values() if s[2] is not None}
    assert names == {"sim:drive", "serving:steps", "memory:alloc"}


def test_chrome_trace_keeps_a_prefix_of_spans(tmp_path):
    mods = _load(tmp_path)
    tracer = Tracer(layer_classifier(str(tmp_path / "repro")), max_spans=4)
    tracer.start()
    mods["repro/sim/loop.py"]["drive"](
        lambda k: mods["repro/serving/engine.py"]["steps"](
            k, mods["helpers.py"]["via"], mods["repro/memory/kv.py"]["alloc"]
        ),
        5,
    )
    tracer.stop()
    doc = tracer.chrome_trace()
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert [e["args"]["id"] for e in spans] == [0, 1, 2, 3]
    assert all(e["args"]["parent"] < e["args"]["id"] for e in spans)
    assert doc["otherData"]["spans_total"] == 13


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", bench_run.WORKLOAD_NAMES)
def test_workload_is_deterministic_and_correct(name):
    first = workloads.WORKLOADS[name](0, **TINY[name])()
    second = workloads.WORKLOADS[name](0, **TINY[name])()
    assert workloads.fingerprint(first) == workloads.fingerprint(second)
    assert workloads.INVARIANTS[name](first) == []
    assert first["sim.events"] > 0


@pytest.mark.parametrize("name", ["chat", "observed", "frontier"])
def test_seed_reaches_the_generators(name):
    outputs = [workloads.WORKLOADS[name](seed, **TINY[name])() for seed in (0, 1)]
    assert workloads.fingerprint(outputs[0]) != workloads.fingerprint(outputs[1])


def test_invariants_catch_broken_outputs():
    out = workloads.WORKLOADS["chat"](0, **TINY["chat"])()
    out["serving.completed"] -= 1
    assert workloads.INVARIANTS["chat"](out)


# ---------------------------------------------------------------------------
# Results and the metric contract
# ---------------------------------------------------------------------------
def test_results_carry_every_benchmark_metric_with_its_unit(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ledger = bench_run.Ledger("observed")
    for traced in (False, True):
        ledger.add(
            child.measure("observed", 0, time.perf_counter(), traced=traced, **TINY["observed"]),
            traced=traced,
        )
    assert ledger.failures == []
    bench_run.write_results(
        tmp_path, {"workloads": {"observed": bench_run.summarize(ledger, seed=0)}}
    )
    block = json.loads((tmp_path / "results.json").read_text())["workloads"]["observed"]
    for section in ("end_to_end", "per_layer"):
        promised = {m["name"]: m["unit"] for m in spec[section]}
        reported = {name: m["unit"] for name, m in block[section].items()}
        assert reported == promised, section
    assert block["per_layer"]["telemetry.calls"]["value"] > 0


def test_changed_outputs_and_empty_traces_are_failures():
    ledger = bench_run.Ledger("chat")
    result = child.measure("chat", 0, time.perf_counter(), **TINY["chat"])
    assert ledger.add(result)
    assert not ledger.add(dict(result, fingerprint="0" * 64))
    assert not ledger.add(result, traced=True)  # a traced run without spans
    assert ledger.failed == 2
    assert "fingerprint" in ledger.failures[0]
    assert "(traced): trace has no spans" in ledger.failures[1]


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out")
    )
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chat", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
