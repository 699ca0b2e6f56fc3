"""Unit tests for the flight recorder and the self-contained dashboard.

The recorder half covers ring bounds, the fault/alert triggers, the
capture cooldown, and on-disk post-mortem bundles.  The dashboard half
renders a real telemetered run (the ``observe`` rig with faults and a
scraper attached) and asserts the acceptance properties: one HTML file,
the expected sections, and **zero** external references — no URLs, no
script tags, nothing the CI self-containment check would flag.
"""

import json
import os

import pytest

from repro.experiments.observe import observe_experiment
from repro.sim import Environment
from repro.telemetry import FlightRecorder, Observation, Telemetry, observing
from repro.telemetry.dashboard import render_dashboard, write_dashboard


# ---------------------------------------------------------------------------
# FlightRecorder
# ---------------------------------------------------------------------------
def test_ring_is_bounded_and_counts_drops():
    rec = FlightRecorder(Environment(), capacity=3)
    for i in range(5):
        rec.record("note", i=i)
    assert len(rec.ring) == 3
    assert rec.dropped == 2
    assert [e["i"] for e in rec.ring] == [2, 3, 4]
    assert all(e["t"] == 0.0 and e["kind"] == "note" for e in rec.ring)


def test_capacity_validation():
    with pytest.raises(ValueError, match="capacity"):
        FlightRecorder(Environment(), capacity=0)


def test_fault_apply_triggers_bundle_clear_does_not():
    env = Environment()
    rec = FlightRecorder(env)
    rec.on_fault("dma-stall", "apply", targets=["nvlink-0"])
    assert len(rec.bundles) == 1
    bundle = rec.bundles[0]
    assert bundle["reason"] == "fault:dma-stall"
    assert bundle["context"]["targets"] == ["nvlink-0"]
    env.run(until=30.0)
    rec.on_fault("dma-stall", "clear", targets=["nvlink-0"])
    assert len(rec.bundles) == 1  # clearing is history, not an incident
    kinds = [e["kind"] for e in rec.ring]
    assert kinds == ["fault", "postmortem", "fault"]


def test_alert_hook_triggers_bundle():
    rec = FlightRecorder(Environment())
    rec.on_alert(
        {
            "slo": "flexgen-goodput",
            "severity": "ticket",
            "burn_long": 2.5,
            "burn_short": 4.0,
        }
    )
    assert rec.bundles[0]["reason"] == "slo:flexgen-goodput"
    entry = rec.ring[0]
    assert entry["kind"] == "slo-alert" and entry["severity"] == "ticket"


def test_min_gap_cooldown_suppresses_and_records():
    env = Environment()
    rec = FlightRecorder(env, min_gap=5.0)
    assert rec.trigger("first") is not None
    assert rec.trigger("storm") is None  # within the cooldown
    assert rec.suppressed == 1
    assert any(
        e["kind"] == "postmortem-suppressed" and e["reason"] == "storm"
        for e in rec.ring
    )
    env.run(until=6.0)
    assert rec.trigger("second") is not None
    assert [b["seq"] for b in rec.bundles] == [0, 1]


def test_bundles_dump_to_disk(tmp_path):
    env = Environment()
    rec = FlightRecorder(env, dump_dir=str(tmp_path), min_gap=0.0)
    rec.record("note", detail="before")
    rec.trigger("fault:test", extra=1)
    path = rec.bundles[0]["path"]
    assert os.path.basename(path) == "postmortem-000.json"
    with open(path) as fh:
        on_disk = json.load(fh)
    assert on_disk["schema"] == "aqua-postmortem/v1"
    assert on_disk["reason"] == "fault:test"
    assert on_disk["context"] == {"extra": 1}
    assert on_disk["ring"][0]["detail"] == "before"


def test_scrape_deltas_skip_quiet_ticks():
    env = Environment()
    tm = Telemetry(env)
    rec = FlightRecorder(env, telemetry=tm)
    counter = tm.tokens_generated.labels(engine="eng")
    counter.inc(0.0)
    rec.on_scrape(0.0)  # baseline
    rec.on_scrape(1.0)  # quiet: nothing moved
    counter.inc(5.0)
    rec.on_scrape(2.0)
    metric_entries = [e for e in rec.ring if e["kind"] == "metrics"]
    assert len(metric_entries) == 1
    (key, delta), = metric_entries[0]["deltas"].items()
    assert "tokens_generated" in key and delta == 5.0


def test_to_dict_is_json_safe():
    rec = FlightRecorder(Environment())
    rec.record("note")
    rec.trigger("x")
    out = rec.to_dict()
    json.dumps(out)
    assert out["capacity"] == rec.ring.maxlen
    assert len(out["bundles"]) == 1


# ---------------------------------------------------------------------------
# Dashboard (rendered from a real short telemetered run)
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def observe_result():
    """Dashboard data of the observe run, scraped every 0.5 s."""
    with observing(Observation(scrape_interval=0.5)) as exports:
        observe_experiment(duration=20.0)
    (export,) = exports
    return export["dashboard"]


def test_observe_result_carries_observability(observe_result):
    obs = observe_result
    assert obs["scrape"]["scrapes"] >= 39  # 20s at 0.5s intervals
    assert obs["scrape"]["series"]  # non-empty store
    assert "slo" in obs and "recorder" in obs
    # The injected DMA stall at t=12 must have left a post-mortem.
    reasons = [b["reason"] for b in obs["recorder"]["bundles"]]
    assert any(r.startswith("fault:") for r in reasons)


def test_dashboard_renders_expected_sections(observe_result):
    html = render_dashboard(observe_result)
    assert html.lstrip().startswith("<!DOCTYPE html>")
    for expected in (
        "Token throughput",
        "SLO attainment",
        "Latency attribution",
        "Post-mortems",
        "<svg",
        "prefers-color-scheme: dark",
        "<details>",  # accessible data tables behind the charts
    ):
        assert expected in html, f"dashboard missing {expected!r}"


def test_dashboard_is_self_contained(observe_result):
    """The CI gate in words: one file, no network, no scripts."""
    html = render_dashboard(observe_result)
    lowered = html.lower()
    assert "http" not in lowered
    assert "<script" not in lowered
    assert "@import" not in lowered
    assert 'src="' not in lowered


def test_write_dashboard_round_trip(tmp_path, observe_result):
    out = tmp_path / "dash.html"
    path = write_dashboard(str(out), observe_result)
    assert path == str(out)
    assert out.read_text() == render_dashboard(observe_result)


def test_dashboard_data_is_json_safe(observe_result):
    json.dumps(observe_result)
