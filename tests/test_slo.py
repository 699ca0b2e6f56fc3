"""Unit tests for the SLO subsystem: objectives, burn rates, alerts.

Exercises the declarative pieces (:class:`SLObjective`,
:class:`BurnRateWindow`, :class:`SLOPolicy` and its dict round-trip —
the form policies take across pooled-worker process boundaries) and the
:class:`SLOTracker` behaviours the resilience experiment depends on:
multi-window burn-rate math, rising-edge alert firing, and the goodput
demand gating that keeps idle gaps and prefill from counting as
violations.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.telemetry import Telemetry
from repro.telemetry.slo import (
    DEFAULT_BURN_WINDOWS,
    BurnRateWindow,
    SLObjective,
    SLOPolicy,
    SLOTracker,
    default_slo_policy,
)


# ---------------------------------------------------------------------------
# Declarative pieces
# ---------------------------------------------------------------------------
def test_objective_validation():
    with pytest.raises(ValueError, match="unknown SLO metric"):
        SLObjective("x", "t", "throughput", 1.0)
    with pytest.raises(ValueError, match="target"):
        SLObjective("x", "t", "ttft", 1.0, target=1.0)
    with pytest.raises(ValueError, match="threshold"):
        SLObjective("x", "t", "ttft", 0.0)


def test_burn_window_validation():
    with pytest.raises(ValueError, match="windows"):
        BurnRateWindow(long_s=5.0, short_s=5.0, factor=2.0)
    with pytest.raises(ValueError, match="factor"):
        BurnRateWindow(long_s=10.0, short_s=1.0, factor=0.5)


def test_policy_rejects_duplicate_objective_names():
    o = SLObjective("dup", "t", "ttft", 1.0)
    with pytest.raises(ValueError, match="duplicate"):
        SLOPolicy(objectives=[o, o])


def test_policy_dict_round_trip():
    policy = default_slo_policy(goodput_floor=2.5)
    rebuilt = SLOPolicy.from_dict(policy.to_dict())
    assert rebuilt.name == policy.name
    assert list(rebuilt.objectives) == list(policy.objectives)
    assert list(rebuilt.windows) == list(policy.windows)


def test_default_policy_shape():
    policy = default_slo_policy(consumer="flexgen", producer="producer")
    assert [o.name for o in policy.objectives] == [
        "flexgen-goodput",
        "producer-ttft",
        "producer-tpot",
    ]
    assert tuple(policy.windows) == DEFAULT_BURN_WINDOWS


# ---------------------------------------------------------------------------
# Tracker: latency outcomes and burn-rate alerts
# ---------------------------------------------------------------------------
class _FakeRequest:
    """Just enough of a Request for latency judging."""

    def __init__(self, ttft=None, rct=None, generated_tokens=0):
        self.ttft = ttft
        self.rct = rct
        self.generated_tokens = generated_tokens


def _tracker(objective, windows=None, env=None):
    policy = SLOPolicy(
        objectives=[objective],
        windows=windows or [BurnRateWindow(long_s=10.0, short_s=2.0, factor=2.0)],
    )
    env = env or Environment()
    return env, SLOTracker(env, policy)


def test_latency_outcomes_respect_tenant_substring():
    env, tracker = _tracker(SLObjective("ttft", "producer", "ttft", 1.0, target=0.9))
    tracker.observe_request("producer-LLAMA2-13B", _FakeRequest(ttft=0.5))
    tracker.observe_request("producer-LLAMA2-13B", _FakeRequest(ttft=3.0))
    tracker.observe_request("flexgen-OPT-30B", _FakeRequest(ttft=9.0))  # other tenant
    state = tracker._states["ttft"]
    assert (state.good_total, state.bad_total) == (1, 1)


def test_tenant_matches_whole_name_parts_only():
    server1 = SLObjective("ttft:server1", "server1", "ttft", 1.0)
    assert server1.matches("server1")
    assert not server1.matches("server10")
    assert not server1.matches("server11")
    assert not server1.matches("xserver1")
    # The default two-tenant policy still covers the rigs' engine names.
    consumer, producer, _ = default_slo_policy().objectives
    for engine in ("flexgen-OPT-30B", "pair3-flexgen-OPT-30B"):
        assert consumer.matches(engine) and not producer.matches(engine)
    for engine in ("producer-LLAMA2-13B", "pair0-producer-LLAMA2-13B"):
        assert producer.matches(engine) and not consumer.matches(engine)
    # A later occurrence can match when an earlier one splits a word.
    assert SLObjective("x", "eng", "ttft", 1.0).matches("engine/eng")


def test_tpot_derived_from_first_and_last_token():
    env, tracker = _tracker(SLObjective("tpot", "eng", "tpot", 0.5, target=0.9))
    # 10 tokens over 4.5s of decode -> 0.5s/token exactly: on-threshold is good.
    tracker.observe_request("eng", _FakeRequest(ttft=1.0, rct=5.5, generated_tokens=10))
    # Single-token requests have no decode pace and are not judged.
    tracker.observe_request("eng", _FakeRequest(ttft=1.0, rct=1.0, generated_tokens=1))
    state = tracker._states["tpot"]
    assert (state.good_total, state.bad_total) == (1, 0)


def test_burn_rate_math_and_empty_window():
    env, tracker = _tracker(SLObjective("e2e", "eng", "e2e", 1.0, target=0.9))
    state = tracker._states["e2e"]
    budget = 0.1
    assert tracker._burn(state, now=0.0, window_s=10.0, budget=budget) is None
    # 2 bad out of 4 -> error rate 0.5 -> burn 5x budget.
    for t, good in [(1.0, True), (2.0, False), (3.0, True), (4.0, False)]:
        tracker._record_outcome(state, t, good)
    assert tracker._burn(state, now=4.0, window_s=10.0, budget=budget) == 5.0
    # Short trailing window only sees the last (bad) outcome: total burn.
    assert tracker._burn(state, now=4.0, window_s=0.5, budget=budget) == 10.0


def test_outcomes_must_arrive_in_time_order():
    env, tracker = _tracker(SLObjective("e2e", "eng", "e2e", 1.0, target=0.9))
    state = tracker._states["e2e"]
    tracker._record_outcome(state, 2.0, True)
    with pytest.raises(ValueError, match="precedes"):
        tracker._record_outcome(state, 1.0, True)


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.floats(0.0, 3.0),  # time advance
            st.lists(st.booleans(), max_size=12),  # outcomes at that time
            st.booleans(),  # scrape (prune) afterwards
        ),
        min_size=1,
        max_size=60,
    ),
    windows=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=4),
)
def test_windows_match_a_naive_walk_over_kept_outcomes(steps, windows):
    """``attainment`` and ``_burn`` agree with a plain walk over the
    outcomes a tracker keeps, however often pruning compacts them —
    including windows longer than the prune horizon."""
    objective = SLObjective("e2e", "eng", "e2e", 1.0, target=0.9)
    env, tracker = _tracker(
        objective, windows=[BurnRateWindow(long_s=10.0, short_s=2.0, factor=2.0)]
    )
    state = tracker._states["e2e"]
    kept = []  # (time, good), pruned exactly like the tracker's horizon
    now = 0.0
    for advance, outcomes, scrape in steps:
        now += advance
        for good in outcomes:
            tracker._record_outcome(state, now, good)
            kept.append((now, good))
        if scrape:
            tracker.on_scrape(now)
            kept = [(t, good) for t, good in kept if t >= now - 10.0]
        for window_s in windows + [10.0, 2.0]:
            in_window = [good for t, good in kept if t >= now - window_s]
            total, good = len(in_window), sum(in_window)
            expected = good / total if total else None
            assert tracker.attainment("e2e", window_s, now) == expected
            burn = tracker._burn(state, now, window_s, 0.1)
            assert burn == (((total - good) / total) / 0.1 if total else None)
    assert (state.good_total, state.bad_total) == (
        sum(good for _, outcomes, _ in steps for good in outcomes),
        sum(not good for _, outcomes, _ in steps for good in outcomes),
    )


def test_alert_fires_on_rising_edge_only():
    env, tracker = _tracker(
        SLObjective("e2e", "eng", "e2e", 1.0, target=0.9),
        windows=[BurnRateWindow(long_s=10.0, short_s=2.0, factor=2.0, severity="page")],
    )
    fired = []
    tracker.on_alert.append(fired.append)

    def run_to(t):
        env.run(until=t)

    # Saturate both windows with bad outcomes, then tick.
    run_to(5.0)
    for _ in range(4):
        tracker.observe_request("eng", _FakeRequest(rct=9.0))
    tracker.on_scrape(env.now)
    assert len(tracker.alerts) == 1
    alert = tracker.alerts[0]
    assert alert["severity"] == "page" and alert["slo"] == "e2e"
    assert alert["burn_long"] == pytest.approx(10.0)
    assert alert["burn_short"] == pytest.approx(10.0)
    assert fired == tracker.alerts

    # Still firing on the next tick: no duplicate alert (edge-triggered).
    run_to(6.0)
    tracker.observe_request("eng", _FakeRequest(rct=9.0))
    tracker.on_scrape(env.now)
    assert len(tracker.alerts) == 1

    # Recover (only good outcomes in the short window), then relapse:
    # the alert may fire again.
    run_to(9.0)
    for _ in range(20):
        tracker.observe_request("eng", _FakeRequest(rct=0.1))
    tracker.on_scrape(env.now)
    run_to(12.0)
    for _ in range(30):
        tracker.observe_request("eng", _FakeRequest(rct=9.0))
    tracker.on_scrape(env.now)
    assert len(tracker.alerts) == 2


def test_no_data_is_not_an_outage():
    """An idle tenant (no outcomes at all) must never alert."""
    env, tracker = _tracker(SLObjective("ttft", "eng", "ttft", 1.0, target=0.9))
    for t in (1.0, 2.0, 3.0):
        env.run(until=t)
        tracker.on_scrape(t)
    assert tracker.alerts == []
    # Attainment series records the optimistic 1.0 placeholder.
    state = tracker._states["ttft"]
    assert set(state.attainment.values) == {1.0}


# ---------------------------------------------------------------------------
# Goodput demand gating (needs a real hub for the engine counters)
# ---------------------------------------------------------------------------
class _Req:
    """Minimal request the hub's counters accept."""

    def __init__(self):
        self.ttft = None
        self.rct = None
        self.generated_tokens = 0
        self.done = False


def _goodput_rig(threshold=1.0):
    env = Environment()
    tm = Telemetry(env)
    policy = SLOPolicy(
        objectives=[SLObjective("gp", "eng", "goodput", threshold, target=0.9)],
        windows=[BurnRateWindow(long_s=10.0, short_s=2.0, factor=2.0)],
    )
    tracker = SLOTracker(env, policy, telemetry=tm)
    return env, tm, tracker


def test_goodput_not_judged_without_demand():
    """Idle gaps (no requests in flight) produce no outcomes at all."""
    env, tm, tracker = _goodput_rig()
    for t in (0.0, 1.0, 2.0):
        env.run(until=t)
        tracker.on_scrape(t)
    state = tracker._states["gp"]
    assert (state.good_total, state.bad_total) == (0, 0)


def test_goodput_not_judged_during_prefill():
    """In-flight but pre-first-token (prefill) is TTFT's problem, not
    goodput's: no tokens have ever streamed, so no outcome is recorded."""
    env, tm, tracker = _goodput_rig()
    tm.requests_submitted.labels(engine="eng-A").inc()
    tracker.on_scrape(0.0)
    env.run(until=1.0)
    tracker.on_scrape(1.0)
    state = tracker._states["gp"]
    assert (state.good_total, state.bad_total) == (0, 0)


def test_goodput_judges_stalled_and_healthy_decode():
    env, tm, tracker = _goodput_rig(threshold=2.0)
    tm.requests_submitted.labels(engine="eng-A").inc()
    tokens = tm.tokens_generated.labels(engine="eng-A")
    tracker.on_scrape(0.0)

    # Healthy interval: 3 tok/s >= 2.0 floor.
    env.run(until=1.0)
    tokens.inc(3.0)
    tracker.on_scrape(1.0)
    # Stalled decode: demand, tokens streamed before, none now -> bad.
    env.run(until=2.0)
    tracker.on_scrape(2.0)
    state = tracker._states["gp"]
    assert (state.good_total, state.bad_total) == (1, 1)

    # Request completes; the now-idle tenant is no longer judged.
    tm.requests_completed.labels(engine="eng-A").inc()
    env.run(until=3.0)
    tracker.on_scrape(3.0)
    assert (state.good_total, state.bad_total) == (1, 1)


def test_report_is_plain_data():
    env, tm, tracker = _goodput_rig()
    tracker.on_scrape(0.0)
    report = tracker.report()
    assert report["policy"]["name"] == tracker.policy.name
    assert report["alerts"] == []
    gp = report["objectives"]["gp"]
    assert gp["attainment_overall"] is None
    assert gp["attainment_series"]["times"] == [0.0]
    # Round-trippable through JSON (what pooled workers require).
    import json

    json.dumps(report)
