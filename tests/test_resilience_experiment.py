"""End-to-end acceptance tests for the resilience experiment.

The documented scenario (``docs/resilience.md``) must keep holding:
zero dropped requests, backoff retries visible in the trace, and
goodput back within 5% of the fault-free control run after the faults
clear.
"""

import pytest

from repro.experiments.resilience import default_fault_schedule, resilience_experiment
from repro.faults import FaultSchedule
from repro.telemetry import Observation, observing


@pytest.fixture(scope="module")
def traced():
    """The default scenario, traced: its result and the faulted rig's
    exported trace events."""
    with observing(Observation(trace=True)) as exports:
        result = resilience_experiment()
    (faulted,) = [e for e in exports if e["name"].startswith("faulted/")]
    return result, faulted["trace"]


@pytest.fixture(scope="module")
def result(traced):
    return traced[0]


@pytest.mark.slow
def test_no_request_is_dropped(result):
    assert result["dropped_requests"] == 0
    assert result["tokens_total"] > 0


@pytest.mark.slow
def test_retries_are_visible_in_the_trace(traced):
    result, events = traced
    assert result["retries"] > 0
    instants = [e for e in events if e["ph"] == "i"]
    assert sum(e["name"] == "aqua-retry" for e in instants) == result["retries"]
    # The injector's apply/clear markers are on the trace too.
    tracks = {e["tid"]: e["args"]["name"] for e in events if e["name"] == "thread_name"}
    fault_instants = [e for e in instants if tracks[e["tid"]] == "faults"]
    assert len(fault_instants) >= 2 * len(default_fault_schedule())


@pytest.mark.slow
def test_gpu_failure_costs_a_requeue_not_a_drop(result):
    assert result["requeues"] >= 1
    assert result["lost_tensors"] >= 1


@pytest.mark.slow
def test_goodput_recovers_within_5_percent_of_control(result):
    assert result["recovery_time_s"] is not None
    assert result["recovery_time_s"] <= 10.0
    assert result["post_fault_goodput_ratio"] >= 0.95


@pytest.mark.slow
def test_fault_log_matches_schedule(result):
    schedule = default_fault_schedule()
    applies = {e["event"]: e["t"] for e in result["fault_log"] if "apply" in e["event"]}
    clears = {e["event"]: e["t"] for e in result["fault_log"] if "clear" in e["event"]}
    for fault in schedule:
        assert applies[f"{fault.kind}:apply"] == fault.at
        assert clears[f"{fault.kind}:clear"] == fault.at + fault.duration


@pytest.mark.slow
def test_resilience_experiment_is_deterministic():
    """Fault runs are as bit-identical as fault-free ones."""
    a = resilience_experiment(duration=60.0)
    b = resilience_experiment(duration=60.0)
    assert a["goodput_tokens_per_s"] == b["goodput_tokens_per_s"]
    assert a["retries"] == b["retries"]
    assert a["fault_log"] == b["fault_log"]


@pytest.mark.slow
def test_empty_schedule_matches_control():
    """With no faults the 'faulted' run IS the control run."""
    result = resilience_experiment(schedule=FaultSchedule(), duration=60.0)
    assert result["goodput_tokens_per_s"] == result["control_goodput_tokens_per_s"]
    assert result["retries"] == 0
    assert result["requeues"] == 0
    assert result["recovery_time_s"] == 0.0
