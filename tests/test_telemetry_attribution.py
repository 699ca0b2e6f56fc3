"""Tests for latency attribution: telescoping marks, carve-outs, reports."""

import math

import pytest

from repro.serving import Request
from repro.telemetry import COMPONENTS, LatencyAttributor


def _request(arrival=0.0, req_id=None):
    r = Request(arrival_time=arrival, prompt_tokens=10, max_new_tokens=5)
    return r


def _finish(request, first_token, finish, tokens=5):
    request.record_token(first_token)
    for _ in range(tokens - 1):
        request.record_token(finish)  # timestamps only matter for first/last
    request.finish_time = finish


def test_marks_partition_the_timeline():
    attr = LatencyAttributor()
    r = _request(arrival=1.0)
    attr.observe(r)
    attr.mark([r], "queueing", 2.0)
    attr.mark([r], "prefill_compute", 3.5)
    attr.mark([r], "decode_hbm", 6.0)
    _finish(r, first_token=3.5, finish=6.0)

    got = attr.breakdown(r)
    assert got["queueing"] == pytest.approx(1.0)
    assert got["prefill_compute"] == pytest.approx(1.5)
    assert got["decode_hbm"] == pytest.approx(2.5)
    assert got["other"] == 0.0
    # The headline invariant: components sum to rct exactly.
    assert sum(got.values()) == pytest.approx(r.rct, abs=1e-12)


def test_uncovered_tail_lands_in_other():
    attr = LatencyAttributor()
    r = _request(arrival=0.0)
    attr.observe(r)
    attr.mark([r], "prefill_compute", 1.0)
    _finish(r, first_token=1.0, finish=4.0)  # 3s nobody marked
    got = attr.breakdown(r)
    assert got["other"] == pytest.approx(3.0)
    assert sum(got.values()) == pytest.approx(r.rct)


def test_mark_past_finish_is_clipped():
    attr = LatencyAttributor()
    r = _request(arrival=0.0)
    attr.observe(r)
    attr.mark([r], "prefill_compute", 1.0)
    _finish(r, first_token=1.0, finish=2.0)
    # Decode bookkeeping that runs past the finish time: clipped, not dropped.
    attr.mark([r], "decode_hbm", 3.0)
    got = attr.breakdown(r)
    assert got["decode_hbm"] == pytest.approx(1.0)
    assert sum(got.values()) == pytest.approx(r.rct)


def test_contention_carved_from_next_fetch_mark():
    attr = LatencyAttributor()
    r = _request(arrival=0.0)
    attr.observe(r)
    attr.note_contention(r.req_id, 0.75)
    attr.mark([r], "offload_fetch", 2.0)
    _finish(r, first_token=2.0, finish=2.0)
    got = attr.breakdown(r)
    assert got["link_contention"] == pytest.approx(0.75)
    assert got["offload_fetch"] == pytest.approx(1.25)
    assert sum(got.values()) == pytest.approx(r.rct)


def test_contention_never_exceeds_the_fetch_segment():
    attr = LatencyAttributor()
    r = _request(arrival=0.0)
    attr.observe(r)
    attr.note_contention(r.req_id, 10.0)  # more than the segment holds
    attr.mark([r], "offload_fetch", 1.0)
    totals = attr.components_of(r)
    assert totals["link_contention"] == pytest.approx(1.0)
    assert totals["offload_fetch"] == 0.0
    # The excess stays pending for the next fetch segment.
    attr.mark([r], "offload_fetch", 3.0)
    totals = attr.components_of(r)
    assert totals["link_contention"] == pytest.approx(3.0)


def test_backwards_and_zero_width_marks_are_noops():
    attr = LatencyAttributor()
    r = _request(arrival=5.0)
    attr.observe(r)
    attr.mark([r], "queueing", 5.0)
    attr.mark([r], "queueing", 4.0)
    assert attr.components_of(r)["queueing"] == 0.0


def test_unknown_component_rejected():
    attr = LatencyAttributor()
    r = _request()
    with pytest.raises(ValueError):
        attr.mark([r], "gpu_naptime", 1.0)
    with pytest.raises(ValueError):
        attr.mark([], "gpu_naptime", 1.0)  # checked once, batch or not


def test_one_mark_covers_a_batch():
    """A batch mark closes each request's own segment: requests that
    arrived at different times get different spans, and one already
    marked past ``now`` is left alone."""
    attr = LatencyAttributor()
    early, late, ahead = _request(arrival=0.0), _request(arrival=1.5), _request(arrival=0.0)
    attr.mark([ahead], "queueing", 5.0)
    attr.mark([early, late, ahead], "decode_hbm", 2.0)
    assert attr.components_of(early)["decode_hbm"] == pytest.approx(2.0)
    assert attr.components_of(late)["decode_hbm"] == pytest.approx(0.5)
    assert attr.components_of(ahead)["decode_hbm"] == 0.0
    assert attr.components_of(ahead)["queueing"] == pytest.approx(5.0)


def test_breakdown_requires_finished_request():
    attr = LatencyAttributor()
    r = _request()
    attr.observe(r)
    with pytest.raises(ValueError):
        attr.breakdown(r)


def test_report_schema_and_aggregates():
    attr = LatencyAttributor()
    finished = []
    for i in range(3):
        r = _request(arrival=float(i))
        attr.observe(r)
        attr.mark([r], "queueing", r.arrival_time + 1.0)
        attr.mark([r], "decode_hbm", r.arrival_time + 3.0)
        _finish(r, first_token=r.arrival_time + 1.0, finish=r.arrival_time + 3.0)
        finished.append(r)
    unfinished = _request(arrival=99.0)
    attr.observe(unfinished)

    report = attr.report()
    assert report["count"] == 3
    assert report["components"] == list(COMPONENTS)
    for entry in report["requests"]:
        assert sum(entry["components"].values()) == pytest.approx(entry["rct"])
        assert set(entry["per_token"]) == set(COMPONENTS)
        # TTFT components only cover time before the first token.
        assert sum(entry["ttft_components"].values()) == pytest.approx(entry["ttft"])
    agg = report["aggregates"]
    assert agg["queueing"]["mean"] == pytest.approx(1.0)
    assert agg["decode_hbm"]["p50"] == pytest.approx(2.0)
    # Components nobody used aggregate to 0 over finished requests...
    assert agg["offload_fetch"]["mean"] == pytest.approx(0.0)


def test_empty_report_aggregates_are_nan():
    report = LatencyAttributor().report()
    assert report["count"] == 0
    assert report["requests"] == []
    assert all(
        math.isnan(report["aggregates"][c]["p99"]) for c in COMPONENTS
    )
