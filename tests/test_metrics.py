"""Tests for metric collection and percentile math."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import MetricsCollector, Request, percentile


def test_percentile_basics():
    values = [1, 2, 3, 4, 5]
    assert percentile(values, 0) == 1
    assert percentile(values, 50) == 3
    assert percentile(values, 100) == 5


def test_percentile_interpolates():
    assert percentile([0, 10], 50) == 5
    assert percentile([0, 10], 25) == 2.5


def test_percentile_single_value():
    assert percentile([7], 95) == 7


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 101)
    with pytest.raises(ValueError):
        percentile([1], -1)


def test_percentile_extremes_on_unsorted_input():
    """q=0/100 are exactly min/max, whatever the input order."""
    values = [9, 1, 7, 3]
    assert percentile(values, 0) == 1
    assert percentile(values, 100) == 9
    assert values == [9, 1, 7, 3]  # input is not mutated


def test_percentile_two_element_interpolation():
    assert percentile([0, 10], 0) == 0
    assert percentile([0, 10], 75) == 7.5
    assert percentile([0, 10], 100) == 10
    assert percentile([10, 0], 50) == 5  # order-insensitive


def test_percentile_fractional_q():
    assert percentile([0, 10], 12.5) == pytest.approx(1.25)
    assert percentile([1, 2, 3, 4, 5], 62.5) == pytest.approx(3.5)


def test_percentile_exact_rank_needs_no_interpolation():
    # q=25 on 5 elements lands exactly on index 1.
    assert percentile([5, 4, 3, 2, 1], 25) == 2


def test_percentile_duplicate_values():
    assert percentile([2, 2, 2, 2], 50) == 2
    assert percentile([1, 2, 2, 3], 50) == 2


@given(
    values=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50),
    q=st.floats(min_value=0, max_value=100),
)
@settings(max_examples=100, deadline=None)
def test_percentile_bounded_by_extremes(values, q):
    """Property: any percentile lies between min and max."""
    p = percentile(values, q)
    assert min(values) - 1e-9 <= p <= max(values) + 1e-9


def finished_request(arrival, first, finish, tokens=10):
    r = Request(arrival_time=arrival, prompt_tokens=5, max_new_tokens=tokens)
    r.first_token_time = first
    r.finish_time = finish
    r.generated_tokens = tokens
    return r


def test_collector_latency_stats():
    m = MetricsCollector("test")
    m.record_completion(finished_request(0, 1, 5))
    m.record_completion(finished_request(0, 3, 9))
    assert m.ttfts == [1, 3]
    assert m.rcts == [5, 9]
    assert m.mean_ttft() == 2
    assert m.rct_percentile(100) == 9


def test_collector_throughput_window():
    m = MetricsCollector("test")
    for t in [0.5, 1.5, 2.5, 3.5]:
        m.record_token(t)
    assert m.tokens_in_window(1, 3) == 2
    assert m.throughput(0, 4) == 1.0
    with pytest.raises(ValueError):
        m.throughput(4, 4)


def test_collector_token_times_must_not_go_backwards():
    m = MetricsCollector("test")
    m.record_token(2.0, n=2)
    m.record_token(2.0)  # equal timestamps are legal
    with pytest.raises(ValueError, match="non-monotonic"):
        m.record_token(1.5)
    assert m.tokens_generated == 3
    assert m.tokens_in_window(2.0, 2.5) == 3
    assert m.tokens_in_window(0.0, 2.0) == 0


def test_bulk_token_stamps_match_one_call_per_token():
    """A decode window stamps its tokens in one call; it leaves what
    one ``record_token`` per token would, and raises on a time that
    goes backwards or on a token that would complete the request."""
    times = [1.0, 1.5, 1.5, 2.0]
    bulk, single = MetricsCollector("bulk"), MetricsCollector("single")
    bulk.record_token(0.5)
    single.record_token(0.5)
    bulk.record_tokens(times)
    for t in times:
        single.record_token(t)
    assert bulk.tokens_generated == single.tokens_generated == 5
    assert bulk.step_times == single.step_times
    assert list(bulk.step_totals) == list(single.step_totals)
    for backwards in ([1.9], [2.5, 2.4]):
        with pytest.raises(ValueError, match="non-monotonic"):
            bulk.record_tokens(backwards)
    assert bulk.tokens_generated == 5

    request = Request(arrival_time=0.0, prompt_tokens=4, max_new_tokens=5)
    request.record_tokens(times)
    assert (request.generated_tokens, request.first_token_time) == (4, 1.0)
    assert request.finish_time is None
    with pytest.raises(ValueError, match="would complete it"):
        request.record_tokens([2.5])
    assert request.generated_tokens == 4


def test_collector_summary():
    m = MetricsCollector("summary")
    m.record_completion(finished_request(0, 1, 2))
    m.record_token(1.0, n=3)
    s = m.summary()
    assert s["name"] == "summary"
    assert s["completed"] == 1
    assert s["tokens"] == 3
    assert s["ttft_mean"] == 1


def test_collector_empty_summary():
    s = MetricsCollector("empty").summary()
    assert "ttft_mean" not in s
    assert math.isnan(MetricsCollector("empty").mean_rct())


def test_collector_empty_aggregates_all_return_nan():
    """Regression: percentiles used to raise ValueError on an idle
    collector while the means returned NaN.  Every collector aggregate
    now follows the same empty-input contract."""
    m = MetricsCollector("idle")
    assert math.isnan(m.mean_ttft())
    assert math.isnan(m.mean_rct())
    assert math.isnan(m.ttft_percentile(50))
    assert math.isnan(m.rct_percentile(95))
    # The standalone utility stays strict: empty there is a caller bug.
    with pytest.raises(ValueError):
        percentile([], 50)


def test_request_lifecycle():
    r = Request(arrival_time=1.0, prompt_tokens=10, max_new_tokens=2)
    assert not r.done
    assert r.ttft is None and r.rct is None
    r.record_token(3.0)
    assert r.ttft == 2.0
    assert not r.done
    r.record_token(4.0)
    assert r.done
    assert r.rct == 3.0
    assert r.total_tokens == 12


def test_request_record_token_reports_the_completing_token():
    r = Request(arrival_time=0.0, prompt_tokens=4, max_new_tokens=3)
    assert [r.record_token(t) for t in (1.0, 2.0, 3.0)] == [False, False, True]
    assert r.finish_time == 3.0
    assert r.record_token(4.0) is False  # already complete
    assert r.finish_time == 3.0


def test_request_validation():
    with pytest.raises(ValueError):
        Request(arrival_time=0, prompt_tokens=0, max_new_tokens=1)
    with pytest.raises(ValueError):
        Request(arrival_time=0, prompt_tokens=1, max_new_tokens=0)

