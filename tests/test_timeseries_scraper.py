"""Unit tests for the simulated-clock scraper and ring-buffered series.

Covers the PR 8 observability substrate: :class:`RingSeries` bounds and
monotonicity, canonical sample keys, the :class:`MetricScraper` tick
loop (including its drain-run self-termination), and the derived
rate/interval-mean views the dashboard plots.
"""

import pytest

from repro.sim import Environment
from repro.telemetry.registry import Registry
from repro.telemetry.timeseries import (
    MetricScraper,
    RingSeries,
    interval_mean_series,
    rate_series,
    sample_key,
)


# ---------------------------------------------------------------------------
# RingSeries
# ---------------------------------------------------------------------------
def test_ring_series_appends_and_views():
    s = RingSeries("x")
    s.append(0.0, 1.0)
    s.append(1.0, 3.0)
    s.append(1.0, 4.0)  # equal timestamps are legal
    assert len(s) == 3
    assert s.times == [0.0, 1.0, 1.0]
    assert s.values == [1.0, 3.0, 4.0]
    assert s.last() == (1.0, 4.0)
    assert s.to_dict() == {"times": [0.0, 1.0, 1.0], "values": [1.0, 3.0, 4.0]}


def test_ring_series_rejects_non_monotonic_append():
    s = RingSeries("clock")
    s.append(5.0, 1.0)
    with pytest.raises(ValueError, match=r"non-monotonic .* 'clock'.*t=4\.0"):
        s.append(4.0, 2.0)
    # The bad sample was not retained.
    assert s.times == [5.0]


def test_ring_series_capacity_drops_oldest():
    s = RingSeries("bounded", capacity=3)
    for i in range(10):
        s.append(float(i), float(i * i))
    assert len(s) == 3
    assert s.capacity == 3
    assert s.times == [7.0, 8.0, 9.0]


def test_ring_series_capacity_validation():
    with pytest.raises(ValueError, match="capacity"):
        RingSeries("bad", capacity=0)


def test_ring_series_window_is_half_open():
    """Half-open ``start <= t < end``: adjacent windows partition the series."""
    s = RingSeries("w")
    for t in (0.0, 1.0, 2.0, 3.0):
        s.append(t, t)
    assert s.window(1.0, 3.0) == [(1.0, 1.0), (2.0, 2.0)]
    assert s.window(0.0, 0.0) == []


# ---------------------------------------------------------------------------
# sample_key
# ---------------------------------------------------------------------------
def test_sample_key_matches_prometheus_notation():
    assert sample_key("aqua_up", ()) == "aqua_up"
    key = sample_key(
        "aqua_engine_tokens_generated_total", (("engine", "flexgen-OPT-30B"),)
    )
    assert key == 'aqua_engine_tokens_generated_total{engine="flexgen-OPT-30B"}'


def test_series_key_is_the_exposition_sample():
    """Label values are escaped as the text exposition escapes them:
    a scraped series key is the sample part of its exposition line."""
    registry = Registry()
    value = 'a\\b"c\nd'
    registry.counter("toy_total", "toy", ["name"]).labels(name=value).inc(3.0)
    scraper = MetricScraper(Environment(), registry)
    scraper.scrape()
    (key,) = scraper.series
    (line,) = [
        line for line in registry.to_prometheus_text().splitlines()
        if not line.startswith("#")
    ]
    assert line == f"{key} 3.0"
    assert key == 'toy_total{name="a\\\\b\\"c\\nd"}'


# ---------------------------------------------------------------------------
# MetricScraper
# ---------------------------------------------------------------------------
def _counter_rig():
    """An environment plus a counter that grows 2/s via a sim process."""
    env = Environment()
    registry = Registry()
    tokens = registry.counter("toy_tokens_total", "tokens", ["engine"])

    def ticker():
        while True:
            yield env.timeout(1.0)
            tokens.labels(engine="a").inc(2.0)

    env.process(ticker())
    return env, registry, tokens


def test_scraper_snapshots_on_interval():
    env, registry, tokens = _counter_rig()
    tokens.labels(engine="a").inc(0.0)  # materialise the child
    scraper = MetricScraper(env, registry, interval=1.0).start()
    env.run(until=10.0)
    series = scraper.series['toy_tokens_total{engine="a"}']
    # First scrape at t=0, then every second while events remain.
    assert series.times[:3] == [0.0, 1.0, 2.0]
    assert series.values[:3] == [0.0, 2.0, 4.0]
    assert scraper.scrapes == len(series)


def test_scraper_self_terminates_on_drain():
    """With no horizon, the scraper must not keep the run alive forever:
    when it wakes to an otherwise-empty schedule it takes a final scrape
    and stops rescheduling."""
    env = Environment()
    registry = Registry()
    gauge = registry.gauge("toy_depth", "depth")
    gauge.set(1.0)

    def workload():
        yield env.timeout(3.5)
        gauge.set(7.0)

    env.process(workload())
    scraper = MetricScraper(env, registry, interval=1.0).start()
    env.run()  # drain style: would hang if the scraper rescheduled forever
    assert env.now == 4.0  # final scrape tick after the workload ended
    assert scraper.series["toy_depth"].last() == (4.0, 7.0)


def test_scraper_skips_histogram_buckets():
    env = Environment()
    registry = Registry()
    hist = registry.histogram("toy_latency_seconds", "latency", buckets=(0.1, 1.0))
    hist.observe(0.5)
    scraper = MetricScraper(env, registry, interval=1.0)
    scraper.scrape()
    keys = set(scraper.series)
    assert "toy_latency_seconds_sum" in keys
    assert "toy_latency_seconds_count" in keys
    assert not any("_bucket" in k for k in keys)


def test_scraper_observers_and_matching():
    env, registry, tokens = _counter_rig()
    tokens.labels(engine="a").inc(0.0)
    scraper = MetricScraper(env, registry, interval=1.0)
    seen = []
    scraper.observers.append(seen.append)
    scraper.start()
    env.run(until=3.0)
    # Events scheduled exactly at the horizon are processed, so the
    # t=3.0 scrape is included.
    assert seen == [0.0, 1.0, 2.0, 3.0]
    assert set(scraper.matching("toy_tokens_total")) == {
        'toy_tokens_total{engine="a"}'
    }
    assert scraper.matching("nope") == {}


def test_scraper_rejects_a_scrape_behind_the_last():
    registry = Registry()
    registry.gauge("toy_depth", "depth").set(1.0)
    scraper = MetricScraper(Environment(), registry)
    scraper.scrape(5.0)
    with pytest.raises(ValueError, match=r"t=4\.0 precedes the last scrape at t=5\.0"):
        scraper.scrape(4.0)
    assert scraper.series["toy_depth"].times == [5.0]


def test_scraper_validates_interval():
    env = Environment()
    with pytest.raises(ValueError, match="interval"):
        MetricScraper(env, Registry(), interval=0.0)


def test_scraper_to_dict_round_trips_series():
    env, registry, tokens = _counter_rig()
    tokens.labels(engine="a").inc(0.0)
    scraper = MetricScraper(env, registry, interval=1.0).start()
    env.run(until=4.0)
    out = scraper.to_dict()
    assert out["interval"] == 1.0
    assert out["scrapes"] == scraper.scrapes
    key = 'toy_tokens_total{engine="a"}'
    assert out["series"][key] == scraper.series[key].to_dict()


# ---------------------------------------------------------------------------
# Derived views
# ---------------------------------------------------------------------------
def test_rate_series_differentiates_cumulative_counter():
    t, v = rate_series([0.0, 1.0, 3.0], [0.0, 4.0, 8.0])
    assert t == [1.0, 3.0]
    assert v == [4.0, 2.0]


def test_rate_series_skips_zero_width_intervals():
    t, v = rate_series([0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 2.0, 5.0])
    assert t == [1.0, 2.0]
    assert v == [2.0, 3.0]


def test_interval_mean_series_gaps_on_empty_intervals():
    # _count flat over [1,2]: that interval is a gap, not a fake zero.
    t, v = interval_mean_series(
        [0.0, 1.0, 2.0, 3.0],
        [0.0, 2.0, 2.0, 8.0],
        [0.0, 1.0, 1.0, 3.0],
    )
    assert t == [1.0, 3.0]
    assert v == [2.0, 3.0]
