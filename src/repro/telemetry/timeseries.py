"""Simulated-clock metric scraping into ring-buffered time series.

End-of-run aggregates answer "did this run meet its targets?"; they
cannot answer "*when* did it start failing?".  This module adds the
time axis: a :class:`MetricScraper` is a lightweight periodic process
on the simulation clock that snapshots every family of a
:class:`~repro.telemetry.registry.Registry` into bounded
:class:`RingSeries` buffers, so every telemetered run yields
``metric(t)`` curves instead of only final numbers.

Scraping is strictly observation-only: the scraper reads counter and
gauge values (callback-backed gauges read live objects) and mutates no
simulation state, so conservation-audit digests are identical with it
on or off (``tests/test_determinism_golden.py``).  The extra events it
schedules are pure sleeps that shift nothing observable.

Ring buffers bound memory for million-user sweeps: a scrape store holds
at most ``capacity`` samples per series and silently drops the oldest —
the recent window is what dashboards, SLO burn rates and the flight
recorder need.  Histogram ``_bucket`` samples are not scraped (only
``_sum``/``_count`` are); full distributions stay available from the
end-of-run registry export.  The scraper binds each child to its series
once, into one flat handle list, so a scrape costs one value read per
child and one append per series.

Derived views (:func:`rate_series`, :func:`interval_mean_series`) turn
cumulative counter scrapes into per-interval rates and interval means —
the form the dashboard plots.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

# ``sample_key`` is re-exported: series keys are its rendering.
from repro.telemetry.registry import Registry, sample_key  # noqa: F401


class RingSeries:
    """A bounded, time-ordered ``(time, value)`` series.

    Appends must be monotone in time (equal timestamps are legal);
    going backwards raises with the offending times named — a scraper
    driven by the simulation clock can only trip this through a real
    bug, and silently re-ordering samples would corrupt every derived
    rate.
    """

    __slots__ = ("name", "_samples")

    def __init__(self, name: str, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.name = name
        self._samples: deque[tuple[float, float]] = deque(maxlen=capacity)

    def append(self, time: float, value: float) -> None:
        if self._samples and time < self._samples[-1][0]:
            raise ValueError(
                f"non-monotonic append to ring series {self.name!r}: "
                f"t={time} precedes last sample t={self._samples[-1][0]}"
            )
        self._samples.append((time, value))

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self):
        return iter(self._samples)

    @property
    def capacity(self) -> int:
        return self._samples.maxlen

    @property
    def times(self) -> list[float]:
        return [t for t, _ in self._samples]

    @property
    def values(self) -> list[float]:
        return [v for _, v in self._samples]

    def last(self) -> Optional[tuple[float, float]]:
        return self._samples[-1] if self._samples else None

    def window(self, start: float, end: float) -> list[tuple[float, float]]:
        """Samples with ``start <= t < end``: adjacent windows
        ``[a, b)`` and ``[b, c)`` partition the series."""
        return [(t, v) for t, v in self._samples if start <= t < end]

    def to_dict(self) -> dict:
        """JSON/pickle-safe form: parallel time and value lists."""
        return {"times": self.times, "values": self.values}


class MetricScraper:
    """Periodic simulated-clock scrape of a metrics registry.

    Parameters
    ----------
    env:
        The simulation environment (clock + process host).
    registry:
        The registry to snapshot.
    interval:
        Simulated seconds between scrapes.
    capacity:
        Ring-buffer bound per series.

    Notes
    -----
    :meth:`start` spawns the scrape process; the first scrape happens
    immediately, then every ``interval`` seconds.  When the scraper
    wakes to find the schedule otherwise empty it stops rescheduling,
    so drain-style runs (``env.run()`` with no horizon) still
    terminate.

    ``observers`` are called after every scrape with the current
    simulated time — the SLO tracker evaluates burn rates there and the
    flight recorder records metric deltas.  Observers must be
    observation-only too.
    """

    def __init__(
        self,
        env,
        registry: Registry,
        interval: float = 1.0,
        capacity: int = 4096,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"scrape interval must be positive, got {interval}")
        self.env = env
        self.registry = registry
        self.interval = float(interval)
        self.capacity = capacity
        self.series: dict[str, RingSeries] = {}
        self.observers: list[Callable[[float], None]] = []
        self.scrapes = 0
        self._started = False
        self._last_scrape: Optional[float] = None
        #: ``(child, [sample deque per scraped sample])`` for every child
        #: that has had a sample, in the order they were bound.
        self._handles: list[tuple] = []
        #: Per family: the label values of its bound children.
        self._bound: dict[str, set] = {}
        self._rings = 0

    # ------------------------------------------------------------------
    def start(self) -> "MetricScraper":
        """Spawn the periodic scrape process (idempotent)."""
        if not self._started:
            self._started = True
            self.env.process(self._run())
        return self

    def _run(self):
        while True:
            self.scrape()
            if self.env.peek() == float("inf"):
                # Nothing else is scheduled: rescheduling would keep a
                # drain-style run alive forever on scrapes of a finished
                # world.  The final scrape above already captured it.
                return
            yield self.env.timeout(self.interval)

    # ------------------------------------------------------------------
    def scrape(self, now: Optional[float] = None) -> int:
        """Snapshot every family now; returns the samples appended.

        Raises ``ValueError`` when ``now`` precedes the last scrape: the
        rings are appended to directly, past :meth:`RingSeries.append`'s
        own check.
        """
        if now is None:
            now = self.env.now
        last = self._last_scrape
        if last is not None and now < last:
            raise ValueError(f"scrape at t={now} precedes the last scrape at t={last}")
        self._last_scrape = now
        bound = self._bound
        for family in self.registry.collect():
            if len(bound.get(family.name, ())) < family.child_count:
                self._bind(family)
        for child, rings in self._handles:
            for ring, value in zip(rings, child.scalar_values()):
                ring.append((now, value))
        self.scrapes += 1
        for observer in self.observers:
            observer(now)
        return self._rings

    def _bind(self, family) -> None:
        """Give each child of ``family`` that now has samples its series.

        Children are walked in exposition order, so series are created
        in the order a sample-by-sample scrape would first meet them.
        Histogram buckets get no series: distributions stay in the
        registry export.
        """
        bound = self._bound.setdefault(family.name, set())
        for labels, child, keys in family.keyed_children():
            if labels in bound or not child.scalar_values():
                continue
            bound.add(labels)
            rings = [
                self.series.setdefault(key, RingSeries(key, self.capacity))._samples
                for key in keys
            ]
            self._handles.append((child, rings))
            self._rings += len(rings)

    # ------------------------------------------------------------------
    def matching(self, prefix: str) -> dict[str, RingSeries]:
        """All series whose key starts with ``prefix``."""
        return {k: s for k, s in self.series.items() if k.startswith(prefix)}

    def to_dict(self) -> dict:
        """Pickle/JSON-safe export of the whole store."""
        return {
            "interval": self.interval,
            "scrapes": self.scrapes,
            "series": {k: s.to_dict() for k, s in self.series.items()},
        }


# ---------------------------------------------------------------------------
# Derived views over scraped series (plain dicts so pooled experiment
# results — which pickle scrape stores as dicts — can reuse them).
# ---------------------------------------------------------------------------
def rate_series(times: list[float], values: list[float]) -> tuple[list[float], list[float]]:
    """Per-interval rate of a cumulative counter series.

    Each output point sits at the *end* of its scrape interval and is
    ``(v[i] - v[i-1]) / (t[i] - t[i-1])``.  Zero-width intervals (two
    scrapes at one timestamp) are skipped rather than divided by zero.
    """
    out_t: list[float] = []
    out_v: list[float] = []
    for i in range(1, len(times)):
        dt = times[i] - times[i - 1]
        if dt <= 0:
            continue
        out_t.append(times[i])
        out_v.append((values[i] - values[i - 1]) / dt)
    return out_t, out_v


def interval_mean_series(
    sum_times: list[float],
    sum_values: list[float],
    count_values: list[float],
) -> tuple[list[float], list[float]]:
    """Interval mean from scraped ``_sum`` and ``_count`` histogram series.

    Points where the interval saw no observations (count delta 0) are
    omitted — a gap in the plotted line, not a fake zero.
    """
    out_t: list[float] = []
    out_v: list[float] = []
    n = min(len(sum_times), len(sum_values), len(count_values))
    for i in range(1, n):
        dc = count_values[i] - count_values[i - 1]
        if dc <= 0:
            continue
        out_t.append(sum_times[i])
        out_v.append((sum_values[i] - sum_values[i - 1]) / dc)
    return out_t, out_v
