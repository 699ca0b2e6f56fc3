"""Metric collection: per-request latencies and token counters."""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from itertools import chain
from operator import gt
from typing import Sequence

from repro.serving.request import Request


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]).

    Empty input is a *programming error* here and raises; the
    :class:`MetricsCollector` aggregates built on top return NaN for
    "no traffic yet" instead (see the contract note there).

    Raises
    ------
    ValueError
        On an empty input or ``q`` outside [0, 100].
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100) * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


class MetricsCollector:
    """Aggregates completed requests and running counters for one engine."""

    def __init__(self, name: str = "engine") -> None:
        self.name = name
        self.completed: list[Request] = []
        self.tokens_generated = 0
        #: One ``(time, running token total)`` pair per
        #: :meth:`record_token` call, kept as two parallel sequences:
        #: ``step_totals[i]`` tokens had been generated by
        #: ``step_times[i]``.  The times stay the clock's own objects (a
        #: NumPy float keeps its type); the totals are packed, so no int
        #: object is kept per call.
        self.step_times: list[float] = []
        self.step_totals = array("q")
        #: Times at which in-flight requests were re-queued after a
        #: fault (recovery metric; see ``LLMEngineBase.requeue``).
        self.requeue_times: list[float] = []

    # ------------------------------------------------------------------
    def record_token(self, now: float, n: int = 1) -> None:
        """Count ``n`` tokens generated at ``now``.

        Going back in time raises rather than clamps:
        :meth:`tokens_in_window` binary-searches ``step_times``.
        """
        times = self.step_times
        if times and now < times[-1]:
            raise ValueError(
                f"non-monotonic token time for {self.name!r}: "
                f"t={now} precedes last token t={times[-1]}"
            )
        self.tokens_generated += n
        times.append(now)
        self.step_totals.append(self.tokens_generated)

    def record_tokens(self, times) -> None:
        """Count one token at each of ``times``, as one
        :meth:`record_token` call per time would; a time before the one
        preceding it raises."""
        if not len(times):
            return
        last = self.step_times[-1] if self.step_times else times[0]
        if any(map(gt, chain((last,), times), times)):
            raise ValueError(
                f"non-monotonic token times for {self.name!r} after t={last}"
            )
        total = self.tokens_generated
        self.tokens_generated = total + len(times)
        self.step_times.extend(times)
        self.step_totals.extend(range(total + 1, self.tokens_generated + 1))

    def record_completion(self, request: Request) -> None:
        self.completed.append(request)

    def record_requeue(self, now: float) -> None:
        """Count one fault-driven re-queue of an in-flight request."""
        self.requeue_times.append(now)

    @property
    def requeues(self) -> int:
        """Total fault-driven re-queues recorded so far."""
        return len(self.requeue_times)

    # ------------------------------------------------------------------
    @property
    def ttfts(self) -> list[float]:
        return [r.ttft for r in self.completed if r.ttft is not None]

    @property
    def rcts(self) -> list[float]:
        return [r.rct for r in self.completed if r.rct is not None]

    # Empty-input contract: every latency aggregate on this collector
    # (means *and* percentiles) returns NaN when no request has
    # completed, so callers can compute summaries unconditionally and
    # filter with ``math.isnan``.  The standalone :func:`percentile`
    # utility keeps its strict ValueError — an empty sequence there is a
    # programming error, not an "engine saw no traffic yet" state.
    def ttft_percentile(self, q: float) -> float:
        """TTFT percentile; NaN when no request has completed."""
        values = self.ttfts
        return percentile(values, q) if values else float("nan")

    def rct_percentile(self, q: float) -> float:
        """RCT percentile; NaN when no request has completed."""
        values = self.rcts
        return percentile(values, q) if values else float("nan")

    def mean_ttft(self) -> float:
        """Mean TTFT; NaN when no request has completed."""
        values = self.ttfts
        return sum(values) / len(values) if values else float("nan")

    def mean_rct(self) -> float:
        """Mean RCT; NaN when no request has completed."""
        values = self.rcts
        return sum(values) / len(values) if values else float("nan")

    def tokens_in_window(self, start: float, end: float) -> int:
        """Tokens generated in the half-open window ``[start, end)``."""
        times, totals = self.step_times, self.step_totals
        lo = bisect_left(times, start)
        hi = bisect_left(times, end, lo=lo)
        return (totals[hi - 1] if hi else 0) - (totals[lo - 1] if lo else 0)

    def throughput(self, start: float, end: float) -> float:
        """Generated tokens per second over a window."""
        if end <= start:
            raise ValueError("window end must be after start")
        return self.tokens_in_window(start, end) / (end - start)

    def summary(self) -> dict:
        """A compact report of this engine's run."""
        out = {
            "name": self.name,
            "completed": len(self.completed),
            "tokens": self.tokens_generated,
        }
        if self.ttfts:
            out["ttft_mean"] = self.mean_ttft()
            out["ttft_p50"] = self.ttft_percentile(50)
            out["ttft_p95"] = self.ttft_percentile(95)
        if self.rcts:
            out["rct_mean"] = self.mean_rct()
            out["rct_p50"] = self.rct_percentile(50)
            out["rct_p95"] = self.rct_percentile(95)
        if self.requeue_times:
            out["requeues"] = self.requeues
        return out
