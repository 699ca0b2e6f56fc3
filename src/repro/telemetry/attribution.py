"""Latency attribution: where did each request's time actually go?

The attributor decomposes a request's end-to-end latency into named
components by *telescoping marks*: a timeline starts at the request's
arrival, and every call to :meth:`LatencyAttributor.mark` closes, for
each request of a batch, the segment ``[last_mark, now]`` under one
component label.  Because each segment begins exactly where the
previous one ended, the segments partition ``[arrival_time,
finish_time]`` with no gaps and no double counting — per-request
component sums therefore equal the end-to-end latency *exactly* (any
tail not covered by a mark is reported as ``"other"``).

The segments themselves are not kept.  Each timeline holds running
component sums, clipped at ``finish_time`` once it is stamped, so a
request costs a fixed amount of memory after its first token and the
report does no walk.  Only the few segments before the first token
(queueing, prefill, the first fetch) are listed, and they are folded
into the TTFT sums once a mark starts at or after ``first_token_time``.
Each sum adds the same ``min(end, until) - start`` terms, in the same
order, as a walk over every segment would.  This relies on engines
stamping a token after that step's mark: a ``finish_time`` earlier than
a segment already summed unclipped makes :meth:`breakdown` raise.

Link contention is handled as a carve-out rather than its own mark:
the DMA layer reports, per request, how long a transfer sat waiting
for a channel grant (:meth:`note_contention`); the next
``offload_fetch`` segment for that request is split so the waiting
portion shows up under ``link_contention`` instead.

Component vocabulary (:data:`COMPONENTS`):

``queueing``
    Waiting in the engine's admission queue before prefill starts.
``prefill_compute``
    GPU compute time for the prompt pass.
``decode_hbm``
    Decode-step time bound by GPU compute/HBM (including batching
    overheads the engine cannot distinguish from it).
``offload_fetch``
    Time waiting on AQUA-LIB offload/fetch DMA (net of contention).
``link_contention``
    Portion of offload/fetch spent queueing for an interconnect channel.
``other``
    Residual not covered by any mark (context switches, bookkeeping).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

COMPONENTS = (
    "queueing",
    "prefill_compute",
    "decode_hbm",
    "offload_fetch",
    "link_contention",
    "other",
)


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile; NaN on empty input.

    Local copy rather than importing :func:`repro.serving.metrics.percentile`
    (which raises on empty) — aggregates over a component nobody used
    should read NaN, matching the collector convention.
    """
    if not values:
        return float("nan")
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    pos = (q / 100.0) * (len(data) - 1)
    low = int(math.floor(pos))
    high = min(low + 1, len(data) - 1)
    frac = pos - low
    return data[low] * (1.0 - frac) + data[high] * frac


def _sums(segments, until: Optional[float]) -> dict[str, float]:
    """Component totals of ``segments``, clipped at ``until``.

    Segments are clipped rather than dropped so sums stay exact even
    when a mark lands after ``until`` (e.g. decode bookkeeping that
    completes the final token mid-step).
    """
    totals = dict.fromkeys(COMPONENTS, 0.0)
    for start, end, component in segments:
        if until is not None:
            if start >= until:
                continue
            end = min(end, until)
        totals[component] += end - start
    return totals


def _add(timeline, start: float, end: float, component: str, finish) -> None:
    """Sum the segment ``[start, end]`` into ``timeline``'s running
    totals, clipped at ``finish`` (the same ``min(end, finish) - start``
    a walk over all segments would add), and keep it in ``early``."""
    if finish is None:
        timeline.to_finish[component] += end - start
    elif start < finish:
        timeline.to_finish[component] += min(end, finish) - start
    if timeline.early is not None:
        timeline.early.append((start, end, component))


@dataclass(slots=True)
class _Timeline:
    """One request's attribution state: fixed-size after its first token.

    ``to_finish`` holds running component sums, clipped at
    ``finish_time`` once it is stamped.  The few segments before the
    first token are kept in ``early`` until a mark starts at or after
    ``first_token_time``; they are then folded into ``to_first`` and
    dropped.
    """

    request: object
    last_mark: float
    pending_contention: float = 0.0
    to_finish: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(COMPONENTS, 0.0)
    )
    early: Optional[list[tuple[float, float, str]]] = field(default_factory=list)
    to_first: Optional[dict[str, float]] = None
    #: End of the last segment summed before ``finish_time`` was seen
    #: (``None`` while that is still ``last_mark``).
    unclipped_to: Optional[float] = None


class LatencyAttributor:
    """Accumulates per-request component sums and aggregates them."""

    def __init__(self) -> None:
        self._timelines: dict[int, _Timeline] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def observe(self, request) -> None:
        """Start the timeline for ``request`` at its arrival.  A request
        already observed keeps its timeline."""
        if request.req_id not in self._timelines:
            self._timelines[request.req_id] = _Timeline(
                request=request, last_mark=request.arrival_time
            )

    def mark(self, requests, component: str, now: float) -> None:
        """Attribute ``[last_mark, now]`` of each of ``requests`` to
        ``component``: one call per scheduling boundary, whatever the
        batch size."""
        self.mark_steps(requests, component, (now,))

    def mark_steps(self, requests, component: str, ends) -> None:
        """``mark(requests, component, end)`` for each of the ascending
        ``ends`` in turn, looping request by request: one call covers a
        whole decode window, and each request's own sums still grow in
        time order."""
        if component not in COMPONENTS:
            raise ValueError(f"unknown component {component!r}")
        timelines = self._timelines
        fetch = component == "offload_fetch"
        for request in requests:
            timeline = timelines.get(request.req_id)
            if timeline is None:
                self.observe(request)
                timeline = timelines[request.req_id]
            for now in ends:
                start = timeline.last_mark
                if now <= start:
                    continue
                if timeline.early is not None:
                    first = request.first_token_time
                    if first is not None and start >= first:
                        # No later segment reaches back before the
                        # first token: fold and drop the list.
                        timeline.to_first = _sums(timeline.early, first)
                        timeline.early = None
                finish = request.finish_time
                if finish is not None and timeline.unclipped_to is None:
                    timeline.unclipped_to = start
                if fetch and timeline.pending_contention > 0.0:
                    # Split the fetch segment: the reported channel-wait
                    # portion goes to link_contention, the remainder
                    # stays offload_fetch.
                    contended = min(timeline.pending_contention, now - start)
                    _add(timeline, start, start + contended, "link_contention", finish)
                    timeline.pending_contention -= contended
                    start += contended
                if now > start:
                    _add(timeline, start, now, component, finish)
                timeline.last_mark = now

    def note_contention(self, req_id: Optional[int], seconds: float) -> None:
        """Record channel-wait time to carve from the next fetch mark."""
        if req_id is None or seconds <= 0.0:
            return
        timeline = self._timelines.get(req_id)
        if timeline is not None:
            timeline.pending_contention += seconds

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def components_of(self, request) -> dict[str, float]:
        """Component totals for ``request`` so far, clipped at its
        ``finish_time`` once that is stamped."""
        timeline = self._timelines.get(request.req_id)
        if timeline is None:
            return dict.fromkeys(COMPONENTS, 0.0)
        return dict(timeline.to_finish)

    def breakdown(self, request) -> dict[str, float]:
        """Full end-to-end decomposition; components sum to ``rct`` exactly.

        Raises ``ValueError`` if ``finish_time`` precedes the end of a
        segment summed before it was stamped: engines stamp a token
        after that step's mark, so the unclipped sum would be wrong.
        """
        finish = request.finish_time
        if finish is None:
            raise ValueError(f"request {request.req_id} has not finished")
        timeline = self._timelines.get(request.req_id)
        if timeline is not None:
            summed_to = timeline.unclipped_to
            if summed_to is None:
                summed_to = timeline.last_mark
            if summed_to > finish:
                raise ValueError(
                    f"request {request.req_id} finished at t={finish}, before "
                    f"t={summed_to}, the end of a segment summed while its "
                    f"finish was unknown"
                )
        totals = self.components_of(request)
        covered = sum(totals.values())
        totals["other"] += max(0.0, request.rct - covered)
        return totals

    def _ttft_components(self, request) -> dict[str, float]:
        """Component totals clipped at ``request.first_token_time``."""
        timeline = self._timelines.get(request.req_id)
        if timeline is None:
            return dict.fromkeys(COMPONENTS, 0.0)
        if timeline.early is None:
            return dict(timeline.to_first)
        return _sums(timeline.early, request.first_token_time)

    def finished_requests(self) -> list:
        return [
            t.request
            for t in self._timelines.values()
            if t.request.finish_time is not None
        ]

    def report(self) -> dict:
        """Attribution report over all finished requests.

        Schema::

            {
              "components": [...],            # the component vocabulary
              "requests": [
                {"req_id": ..., "ttft": ..., "rct": ..., "tokens": ...,
                 "components": {...},         # sums to rct exactly
                 "ttft_components": {...},    # clipped at first token
                 "per_token": {...}},         # components / tokens
                ...
              ],
              "aggregates": {
                "<component>": {"mean": ..., "p50": ..., "p99": ...},
                ...
              },
              "count": <finished request count>,
            }
        """
        requests = sorted(self.finished_requests(), key=lambda r: r.req_id)
        entries = []
        per_component: dict[str, list[float]] = {c: [] for c in COMPONENTS}
        for request in requests:
            components = self.breakdown(request)
            ttft_components = self._ttft_components(request)
            tokens = max(1, request.generated_tokens)
            entries.append(
                {
                    "req_id": request.req_id,
                    "ttft": request.ttft,
                    "rct": request.rct,
                    "tokens": request.generated_tokens,
                    "components": components,
                    "ttft_components": ttft_components,
                    "per_token": {c: v / tokens for c, v in components.items()},
                }
            )
            for component, value in components.items():
                per_component[component].append(value)
        aggregates = {
            component: {
                "mean": (sum(values) / len(values)) if values else float("nan"),
                "p50": _percentile(values, 50.0),
                "p99": _percentile(values, 99.0),
            }
            for component, values in per_component.items()
        }
        return {
            "components": list(COMPONENTS),
            "requests": entries,
            "aggregates": aggregates,
            "count": len(entries),
        }
