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

Decode steps are not marked one by one.  An engine keeps one
:class:`StepLog` of its decode step ends and appends to it without
visiting the batch.  A request seated in the batch
(:meth:`LatencyAttributor.join`) holds its place in the log and *folds*
the steps since into its sums as ``decode_hbm`` marks when it is next
touched: when it leaves the batch, before any other mark on it, and
before any read.  The fold adds the same ``now - last_mark`` terms in
the same order, so the sums are those of marking every step.  Engines
take a request out of the batch before stamping its finish, so a fold
that finds ``finish_time`` already set raises rather than clip.

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
from itertools import islice
from typing import Optional

#: How far, as a fraction of a request's rct, its summed components may
#: round past the rct before :meth:`LatencyAttributor.breakdown` raises.
_ROUNDING = 1e-9

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


def _mark(timeline, component: str, now: float) -> None:
    """Attribute ``[last_mark, now]`` of ``timeline`` to ``component``."""
    start = timeline.last_mark
    if now <= start:
        return
    request = timeline.request
    if timeline.early is not None:
        first = request.first_token_time
        if first is not None and start >= first:
            # No later segment reaches back before the first token:
            # fold and drop the list.
            timeline.to_first = _sums(timeline.early, first)
            timeline.early = None
    finish = request.finish_time
    if finish is not None and timeline.unclipped_to is None:
        timeline.unclipped_to = start
    if component == "offload_fetch" and timeline.pending_contention > 0.0:
        # Split the fetch segment: the reported channel-wait portion
        # goes to link_contention, the remainder stays offload_fetch.
        contended = min(timeline.pending_contention, now - start)
        _add(timeline, start, start + contended, "link_contention", finish)
        timeline.pending_contention -= contended
        start += contended
    if now > start:
        _add(timeline, start, now, component, finish)
    timeline.last_mark = now


class StepLog(list):
    """One engine's decode step ends, shared by its seated requests.

    The engine appends each step's end and never visits the batch.
    ``base`` is the step number of the first kept end; ``members`` maps
    each seated request's id to its timeline in the order of their
    ``step`` (the first step each has not folded), which only grows:
    joins and folds both move a timeline to the end.  The first
    member's place is therefore the prefix nobody needs, and it is
    dropped once it is more than half the log, so the log holds the
    steps of the longest unfolded stay, not of the whole run.
    """

    __slots__ = ("base", "members")

    def __init__(self) -> None:
        super().__init__()
        self.base = 0
        self.members: dict[int, _Timeline] = {}

    def trim(self) -> None:
        """Drop the ends every member has folded."""
        members = self.members
        if not members:
            self.base += len(self)
            self.clear()
            return
        head = next(iter(members.values())).step - self.base
        if 2 * head > len(self):
            del self[:head]
            self.base += head


@dataclass(slots=True)
class _Timeline:
    """One request's attribution state: fixed-size after its first token.

    ``to_finish`` holds running component sums, clipped at
    ``finish_time`` once it is stamped.  The few segments before the
    first token are kept in ``early`` until a mark starts at or after
    ``first_token_time``; they are then folded into ``to_first`` and
    dropped.  While the request is seated, ``log`` is its engine's
    step log and ``step`` the number of the first step it has not
    folded.
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
    log: Optional[StepLog] = None
    step: int = 0


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

    def _timeline(self, request) -> _Timeline:
        timeline = self._timelines.get(request.req_id)
        if timeline is None:
            self.observe(request)
            timeline = self._timelines[request.req_id]
        return timeline

    def mark(self, requests, component: str, now: float) -> None:
        """Attribute ``[last_mark, now]`` of each of ``requests`` to
        ``component``: one call per scheduling boundary, whatever the
        batch size.  A seated request folds its pending steps first."""
        if component not in COMPONENTS:
            raise ValueError(f"unknown component {component!r}")
        for request in requests:
            timeline = self._timeline(request)
            if timeline.log is not None:
                self._fold(timeline)
            _mark(timeline, component, now)

    @staticmethod
    def step_log() -> StepLog:
        """A new, empty decode step log for one engine."""
        return StepLog()

    def join(self, request, log: StepLog) -> None:
        """Seat ``request`` in ``log``: every step appended from now on
        is a ``decode_hbm`` mark of it, summed when it is touched."""
        timeline = self._timeline(request)
        if timeline.log is not None:
            raise ValueError(f"request {request.req_id} is already seated")
        timeline.log = log
        timeline.step = log.base + len(log)
        log.members[request.req_id] = timeline

    def leave(self, request) -> None:
        """Fold ``request``'s pending steps and unseat it.  Engines call
        this before stamping the request's finish."""
        timeline = self._timelines[request.req_id]
        self._fold(timeline)
        log = timeline.log
        del log.members[request.req_id]
        timeline.log = None
        log.trim()

    def _fold(self, timeline: _Timeline) -> None:
        """Mark each step ``timeline`` has not folded, in order."""
        log = timeline.log
        pending = log[timeline.step - log.base:]
        if not pending:
            return
        request = timeline.request
        if request.finish_time is not None:
            raise ValueError(
                f"request {request.req_id} finished at t={request.finish_time} "
                f"with decode steps from t={pending[0]} not yet summed"
            )
        i = 0
        while timeline.early is not None and i < len(pending):
            _mark(timeline, "decode_hbm", pending[i])
            i += 1
        if i < len(pending):
            # The generic mark reduced to what it does once the early
            # segments are gone and no finish is known.
            totals = timeline.to_finish
            total = totals["decode_hbm"]
            last = timeline.last_mark
            for end in islice(pending, i, None):
                if end > last:
                    total += end - last
                    last = end
            totals["decode_hbm"] = total
            timeline.last_mark = last
        timeline.step = log.base + len(log)
        log.members[request.req_id] = log.members.pop(request.req_id)
        log.trim()

    def _touch(self, request) -> Optional[_Timeline]:
        """``request``'s timeline with its pending steps folded."""
        timeline = self._timelines.get(request.req_id)
        if timeline is not None and timeline.log is not None:
            self._fold(timeline)
        return timeline

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
        timeline = self._touch(request)
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
        timeline = self._touch(request)
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
        other = request.rct - covered
        if other < -_ROUNDING * request.rct:
            raise ValueError(
                f"request {request.req_id}: its components sum to {covered} s, "
                f"more than its rct of {request.rct} s"
            )
        # Summing the segments may round past rct by at most _ROUNDING.
        totals["other"] += max(0.0, other)
        return totals

    def _ttft_components(self, request) -> dict[str, float]:
        """Component totals clipped at ``request.first_token_time``."""
        timeline = self._touch(request)
        if timeline is None:
            return dict.fromkeys(COMPONENTS, 0.0)
        if timeline.early is None:
            return dict(timeline.to_first)
        return _sums(timeline.early, request.first_token_time)

    def finished_requests(self) -> list:
        """Finished requests, after folding every seated timeline once."""
        for timeline in self._timelines.values():
            if timeline.log is not None:
                self._fold(timeline)
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
