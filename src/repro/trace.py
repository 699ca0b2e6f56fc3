"""Event tracing: record simulation activity, export Chrome traces.

A :class:`Tracer` collects timestamped spans (engine iterations,
transfers, context switches, reclaims) and exports them in the Chrome
trace-event JSON format, viewable in ``chrome://tracing`` or Perfetto.
A simulation records into the tracer of its
:class:`~repro.telemetry.Telemetry` hub; without a hub the overhead is
a single ``None`` check.

Example
-------
>>> tracer = Tracer()
>>> with tracer.span("decode", track="vllm"):  # doctest: +SKIP
...     ...
>>> tracer.export_json("trace.json")  # doctest: +SKIP
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional


@dataclass(frozen=True)
class Span:
    """One completed activity on a track."""

    name: str
    track: str
    start: float
    end: float
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Instant:
    """A point event on a track."""

    name: str
    track: str
    time: float
    args: dict = field(default_factory=dict)


#: Ordering of flow phases at equal timestamps: start, step, finish.
_FLOW_PHASE_ORDER = {"s": 0, "t": 1, "f": 2}


@dataclass(frozen=True)
class FlowEvent:
    """One step of a flow chain (Chrome ``ph: s/t/f`` events).

    Events sharing a ``flow_id`` are rendered by Perfetto as arrows
    linking the slices that enclose them — the request-scoped causal
    trace.  ``phase`` is ``"s"`` (start), ``"t"`` (step) or ``"f"``
    (finish).
    """

    name: str
    track: str
    time: float
    flow_id: int
    phase: str
    args: dict = field(default_factory=dict)


class Tracer:
    """Collects spans and instants; exports chrome://tracing JSON.

    Parameters
    ----------
    clock:
        Callable returning the current simulation time.  When ``None``
        the caller must pass explicit times to :meth:`add_span`.
    """

    def __init__(self, clock=None) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.instants: list[Instant] = []
        self.flows: list[FlowEvent] = []
        self._track_ids: dict[str, int] = {}

    # ------------------------------------------------------------------
    def _now(self) -> float:
        if self.clock is None:
            raise RuntimeError("tracer has no clock; pass explicit times")
        return self.clock()

    def _track_id(self, track: str) -> int:
        return self._track_ids.setdefault(track, len(self._track_ids) + 1)

    # ------------------------------------------------------------------
    def add_span(
        self, name: str, track: str, start: float, end: float, **args
    ) -> Span:
        """Record a completed span with explicit times."""
        if end < start:
            raise ValueError(f"span {name!r} ends before it starts")
        span = Span(name=name, track=track, start=start, end=end, args=args)
        self.spans.append(span)
        return span

    def add_instant(self, name: str, track: str, time: Optional[float] = None, **args) -> Instant:
        """Record a point event (defaults to the clock's current time)."""
        if time is None:
            time = self._now()
        instant = Instant(name=name, track=track, time=time, args=args)
        self.instants.append(instant)
        return instant

    def add_flow(
        self,
        name: str,
        track: str,
        flow_id: int,
        phase: str,
        time: Optional[float] = None,
        **args,
    ) -> FlowEvent:
        """Record one step of a flow chain (see :class:`FlowEvent`)."""
        if phase not in _FLOW_PHASE_ORDER:
            raise ValueError(f"flow phase must be s/t/f, got {phase!r}")
        if time is None:
            time = self._now()
        flow = FlowEvent(
            name=name, track=track, time=time, flow_id=flow_id, phase=phase, args=args
        )
        self.flows.append(flow)
        return flow

    @contextmanager
    def span(self, name: str, track: str, **args) -> Iterator[None]:
        """Context manager recording a span around simulated work.

        Note: only valid around code that advances the *simulation*
        clock synchronously from the caller's perspective (the body of
        an engine iteration driven by ``yield from``).

        A body that raises still gets its span, annotated with
        ``error=<exception type name>`` so faults stay visible in the
        trace; the exception propagates unchanged.
        """
        start = self._now()
        try:
            yield
        except BaseException as exc:
            self.add_span(
                name, track, start, self._now(),
                error=type(exc).__name__, **args,
            )
            raise
        else:
            self.add_span(name, track, start, self._now(), **args)

    # ------------------------------------------------------------------
    # Queries (used by tests and reports)
    # ------------------------------------------------------------------
    def spans_on(self, track: str) -> list[Span]:
        return [s for s in self.spans if s.track == track]

    def utilization(self, track: str, start: float, end: float) -> float:
        """Fraction of [start, end) covered by spans on ``track``.

        Overlapping spans are merged so the result is at most 1.
        """
        if end <= start:
            raise ValueError("window end must be after start")
        intervals = sorted(
            (max(s.start, start), min(s.end, end))
            for s in self.spans_on(track)
            if s.end > start and s.start < end
        )
        covered = 0.0
        cursor = start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return covered / (end - start)

    def critical_path(self, flow_id: int) -> list[Span]:
        """The chain of spans a flow passed through, in causal order.

        For each flow event with ``flow_id`` (ordered by time, then
        phase ``s`` < ``t`` < ``f``), find the *smallest* span on the
        same track enclosing the event's timestamp — the innermost
        activity at that step — and chain the unique spans.  This
        reconstructs a request's journey across engine, AQUA and DMA
        tracks, the textual equivalent of Perfetto's flow arrows.
        """
        events = sorted(
            (f for f in self.flows if f.flow_id == flow_id),
            key=lambda f: (f.time, _FLOW_PHASE_ORDER[f.phase]),
        )
        path: list[Span] = []
        for event in events:
            best: Optional[Span] = None
            for span in self.spans:
                if span.track != event.track:
                    continue
                if span.start <= event.time <= span.end:
                    if best is None or span.duration < best.duration:
                        best = span
            if best is not None and (not path or path[-1] is not best):
                path.append(best)
        return path

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_chrome_events(self) -> list[dict]:
        """The trace as Chrome trace-event dicts (microsecond units)."""
        events = []
        for track, tid in sorted(self._all_tracks().items()):
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
        for span in self.spans:
            events.append(
                {
                    "ph": "X",
                    "name": span.name,
                    "pid": 1,
                    "tid": self._track_id(span.track),
                    "ts": span.start * 1e6,
                    "dur": span.duration * 1e6,
                    "args": span.args,
                }
            )
        for instant in self.instants:
            events.append(
                {
                    "ph": "i",
                    "name": instant.name,
                    "pid": 1,
                    "tid": self._track_id(instant.track),
                    "ts": instant.time * 1e6,
                    "s": "t",
                    "args": instant.args,
                }
            )
        for flow in self.flows:
            event = {
                "ph": flow.phase,
                "name": flow.name,
                "cat": "flow",
                "id": flow.flow_id,
                "pid": 1,
                "tid": self._track_id(flow.track),
                "ts": flow.time * 1e6,
                "args": flow.args,
            }
            if flow.phase == "f":
                # Bind the finish to the enclosing slice (Perfetto
                # otherwise attaches it to the *next* slice on the track).
                event["bp"] = "e"
            events.append(event)
        return events

    def _all_tracks(self) -> dict[str, int]:
        for span in self.spans:
            self._track_id(span.track)
        for instant in self.instants:
            self._track_id(instant.track)
        for flow in self.flows:
            self._track_id(flow.track)
        return self._track_ids

    def export_json(self, path: str) -> None:
        """Write the trace to ``path`` in Chrome trace format."""
        with open(path, "w") as f:
            json.dump({"traceEvents": self.to_chrome_events()}, f)

    def __len__(self) -> int:
        return len(self.spans) + len(self.instants) + len(self.flows)
