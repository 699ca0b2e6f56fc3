"""The one path observation settings take to a simulation.

The CLI turns ``--trace``, ``--scrape-interval`` and ``--dashboard``
into an :class:`Observation` and runs the command inside
:func:`observing`.  Every rig
:func:`~repro.experiments.harness.build_consumer_rig` builds in the
context gets its server's :class:`~repro.telemetry.Telemetry` hub, and
each hub is exported once as plain data when the context closes, named
after its server's first rig: its Chrome trace events and, when scraped,
its dashboard data (which carries the observability report).  The trace
is the same whether or not the context scrapes.

:func:`~repro.experiments.pool.run_specs` is the only process boundary:
each cell runs inside its own :func:`observing` context with the
caller's settings, inline or in a worker, and returns its exports with
its value; the parent merges them in submission order, and the run
cache stores and replays them.  Serial, pooled and cached runs
therefore export the same bytes.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional


@dataclass(frozen=True)
class Observation:
    """What to observe: a Chrome trace of every server, and metric scrapes
    every ``scrape_interval`` simulated seconds (with the flight recorder
    and the :func:`~repro.telemetry.default_slo_policy` SLO tracker)."""

    trace: bool = False
    scrape_interval: Optional[float] = None

    def __bool__(self) -> bool:
        return self.trace or self.scrape_interval is not None


class ObservationFrame:
    """One :func:`observing` context: its settings and what it has seen."""

    def __init__(self, settings: Observation, label: Optional[str]) -> None:
        self.settings = settings
        self.label = label
        self._entries: list = []  # one rig per hub, and exports merged from cells
        self._hubs: set = set()

    def adopt(self, rig) -> None:
        """Register ``rig``'s hub for export, through the first rig on it."""
        if rig.telemetry not in self._hubs:
            self._hubs.add(rig.telemetry)
            self._entries.append(rig)

    def merge(self, exports: list[dict]) -> None:
        self._entries.extend(exports)

    def export(self) -> list[dict]:
        """Every entry as plain data, in order, named
        ``<label>/<consumer engine>`` (the first engine of a rig with no
        consumer; a repeated name gets ``#2``...)."""
        exports, seen = [], {}
        for entry in self._entries:
            export = entry if isinstance(entry, dict) else self._export_rig(entry)
            seen[export["name"]] = n = seen.get(export["name"], 0) + 1
            exports.append(export if n == 1 else dict(export, name=f"{export['name']}#{n}"))
        return exports

    def _export_rig(self, rig) -> dict:
        name = (rig.consumer_engine or next(iter(rig.engines.values()))).name
        export = {"name": f"{self.label}/{name}" if self.label else name}
        if self.settings.trace:
            export["trace"] = rig.telemetry.tracer.to_chrome_events()
        if self.settings.scrape_interval is not None:
            from repro.telemetry.dashboard import dashboard_data

            export["dashboard"] = dashboard_data(rig.telemetry, title=export["name"])
        return export


_FRAMES: list[ObservationFrame] = []


def observation_frame() -> Optional[ObservationFrame]:
    """The innermost active :func:`observing` context, if any."""
    return _FRAMES[-1] if _FRAMES else None


@contextmanager
def observing(
    settings: Optional[Observation], label: Optional[str] = None
) -> Iterator[list[dict]]:
    """Observe the server of every rig built in the body, per ``settings``.

    Yields a list that receives the rigs' exports when the context
    closes, also when the body raises.  Falsy ``settings`` observe
    nothing.
    """
    exports: list[dict] = []
    if not settings:
        yield exports
        return
    frame = ObservationFrame(settings, label)
    _FRAMES.append(frame)
    try:
        yield exports
    finally:
        _FRAMES.pop()
        exports.extend(frame.export())
