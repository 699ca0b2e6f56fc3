"""Flight recorder: a bounded ring of recent history plus post-mortems.

A long simulated run can fail hours (of simulated time) in.  Full
Chrome traces answer "why" but are too heavy for million-user sweeps;
end-of-run aggregates answer nothing about *when*.  The
:class:`FlightRecorder` sits between the two: it keeps a bounded
:class:`~collections.deque` of the most recent noteworthy entries —
fault lifecycle events, SLO alerts, and per-scrape metric deltas — and
when something goes wrong (a fault fires, a burn-rate alert trips) it
freezes that ring into a **post-mortem bundle**: a JSON document with
the trigger, the recent history leading up to it, and a snapshot of
the headline metrics at the moment of the trigger.

Like the scraper and SLO tracker, the recorder is observation-only: it
never schedules events or touches simulation state, so audit digests
are identical with it on or off.  Bundles are plain dicts (pickle-safe
for pooled experiment workers) and are optionally written to
``postmortem-NNN.json`` files as they are captured.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.hub import Telemetry

#: Counter families snapshotted into every bundle and diffed per scrape
#: tick — the headline "what was the system doing" numbers.
_SNAPSHOT_FAMILIES = (
    "aqua_engine_requests_completed_total",
    "aqua_engine_tokens_generated_total",
    "aqua_link_bytes_total",
    "aqua_pool_used_bytes",
    "aqua_faults_total",
    "aqua_slo_alerts_total",
)


class FlightRecorder:
    """Bounded recent-history ring with post-mortem capture.

    Parameters
    ----------
    env:
        Simulation environment (provides the clock).
    telemetry:
        Hub whose registry is snapshotted into bundles; optional so the
        recorder can be unit-tested bare.
    capacity:
        Maximum retained ring entries; oldest are dropped silently.
    dump_dir:
        When set, each captured bundle is also written to
        ``<dump_dir>/postmortem-NNN.json``.
    min_gap:
        Minimum simulated seconds between bundle captures.  A fault
        storm or flapping alert produces near-identical bundles;
        the cooldown keeps the first of each episode and notes the
        suppressed triggers as ring entries instead.
    """

    def __init__(
        self,
        env,
        telemetry: Optional["Telemetry"] = None,
        capacity: int = 512,
        dump_dir: Optional[str] = None,
        min_gap: float = 5.0,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.telemetry = telemetry
        self.ring: deque[dict] = deque(maxlen=capacity)
        self.bundles: list[dict] = []
        self.dump_dir = dump_dir
        self.min_gap = min_gap
        self.dropped = 0
        self.suppressed = 0
        self._last_capture: Optional[float] = None
        #: The previous tick's snapshot (``None`` before the first tick).
        self._last_snapshot: Optional[dict[str, float]] = None

    # ------------------------------------------------------------------
    # Ring ingestion
    # ------------------------------------------------------------------
    def record(self, kind: str, **payload) -> dict:
        """Append one entry to the ring; returns the entry."""
        if len(self.ring) == self.ring.maxlen:
            self.dropped += 1
        entry = {"t": self.env.now, "kind": kind, **payload}
        self.ring.append(entry)
        return entry

    def on_fault(self, kind: str, phase: str, targets=None) -> None:
        """Fault-injector hook: log the lifecycle event; capture a
        post-mortem when a fault is *applied* (not when it clears)."""
        self.record("fault", fault=kind, phase=phase, targets=list(targets or ()))
        if phase == "apply":
            self.trigger(f"fault:{kind}", fault=kind, targets=list(targets or ()))

    def on_alert(self, alert: dict) -> None:
        """SLO-tracker hook: log the alert and capture a post-mortem."""
        self.record(
            "slo-alert",
            slo=alert["slo"],
            severity=alert["severity"],
            burn_long=alert["burn_long"],
            burn_short=alert["burn_short"],
        )
        self.trigger(f"slo:{alert['slo']}", alert=dict(alert))

    def on_scrape(self, now: float) -> None:
        """Scraper observer: record headline metric deltas for ticks
        where something actually moved (quiet ticks stay out of the
        ring so the bounded history covers more wall time)."""
        snapshot = self._snapshot()
        last = self._last_snapshot
        if last is not None:
            deltas = {
                key: value - last.get(key, 0.0)
                for key, value in snapshot.items()
                if value != last.get(key, 0.0)
            }
            if deltas:
                self.record("metrics", deltas=deltas)
        self._last_snapshot = snapshot

    # ------------------------------------------------------------------
    # Post-mortem capture
    # ------------------------------------------------------------------
    def trigger(self, reason: str, **context) -> Optional[dict]:
        """Freeze the ring into a post-mortem bundle.

        Returns the bundle, or ``None`` when the capture was suppressed
        by the ``min_gap`` cooldown (the suppression itself is recorded
        in the ring so the preceding bundle's follow-up shows it).
        """
        now = self.env.now
        if self._last_capture is not None and now - self._last_capture < self.min_gap:
            self.suppressed += 1
            self.record("postmortem-suppressed", reason=reason)
            return None
        self._last_capture = now
        bundle = {
            "schema": "aqua-postmortem/v1",
            "seq": len(self.bundles),
            "t": now,
            "reason": reason,
            "context": context,
            "metrics": self._snapshot(),
            "ring": list(self.ring),
            "dropped": self.dropped,
            "suppressed": self.suppressed,
        }
        self.bundles.append(bundle)
        if self.dump_dir is not None:
            bundle["path"] = self._dump(bundle)
        self.record("postmortem", reason=reason, seq=bundle["seq"])
        return bundle

    def _dump(self, bundle: dict) -> str:
        os.makedirs(self.dump_dir, exist_ok=True)
        path = os.path.join(self.dump_dir, f"postmortem-{bundle['seq']:03d}.json")
        with open(path, "w") as fh:
            json.dump(bundle, fh, indent=2, sort_keys=True)
        return path

    def _snapshot(self) -> dict[str, float]:
        """Current values of the headline families, keyed by rendered
        sample name in exposition order (empty when no telemetry hub is
        attached).  Keys come rendered from
        :meth:`~repro.telemetry.registry.Family.keyed_children`."""
        if self.telemetry is None:
            return {}
        snapshot: dict[str, float] = {}
        for family in self.telemetry.registry.collect():
            if family.name not in _SNAPSHOT_FAMILIES:
                continue
            for _, child, keys in family.keyed_children():
                for key, value in zip(keys, child.scalar_values()):
                    snapshot[key] = value
        return snapshot

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Pickle/JSON-safe export: ring, bundles and drop accounting."""
        return {
            "capacity": self.ring.maxlen,
            "dropped": self.dropped,
            "suppressed": self.suppressed,
            "ring": list(self.ring),
            "bundles": [dict(b) for b in self.bundles],
        }
