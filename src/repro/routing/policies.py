"""Pluggable routing policies for the global request router.

A policy answers exactly one question — *which server frontend should
take this request?* — and must answer it **deterministically**: the
frontier sweeps are byte-identical across serial, ``--jobs N`` and
warm-cache replay only if routing is a pure function of the arrival
sequence.  That rules out Python's seeded ``hash()`` for placement
(session affinity uses SHA-256 instead) and any randomised tie-break
(ties always resolve to the lowest frontend index).

Policies
--------
``round-robin``
    Cycle through frontends in index order, load-blind.
``least-loaded``
    Send to the frontend with the smallest backlog; ties break to the
    lowest index.
``session-affinity``
    Pin each user to a home frontend (sticky SHA-256 placement) so
    multi-turn KV/prefix state stays warm; when the home queue is full,
    the request reroutes to the least-loaded alternative while the home
    mapping itself stays stable.
``slo-aware``
    Prefer the frontend with the best recent per-server TTFT
    attainment, read from the PR 8 :class:`~repro.telemetry.slo.SLOTracker`
    at scrape ticks (scores are cached between ticks, so routing stays
    O(servers) per request).
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.routing.frontend import ServerFrontend
    from repro.serving.request import Request
    from repro.telemetry.slo import SLOTracker


def _least_loaded_index(frontends: Sequence["ServerFrontend"]) -> int:
    """Smallest backlog wins; equal backlogs break to the lowest index."""
    return min(range(len(frontends)), key=lambda i: (frontends[i].depth, i))


def stable_home(user: object, n: int) -> int:
    """Deterministic user → frontend placement.

    SHA-256 of the user id, not ``hash()``: Python string hashing is
    randomised per process, which would make routing — and every cached
    frontier cell — irreproducible.
    """
    digest = hashlib.sha256(str(user).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n


class RoutingPolicy:
    """Base class: ``choose`` a frontend, optionally ``fallback``."""

    name = "base"

    def choose(
        self,
        request: "Request",
        tenant: str,
        frontends: Sequence["ServerFrontend"],
    ) -> int:
        raise NotImplementedError

    def fallback(
        self,
        request: "Request",
        tenant: str,
        frontends: Sequence["ServerFrontend"],
        chosen: int,
    ) -> Optional[int]:
        """Second chance after a queue-full verdict on ``chosen``.

        Return an alternative frontend index, or ``None`` to shed.  The
        default is to shed: most policies already picked the best queue.
        """
        return None

    def refresh(self, now: float) -> None:
        """Scrape-tick hook (only the SLO-aware policy uses it)."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class RoundRobinPolicy(RoutingPolicy):
    """Cycle through frontends in index order, ignoring load."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def choose(self, request, tenant, frontends):
        idx = self._next % len(frontends)
        self._next = (idx + 1) % len(frontends)
        return idx


class LeastLoadedPolicy(RoutingPolicy):
    """Join the shortest queue; deterministic lowest-index tie-break."""

    name = "least-loaded"

    def choose(self, request, tenant, frontends):
        return _least_loaded_index(frontends)


class SessionAffinityPolicy(RoutingPolicy):
    """Sticky per-user placement with least-loaded overflow.

    The first request from a user fixes its *home* frontend via
    :func:`stable_home`; every later request goes home too, keeping
    multi-turn KV/prefix state on one server.  Userless requests fall
    back to least-loaded.  When the home queue is full the request is
    rerouted (see :meth:`fallback`) but the home mapping is **not**
    rewritten — affinity survives reroutes, which is exactly the
    stability property ``tests/test_routing_properties.py`` pins down.
    """

    name = "session-affinity"

    def __init__(self) -> None:
        self._home: dict = {}

    def choose(self, request, tenant, frontends):
        if request.user is None:
            return _least_loaded_index(frontends)
        home = self._home.get(request.user)
        if home is None:
            home = stable_home(request.user, len(frontends))
            self._home[request.user] = home
        return home

    def fallback(self, request, tenant, frontends, chosen):
        """Overflow to the least-loaded *other* frontend, home unchanged."""
        if len(frontends) == 1:
            return None
        alternatives = [i for i in range(len(frontends)) if i != chosen]
        return min(alternatives, key=lambda i: (frontends[i].depth, i))


class SLOAwarePolicy(RoutingPolicy):
    """Route to the frontend with the best recent TTFT attainment.

    Wraps the PR 8 :class:`~repro.telemetry.slo.SLOTracker`: the router
    registers one per-server TTFT objective per frontend (named
    ``ttft:<server>``), and this policy reads their windowed attainment.
    Scores are recomputed only at scrape ticks (:meth:`refresh`), so
    routing reads a per-tick snapshot of the SLO state rather than one
    that shifts with every completion.  A server with no
    recent outcomes scores a neutral 1.0 (no evidence against it).
    Ties break least-loaded, then lowest index, so the policy degrades
    to least-loaded when every server is meeting its SLO.
    """

    name = "slo-aware"

    def __init__(
        self,
        tracker: "SLOTracker",
        objective_names: Sequence[str],
        window_s: float = 10.0,
    ) -> None:
        self.tracker = tracker
        self.objective_names = list(objective_names)
        self.window_s = window_s
        self._scores: list = [1.0] * len(self.objective_names)
        #: Indices of the frontends whose score is the highest.
        self._leaders: list = list(range(len(self.objective_names)))

    @property
    def scores(self) -> list:
        """Per-frontend attainment scores as of the last scrape tick."""
        return list(self._scores)

    def refresh(self, now: float) -> None:
        scores = []
        for name in self.objective_names:
            attainment = self.tracker.attainment(name, self.window_s, now)
            scores.append(1.0 if attainment is None else attainment)
        self._scores = scores
        top = max(scores)
        self._leaders = [i for i, score in enumerate(scores) if score == top]

    def choose(self, request, tenant, frontends):
        # Highest score, then smallest depth; a later leader must beat
        # the best so far strictly, so ties go to the lowest index.  A
        # sole leader is chosen without reading any depth.
        leaders = self._leaders
        best = leaders[0]
        if len(leaders) > 1:
            best_depth = frontends[best].depth
            for i in leaders[1:]:
                depth = frontends[i].depth
                if depth < best_depth:
                    best, best_depth = i, depth
        return best


#: Policy registry: the ``aqua-repro frontier --policies`` vocabulary.
#: ``slo-aware`` needs a tracker, so the router constructs it specially;
#: the factories here cover the tracker-free policies.
POLICIES = {
    RoundRobinPolicy.name: RoundRobinPolicy,
    LeastLoadedPolicy.name: LeastLoadedPolicy,
    SessionAffinityPolicy.name: SessionAffinityPolicy,
    SLOAwarePolicy.name: SLOAwarePolicy,
}

POLICY_NAMES = tuple(POLICIES)


def make_policy(name: str, **kwargs) -> RoutingPolicy:
    """Instantiate a registered policy by name."""
    try:
        factory = POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown routing policy {name!r}; known: {', '.join(POLICIES)}"
        ) from None
    return factory(**kwargs)
