"""The global request router and its conservation ledger.

:class:`GlobalRouter` is the cluster's front door: every request enters
through :meth:`submit`, where it is either **shed** (rate limit or
queue-full, with the reason recorded) or **routed** to one
:class:`~repro.routing.frontend.ServerFrontend` chosen by the active
:class:`~repro.routing.policies.RoutingPolicy`.  There is no third
outcome — the :class:`RequestLedger` holds the books to the same
standard as :mod:`repro.audit` holds byte accounting::

    offered == routed + shed            (total and per tenant)
    completed <= routed                 (frontends never invent work)

and hashes every event into a running SHA-256 digest, so two runs that
routed identically can prove it with one string compare.

The router is pure control plane: it never advances simulation time and
never touches engine state, so importing (or even constructing) it
around a single-server figure rig leaves the audited event stream
byte-identical — ``tests/test_determinism_golden.py`` pins that down.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.audit import AuditViolation
from repro.routing.admission import SHED_REASONS, AdmissionController
from repro.routing.policies import RoutingPolicy, SLOAwarePolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.routing.frontend import ServerFrontend
    from repro.serving.request import Request
    from repro.sim import Environment
    from repro.telemetry.slo import SLOTracker

#: Default tenant for untagged traffic.
DEFAULT_TENANT = "default"

#: Ledger event lines buffered per ``sha256.update`` call.  SHA-256 is
#: streaming, so the digest does not depend on how lines are grouped;
#: the bound keeps the buffer's memory small on long runs.
_HASH_BATCH = 256


class RequestLedger:
    """Shed-aware conservation books for the router.

    Every submission lands in exactly one bucket (routed, or shed with
    a reason); :meth:`check` verifies the conservation law and
    :attr:`digest` commits the full event sequence.  ``listeners``
    receive every event tuple ``(kind, tenant, detail)`` — the property
    suite uses one to keep an independent shadow ledger.
    """

    def __init__(self) -> None:
        self.offered = 0
        self.routed = 0
        self.completed = 0
        self.shed: dict[str, int] = {reason: 0 for reason in SHED_REASONS}
        self.per_tenant: dict[str, dict] = {}
        self.listeners: list[Callable[[str, str, str], None]] = []
        self._hash = hashlib.sha256()
        self._unhashed: list[str] = []

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

    @property
    def digest(self) -> str:
        """SHA-256 over the ledger's event sequence so far."""
        self._flush()
        return self._hash.hexdigest()

    def _flush(self) -> None:
        if self._unhashed:
            self._hash.update("".join(self._unhashed).encode("utf-8"))
            self._unhashed.clear()

    def _tenant(self, tenant: str) -> dict:
        """Open the books of a tenant seen for the first time."""
        self.per_tenant[tenant] = books = {
            "offered": 0,
            "routed": 0,
            "completed": 0,
            "shed": {reason: 0 for reason in SHED_REASONS},
        }
        return books

    # Each record is booked in one call, with no helper on the common
    # path: the router books two or three per request.  The hashed line
    # is ``kind|tenant|detail``; listeners get the detail apart, built
    # only when there are listeners.
    def record_offered(self, tenant: str, request: "Request") -> None:
        self.offered += 1
        (self.per_tenant.get(tenant) or self._tenant(tenant))["offered"] += 1
        lines = self._unhashed
        lines.append(f"offered|{tenant}|{request.req_id}\n")
        if len(lines) >= _HASH_BATCH:
            self._flush()
        for listener in self.listeners:
            listener("offered", tenant, f"{request.req_id}")

    def record_routed(self, tenant: str, request: "Request", frontend: str) -> None:
        self.routed += 1
        (self.per_tenant.get(tenant) or self._tenant(tenant))["routed"] += 1
        lines = self._unhashed
        lines.append(f"routed|{tenant}|{request.req_id}->{frontend}\n")
        if len(lines) >= _HASH_BATCH:
            self._flush()
        for listener in self.listeners:
            listener("routed", tenant, f"{request.req_id}->{frontend}")

    def record_shed(self, tenant: str, request: "Request", reason: str) -> None:
        if reason not in self.shed:
            raise ValueError(f"unknown shed reason {reason!r}")
        self.shed[reason] += 1
        (self.per_tenant.get(tenant) or self._tenant(tenant))["shed"][reason] += 1
        lines = self._unhashed
        lines.append(f"shed|{tenant}|{request.req_id}:{reason}\n")
        if len(lines) >= _HASH_BATCH:
            self._flush()
        for listener in self.listeners:
            listener("shed", tenant, f"{request.req_id}:{reason}")

    def record_completed(self, tenant: str, request: "Request", frontend: str) -> None:
        self.completed += 1
        (self.per_tenant.get(tenant) or self._tenant(tenant))["completed"] += 1
        lines = self._unhashed
        lines.append(f"completed|{tenant}|{request.req_id}@{frontend}\n")
        if len(lines) >= _HASH_BATCH:
            self._flush()
        for listener in self.listeners:
            listener("completed", tenant, f"{request.req_id}@{frontend}")

    # ------------------------------------------------------------------
    def check(self, now: float = 0.0) -> list[AuditViolation]:
        """Conservation violations (empty list means the books balance)."""
        violations = []

        def law(subject: str, ok: bool, message: str) -> None:
            if not ok:
                violations.append(
                    AuditViolation(
                        law="request-conservation",
                        subject=subject,
                        message=message,
                        time=now,
                    )
                )

        law(
            "router",
            self.offered == self.routed + self.shed_total,
            f"offered ({self.offered}) != routed ({self.routed}) "
            f"+ shed ({self.shed_total})",
        )
        law(
            "router",
            self.completed <= self.routed,
            f"completed ({self.completed}) > routed ({self.routed})",
        )
        for tenant, books in self.per_tenant.items():
            shed = sum(books["shed"].values())
            law(
                f"tenant:{tenant}",
                books["offered"] == books["routed"] + shed,
                f"offered ({books['offered']}) != routed ({books['routed']}) "
                f"+ shed ({shed})",
            )
            law(
                f"tenant:{tenant}",
                books["completed"] <= books["routed"],
                f"completed ({books['completed']}) > routed ({books['routed']})",
            )
        totals = {
            "offered": self.offered,
            "routed": self.routed,
            "completed": self.completed,
        }
        for key, total in totals.items():
            per_tenant = sum(
                books[key] for books in self.per_tenant.values()
            )
            law(
                "router",
                per_tenant == total,
                f"per-tenant {key} sum ({per_tenant}) != total ({total})",
            )
        return violations

    def report(self, now: float = 0.0) -> dict:
        """JSON-safe snapshot: totals, per-tenant books, digest, verdict."""
        violations = self.check(now)
        return {
            "offered": self.offered,
            "routed": self.routed,
            "completed": self.completed,
            "shed": dict(self.shed),
            "shed_total": self.shed_total,
            "per_tenant": {
                tenant: {
                    "offered": books["offered"],
                    "routed": books["routed"],
                    "completed": books["completed"],
                    "shed": dict(books["shed"]),
                }
                for tenant, books in self.per_tenant.items()
            },
            "digest": self.digest,
            "ok": not violations,
            "violations": [str(v) for v in violations],
        }


class GlobalRouter:
    """Routes requests across a cluster's server frontends.

    Parameters
    ----------
    env:
        Simulation environment (admission reads its clock).
    frontends:
        The per-server :class:`~repro.routing.frontend.ServerFrontend`
        targets, index order fixed for the run.
    policy:
        The placement policy.
    admission:
        Admission controller; defaults to depth-only shedding with the
        most permissive tenant class.
    tracker:
        Optional :class:`~repro.telemetry.slo.SLOTracker`.  When given,
        every completion is judged against matching objectives (keyed
        by the frontend's name as the engine label) and, if the policy
        is SLO-aware, its scores refresh on :meth:`scrape`.
    """

    def __init__(
        self,
        env: "Environment",
        frontends: Sequence["ServerFrontend"],
        policy: RoutingPolicy,
        admission: Optional[AdmissionController] = None,
        tracker: Optional["SLOTracker"] = None,
    ) -> None:
        if not frontends:
            raise ValueError("router needs at least one frontend")
        self.env = env
        self.frontends = list(frontends)
        self.policy = policy
        self.admission = admission or AdmissionController()
        self.tracker = tracker
        self.ledger = RequestLedger()
        self._tenant_of: dict[int, str] = {}
        for frontend in self.frontends:
            frontend.on_complete.append(self._on_complete)

    # ------------------------------------------------------------------
    def submit(self, request: "Request", tenant: str = DEFAULT_TENANT) -> Optional[int]:
        """Offer one request; returns the frontend index or ``None`` if shed.

        The decision sequence is fixed: rate limit first (cheapest, and
        a rate-shed request must not consume queue space), then policy
        choice, then queue-depth check with one policy fallback attempt.
        A ``req_id`` the router routed and has not seen complete is still
        in flight; offering it again raises ``ValueError`` before
        anything is booked.
        """
        req_id = request.req_id
        tenant_of = self._tenant_of
        if req_id in tenant_of:
            raise ValueError(
                f"request {req_id} is already in flight "
                f"(routed for tenant {tenant_of[req_id]!r})"
            )
        ledger = self.ledger
        ledger.record_offered(tenant, request)
        admission = self.admission
        reason = admission.check_rate(tenant, self.env.now)
        if reason is not None:
            ledger.record_shed(tenant, request, reason)
            return None
        frontends = self.frontends
        chosen = self.policy.choose(request, tenant, frontends)
        frontend = frontends[chosen]
        reason = admission.check_depth(tenant, frontend.depth)
        if reason is not None:
            chosen = self.policy.fallback(request, tenant, frontends, chosen)
            if chosen is None or admission.check_depth(
                tenant, frontends[chosen].depth
            ):
                ledger.record_shed(tenant, request, reason)
                return None
            frontend = frontends[chosen]
        tenant_of[req_id] = tenant
        ledger.record_routed(tenant, request, frontend.name)
        frontend.enqueue(request)
        return chosen

    def _on_complete(self, frontend: "ServerFrontend", request: "Request") -> None:
        tenant = self._tenant_of.pop(request.req_id, None)
        if tenant is None:
            raise RuntimeError(
                f"{frontend.name} completed request {request.req_id}, "
                f"which the router did not route or already completed"
            )
        name = frontend.name
        self.ledger.record_completed(tenant, request, name)
        if self.tracker is not None:
            self.tracker.observe_request(name, request)

    # ------------------------------------------------------------------
    def scrape(self, now: Optional[float] = None) -> None:
        """One observation tick: SLO evaluation + policy score refresh."""
        if now is None:
            now = self.env.now
        if self.tracker is not None:
            self.tracker.on_scrape(now)
        self.policy.refresh(now)

    def scrape_loop(self, interval: float = 1.0):
        """Simulation process running :meth:`scrape` every ``interval``."""
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        while True:
            yield self.env.timeout(interval)
            self.scrape(self.env.now)

    def check(self) -> list[AuditViolation]:
        return self.ledger.check(self.env.now)

    def report(self) -> dict:
        return self.ledger.report(self.env.now)

    def __repr__(self) -> str:
        slo = " +slo" if isinstance(self.policy, SLOAwarePolicy) else ""
        return (
            f"<GlobalRouter {self.policy.name}{slo} "
            f"frontends={len(self.frontends)} offered={self.ledger.offered} "
            f"shed={self.ledger.shed_total}>"
        )
