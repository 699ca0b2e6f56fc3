"""Admission control and load shedding for the global request router.

Overload is a *policy* decision, not an accident: when offered load
exceeds cluster capacity, something must give, and the router makes it
give **explicitly**.  A request that cannot be served is *shed* — it is
counted in the router's conservation ledger with a reason, it is never
silently dropped.  Two mechanisms gate admission:

**token-bucket rate limits**
    Each tenant may carry an optional ``(rate, burst)`` token bucket —
    the classic shape-then-shed limiter.  Buckets refill on the
    *simulation* clock, so admission decisions are a pure function of
    the arrival sequence and therefore deterministic.

**queue-depth shedding with per-tenant priorities**
    The chosen server's backlog (queued + in service) is compared to
    the tenant's *effective* depth limit.  Priority 0 (interactive)
    tenants may fill the whole queue; each lower priority level halves
    the depth it may occupy (``limit >> priority``), so batch and
    background traffic is shed first as queues build — strict priority
    shedding without preemption.

Both decisions are made at submission time by
:class:`~repro.routing.router.GlobalRouter`; this module only answers
"may this request enter?".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Shed reasons recorded in the router's conservation ledger.
SHED_RATE_LIMIT = "rate-limit"
SHED_QUEUE_FULL = "queue-full"
SHED_REASONS = (SHED_RATE_LIMIT, SHED_QUEUE_FULL)


class TokenBucket:
    """A deterministic token bucket on the simulation clock.

    ``rate`` tokens/s refill continuously up to ``burst`` capacity;
    each admitted request spends one token.  The bucket starts full.
    """

    __slots__ = ("rate", "burst", "_tokens", "_last")

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last = 0.0

    @property
    def tokens(self) -> float:
        """Tokens available at the last refill point (diagnostic)."""
        return self._tokens

    def allow(self, now: float) -> bool:
        """Spend one token if available; refills for elapsed sim time."""
        if now > self._last:
            self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
            self._last = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


@dataclass(frozen=True)
class TenantClass:
    """Admission parameters for one tenant.

    Parameters
    ----------
    name:
        Tenant identifier (ledger key).
    priority:
        0 is highest.  Each level halves the queue depth the tenant may
        occupy, so lower-priority traffic sheds first under overload.
    rate_limit:
        Optional token-bucket refill rate (requests/s).  ``None``
        disables rate limiting for the tenant.
    burst:
        Token-bucket capacity when ``rate_limit`` is set.
    """

    name: str
    priority: int = 0
    rate_limit: Optional[float] = None
    burst: float = 16.0

    def __post_init__(self) -> None:
        if self.priority < 0:
            raise ValueError(f"priority must be >= 0, got {self.priority}")


class AdmissionController:
    """Per-tenant token buckets plus priority-scaled depth limits.

    Unknown tenants get a default :class:`TenantClass` (priority 0, no
    rate limit) so the router never crashes on new traffic — it just
    applies the most permissive class.  A tenant's depth limit is fixed
    on its first :meth:`check_depth` and kept: the router asks once per
    routed request.
    """

    def __init__(
        self,
        tenants: Optional[list[TenantClass]] = None,
        max_queue_depth: int = 32,
    ) -> None:
        if max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {max_queue_depth}")
        self.max_queue_depth = max_queue_depth
        self.classes: dict[str, TenantClass] = {
            t.name: t for t in (tenants or [])
        }
        self._buckets: dict[str, TokenBucket] = {
            t.name: TokenBucket(t.rate_limit, t.burst)
            for t in (tenants or [])
            if t.rate_limit is not None
        }
        self._depth_limits: dict[str, int] = {}

    def tenant_class(self, tenant: str) -> TenantClass:
        cls = self.classes.get(tenant)
        if cls is None:
            cls = TenantClass(name=tenant)
            self.classes[tenant] = cls
        return cls

    def depth_limit(self, tenant: str) -> int:
        """Effective queue-depth limit: halved per priority level."""
        priority = self.tenant_class(tenant).priority
        return max(1, self.max_queue_depth >> priority)

    def check_rate(self, tenant: str, now: float) -> Optional[str]:
        """Token-bucket verdict: ``None`` to admit, else a shed reason."""
        bucket = self._buckets.get(tenant)
        if bucket is not None and not bucket.allow(now):
            return SHED_RATE_LIMIT
        return None

    def check_depth(self, tenant: str, depth: int) -> Optional[str]:
        """Queue-depth verdict against the tenant's effective limit."""
        limit = self._depth_limits.get(tenant)
        if limit is None:
            limit = self._depth_limits[tenant] = self.depth_limit(tenant)
        if depth >= limit:
            return SHED_QUEUE_FULL
        return None
