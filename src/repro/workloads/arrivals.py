"""Arrival processes: Poisson streams, closed-loop users, and
time-varying (non-homogeneous Poisson) open-loop traffic.

The NHPP generators use **thinning with a shared master process**: one
homogeneous Poisson stream at a fixed ``rate_cap`` is drawn first —
arrival times *and* every per-arrival attribute (keep-uniform, tenant
assignment, token counts, user id) in a single pass — and each arrival
is then kept with probability ``rate · shape(t) / rate_cap``.  Because
the master stream and the keep-uniforms depend only on
``(seed, rate_cap, duration)``, traces at different offered loads are
**nested by construction**: every request in the 10 req/s trace appears,
bit-identically (same time, tokens, user, id), in the 40 req/s trace
drawn from the same seed and cap.  That nesting is what makes shed-rate
monotonicity in offered load a *structural* property the routing test
suite can assert exactly, rather than a statistical tendency it can
only bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Generator, Iterator, Optional, Sequence

import numpy as np

from repro.serving.request import Request
from repro.sim import Environment


def poisson_arrival_times(
    rng: np.random.Generator, rate: float, count: int, start: float = 0.0
) -> list[float]:
    """``count`` arrival times of a Poisson process of ``rate`` req/s.

    The paper issues interactive requests "using Poisson distribution
    for request arrival times" at 1-10 req/s, like vLLM's benchmarks.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    gaps = rng.exponential(scale=1.0 / rate, size=count)
    return list(start + np.cumsum(gaps))


def submit_at(env: Environment, engine, request: Request) -> None:
    """Schedule a request's submission at its arrival time, in the
    engine's domain (global for an engine without one)."""

    def deliver(env):
        delay = request.arrival_time - env.now
        if delay > 0:
            yield env.timeout(delay)
        request.arrival_time = env.now
        engine.submit(request)

    env.process(deliver(env)).domain = getattr(engine, "domain", None)


def submit_all(env: Environment, engine, requests: list[Request]) -> None:
    """Schedule a whole trace of requests onto an engine."""
    for request in requests:
        submit_at(env, engine, request)


def closed_loop_user(
    env: Environment,
    engine,
    make_request: Callable[[int], Request],
    turns: int,
    think_time: Callable[[], float],
    user: Optional[int] = None,
) -> Generator:
    """One closed-loop user: submit, await the response, think, repeat.

    This is the chatbot pattern of §8: each user issues one prompt,
    waits for the full response, then (after a think-time gap) sends
    the next turn.
    """
    if turns < 1:
        raise ValueError(f"turns must be >= 1, got {turns}")
    for turn in range(turns):
        request = make_request(turn)
        request.user = user
        request.on_finish = env.event()
        request.arrival_time = env.now
        engine.submit(request)
        yield request.on_finish
        if turn < turns - 1:
            think = think_time()
            if not think >= 0:  # NaN too
                raise ValueError(f"think time must be >= 0, got {think}")
            yield env.timeout(think)


# ---------------------------------------------------------------------------
# Time-varying (non-homogeneous Poisson) open-loop traffic
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RateShape:
    """A normalised rate multiplier ``shape(t)`` with a declared peak.

    ``fn`` maps trace-relative time to a non-negative multiplier on the
    nominal offered rate; ``peak`` is an upper bound on ``fn`` over the
    trace, which the thinning sampler needs to validate that
    ``rate · peak <= rate_cap`` (keep probabilities must stay <= 1).
    """

    fn: Callable[[float], float]
    peak: float
    name: str = "shape"

    def __post_init__(self) -> None:
        if self.peak <= 0:
            raise ValueError(f"peak must be positive, got {self.peak}")

    def __call__(self, t: float) -> float:
        return self.fn(t)


def steady_shape() -> RateShape:
    """Constant rate: the NHPP degenerates to plain Poisson."""
    return RateShape(fn=lambda t: 1.0, peak=1.0, name="steady")


def diurnal_shape(
    period: float = 120.0, amplitude: float = 0.5, phase: float = 0.0
) -> RateShape:
    """A compressed day: ``1 - amplitude·cos(2π(t - phase)/period)``.

    Mean multiplier 1.0, trough ``1 - amplitude``, peak
    ``1 + amplitude``.  Real diurnal cycles are 86 400 s; simulated
    frontier cells compress one "day" into ``period`` seconds (pass
    ``period=duration`` for exactly one cycle per run).  ``phase``
    shifts the trough — multi-region mixes use it to stagger time
    zones (see :func:`multi_region_tenants`).
    """
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    if not 0.0 <= amplitude < 1.0:
        raise ValueError(f"amplitude must be in [0, 1), got {amplitude}")
    omega = 2.0 * math.pi / period
    return RateShape(
        fn=lambda t: 1.0 - amplitude * math.cos(omega * (t - phase)),
        peak=1.0 + amplitude,
        name=f"diurnal(period={period:g},amp={amplitude:g},phase={phase:g})",
    )


def flash_crowd_shape(
    at: float, magnitude: float = 4.0, ramp: float = 2.0, hold: float = 5.0
) -> RateShape:
    """Baseline 1.0 with a trapezoidal spike to ``magnitude``.

    Traffic ramps linearly from 1.0 to ``magnitude`` over ``ramp``
    seconds starting at ``at - ramp``, holds the peak for ``hold``
    seconds, then ramps back down — the thundering-herd profile a
    shedding policy must absorb without collapsing goodput for traffic
    outside the spike.
    """
    if magnitude < 1.0:
        raise ValueError(f"magnitude must be >= 1, got {magnitude}")
    if ramp <= 0 or hold < 0:
        raise ValueError(f"need ramp > 0 and hold >= 0, got {ramp}, {hold}")

    def fn(t: float) -> float:
        if t < at - ramp or t > at + hold + ramp:
            return 1.0
        if t < at:
            return 1.0 + (magnitude - 1.0) * (t - (at - ramp)) / ramp
        if t <= at + hold:
            return magnitude
        return 1.0 + (magnitude - 1.0) * ((at + hold + ramp) - t) / ramp

    return RateShape(
        fn=fn,
        peak=magnitude,
        name=f"flash(at={at:g},mag={magnitude:g})",
    )


@dataclass(frozen=True)
class TenantProfile:
    """One tenant's share of an open-loop mix.

    ``weight`` is the tenant's fraction of master arrivals (normalised
    across the mix); ``shape`` modulates *that tenant's* offered rate
    over time, so different tenants can peak at different times.
    """

    name: str
    weight: float = 1.0
    shape: Optional[RateShape] = None

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")


def multi_region_tenants(
    n: int = 3,
    period: float = 120.0,
    amplitude: float = 0.5,
    prefix: str = "region",
) -> list[TenantProfile]:
    """Equal-weight tenants with phase-staggered diurnal shapes.

    Region ``i`` peaks ``period·i/n`` later than region 0 — the
    follow-the-sun mix where aggregate load is flatter than any single
    region's, and a global router can absorb one region's peak with
    another's trough.
    """
    if n < 1:
        raise ValueError(f"need >= 1 region, got {n}")
    return [
        TenantProfile(
            name=f"{prefix}{i}",
            weight=1.0,
            shape=diurnal_shape(
                period=period, amplitude=amplitude, phase=period * i / n
            ),
        )
        for i in range(n)
    ]


#: Master arrivals the stream turns into Python objects at a time.
_THINNING_CHUNK = 4096


def _master_arrival_times(
    rng: np.random.Generator, rate_cap: float, duration: float
) -> np.ndarray:
    """Homogeneous master-process arrival times in ``[0, duration]``.

    Chunked exponential draws; the realised sequence depends only on
    the generator state and ``(rate_cap, duration)`` — never on the
    thinned target rate, which is what keeps traces nested.
    """
    chunks = []
    last = 0.0
    while last <= duration:
        gaps = rng.exponential(scale=1.0 / rate_cap, size=512)
        chunks.append(last + np.cumsum(gaps))
        last = float(chunks[-1][-1])
    times = np.concatenate(chunks)
    return times[: np.searchsorted(times, duration, side="right")]


def nhpp_stream(
    rate: float,
    duration: float,
    *,
    seed: int = 0,
    rate_cap: Optional[float] = None,
    shape: Optional[RateShape] = None,
    tenants: Optional[Sequence[TenantProfile]] = None,
    start: float = 0.0,
    prompt_tokens: tuple[int, int] = (16, 256),
    max_new_tokens: tuple[int, int] = (16, 160),
    users: int = 512,
) -> Iterator[tuple[str, Request]]:
    """A seeded open-loop stream of ``(tenant, request)`` pairs.

    Thinning over a shared master process (see the module docstring):
    arrival ``i`` of the master stream is kept iff its pre-drawn
    uniform is below ``rate · shape_tenant(t_i) / rate_cap``.  All
    per-arrival attributes — including ``req_id``, set to the master
    index — are drawn before thinning, so for a fixed
    ``(seed, rate_cap, duration)`` the trace at a lower ``rate`` is a
    strict subset of the trace at a higher one, request for request.

    **Sweeps must pass one explicit ``rate_cap`` covering every point**
    (``rate_cap >= max_rate · peak``); the default cap is derived from
    this call's own rate, which preserves determinism but not nesting
    across calls with different rates.

    ``shape`` applies to every tenant that does not carry its own;
    ``tenants`` defaults to a single ``"default"`` tenant.  Token
    counts are uniform over the inclusive ranges given; users are drawn
    from ``range(users)`` so session-affinity policies see repeat
    visitors.

    The arguments are checked and every master column is drawn at the
    call (48 bytes per master arrival); the pairs are built only as the
    consumer reaches them, so a drive loop whose requests are dropped
    once served holds only the requests in flight.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    base_shape = shape or steady_shape()
    profiles = list(tenants) if tenants else [TenantProfile(name="default")]
    shapes = [p.shape or base_shape for p in profiles]
    needed = rate * max(s.peak for s in shapes)
    if rate_cap is None:
        rate_cap = needed
    if rate_cap < needed - 1e-9:
        raise ValueError(
            f"rate_cap ({rate_cap:g}) < rate x peak shape ({needed:g}); "
            f"thinning keep-probability would exceed 1"
        )

    rng = np.random.default_rng(seed)
    times = _master_arrival_times(rng, rate_cap, duration)
    n = len(times)
    keep_u = rng.random(n)
    tenant_u = rng.random(n)
    prompts = rng.integers(
        prompt_tokens[0], prompt_tokens[1], size=n, endpoint=True
    )
    news = rng.integers(
        max_new_tokens[0], max_new_tokens[1], size=n, endpoint=True
    )
    user_ids = rng.integers(0, max(1, users), size=n)

    total_weight = sum(p.weight for p in profiles)
    boundaries = np.cumsum([p.weight / total_weight for p in profiles])
    last_tenant = len(profiles) - 1
    names = [p.name for p in profiles]
    fns = [s.fn for s in shapes]

    def pairs() -> Iterator[tuple[str, Request]]:
        # The loop reads plain Python numbers, one chunk of master
        # arrivals at a time so that only one chunk's lists are alive
        # at once; each chunk picks its tenants with one vectorised
        # lookup.  The thinning test stays a per-arrival Python call:
        # ``shape.fn`` uses ``math`` functions, which a vectorised
        # ``np`` twin could round differently in the last place.
        for lo in range(0, n, _THINNING_CHUNK):
            hi = lo + _THINNING_CHUNK
            tenant_ix = np.minimum(
                np.searchsorted(boundaries, tenant_u[lo:hi], side="right"),
                last_tenant,
            )
            for i, t, keep, which, prompt, new, user in zip(
                range(lo, min(hi, n)),
                times[lo:hi].tolist(),
                keep_u[lo:hi].tolist(),
                tenant_ix.tolist(),
                prompts[lo:hi].tolist(),
                news[lo:hi].tolist(),
                user_ids[lo:hi].tolist(),
            ):
                if keep * rate_cap >= rate * fns[which](t):
                    continue
                yield (
                    names[which],
                    Request(
                        arrival_time=start + t,
                        prompt_tokens=prompt,
                        max_new_tokens=new,
                        user=user,
                        req_id=i,
                    ),
                )

    return pairs()
