"""The cluster serving frontier: offered load vs goodput/SLO/shed.

``aqua-repro frontier`` maps, for each routing policy, the curve from
offered load to what the cluster actually delivers: **goodput**
(SLO-good completions per second), **SLO attainment** (fraction of
completions meeting the TTFT deadline) and **shed rate** (fraction of
offered requests the router refused, by reason).  One
:func:`frontier_cell` is one sealed simulation — an NHPP open-loop
trace driven through a :class:`~repro.routing.router.GlobalRouter`
over a :class:`~repro.hardware.cluster.Cluster` of per-server serving
frontends — so the grid fans out through :mod:`repro.experiments.pool`
and memoises in the content-addressed :class:`RunCache` like every
other experiment.

Two determinism properties matter here and are locked down in
``tests/test_determinism_golden.py`` and
``tests/test_routing_properties.py``:

* every cell value (including the ledger's event digest) is a pure
  function of its kwargs + seed, so serial, ``--jobs N`` and
  warm-cache runs are byte-identical;
* all cells of one sweep share a seed and a ``rate_cap``, so their
  arrival traces are **nested** across rates (see
  :func:`repro.workloads.arrivals.nhpp_stream`) and shed-rate
  monotonicity in offered load is structural, not statistical.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.experiments.pool import RunCache, RunSpec, derive_seed, run_specs
from repro.models.llm import MISTRAL_7B
from repro.routing import (
    AdmissionController,
    GlobalRouter,
    ServerFrontend,
    SLOAwarePolicy,
    TenantClass,
    make_policy,
)
from repro.routing.policies import POLICY_NAMES
from repro.telemetry.slo import BurnRateWindow, SLObjective, SLOPolicy, SLOTracker
from repro.workloads.arrivals import (
    diurnal_shape,
    flash_crowd_shape,
    multi_region_tenants,
    nhpp_stream,
    steady_shape,
)

#: Named workload mixes: name -> (peak shape multiplier, description).
#: The peak is what sizes ``rate_cap`` for a sweep (cap >= max_rate x
#: peak keeps every thinning probability <= 1).
WORKLOADS = {
    "steady": (1.0, "constant-rate Poisson"),
    "diurnal": (1.5, "one compressed diurnal cycle per run"),
    "flash": (4.0, "steady base with a 4x flash crowd mid-run"),
    "regions": (1.5, "three equal tenants, phase-staggered diurnal"),
}

#: TTFT deadline (seconds) a completion must meet to count as goodput.
DEFAULT_TTFT_SLO = 1.0


def _workload(name: str, duration: float):
    """Resolve a workload name to ``(shape, tenants)`` for the trace."""
    if name == "steady":
        return steady_shape(), None
    if name == "diurnal":
        return diurnal_shape(period=duration), None
    if name == "flash":
        return flash_crowd_shape(at=duration / 2.0, hold=duration / 8.0), None
    if name == "regions":
        return None, multi_region_tenants(n=3, period=duration)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


def _slo_policy(server_names: Sequence[str], ttft_slo: float) -> SLOPolicy:
    """Per-server TTFT objectives the SLO-aware policy routes on.

    Short alerting windows keep the tracker's outcome horizon (and so
    its memory and scan cost) bounded to seconds of simulated time.
    """
    return SLOPolicy(
        name="frontier",
        objectives=[
            SLObjective(
                name=f"ttft:{name}",
                tenant=name,
                metric="ttft",
                threshold=ttft_slo,
                target=0.9,
            )
            for name in server_names
        ],
        windows=(BurnRateWindow(long_s=10.0, short_s=2.0, factor=6.0),),
    )


def _drive(env, router, trace):
    """Submit an open-loop trace through the router, in arrival order.

    ``trace`` is any iterable of ``(tenant, request)`` pairs in arrival
    order: a list, or an :func:`~repro.workloads.arrivals.nhpp_stream`
    that builds each request only when this loop reaches it.  Sleeps
    are bare delays (nothing interrupts this process), which the kernel
    orders exactly like ``env.timeout``.
    """
    for tenant, request in trace:
        delay = request.arrival_time - env.now
        if delay > 0:
            yield delay
        router.submit(request, tenant)


def frontier_cell(
    policy: str = "least-loaded",
    rate: float = 20.0,
    duration: float = 30.0,
    rate_cap: Optional[float] = None,
    workload: str = "diurnal",
    n_servers: int = 4,
    concurrency: int = 8,
    max_queue_depth: int = 32,
    ttft_slo: float = DEFAULT_TTFT_SLO,
    drain: float = 15.0,
    prompt_range=(16, 128),
    new_range=(8, 64),
    seed: int = 0,
) -> dict:
    """One sealed frontier point: a policy at one offered load.

    Returns a JSON-safe dict of offered/routed/shed/completed counts,
    goodput, attainment, shed rate and the ledger digest.  Sweeps must
    pass the sweep-wide ``rate_cap`` so traces nest across rates; a
    single cell may omit it (the cap then derives from its own rate).
    """
    from repro.hardware.cluster import Cluster
    from repro.sim import Environment

    if drain < 0:
        # A negative drain would stop the run before ``duration`` and
        # silently cut off the offered trace.
        raise ValueError(f"drain must be >= 0, got {drain}")
    shape, tenants = _workload(workload, duration)
    trace = nhpp_stream(
        rate,
        duration,
        seed=seed,
        rate_cap=rate_cap,
        shape=shape,
        tenants=tenants,
        prompt_tokens=(int(prompt_range[0]), int(prompt_range[1])),
        max_new_tokens=(int(new_range[0]), int(new_range[1])),
    )

    env = Environment()
    cluster = Cluster(env, n_servers=n_servers)
    frontends = [
        ServerFrontend(env, server, MISTRAL_7B, concurrency=concurrency)
        for server in cluster
    ]
    tracker = SLOTracker(
        env, _slo_policy([f.name for f in frontends], ttft_slo)
    )
    if policy == SLOAwarePolicy.name:
        routing = SLOAwarePolicy(
            tracker, [f"ttft:{f.name}" for f in frontends]
        )
    else:
        routing = make_policy(policy)
    admission = AdmissionController(
        tenants=[TenantClass(name=t.name) for t in (tenants or [])],
        max_queue_depth=max_queue_depth,
    )
    router = GlobalRouter(env, frontends, routing, admission, tracker=tracker)
    env.process(_drive(env, router, trace))
    env.process(router.scrape_loop(1.0))
    # Stop offering at ``duration``; drain lets queued work finish so
    # goodput reflects served requests, not an arbitrary cut-off.
    env.run(until=duration + drain)

    violations = router.check()
    # Goodput: the completions that met the TTFT deadline, which the
    # tracker's objective for each server has judged as they finished.
    good = sum(o["good"] for o in tracker.report()["objectives"].values())
    ledger = router.ledger
    completed = sum(f.completed for f in frontends)
    tokens = sum(f.tokens for f in frontends)
    return {
        "policy": routing.name,
        "rate": rate,
        "rate_cap": rate_cap,
        "workload": workload,
        "duration": duration,
        "n_servers": n_servers,
        "offered": ledger.offered,
        "routed": ledger.routed,
        "completed": ledger.completed,
        "shed": dict(ledger.shed),
        "shed_total": ledger.shed_total,
        "shed_rate": ledger.shed_total / ledger.offered if ledger.offered else 0.0,
        "goodput": good / duration,
        "attainment": good / completed if completed else None,
        "tokens_per_s": tokens / duration,
        "per_tenant": {
            tenant: {
                "offered": books["offered"],
                "routed": books["routed"],
                "completed": books["completed"],
                "shed": sum(books["shed"].values()),
            }
            for tenant, books in ledger.per_tenant.items()
        },
        "per_server_completed": [f.completed for f in frontends],
        "ledger_digest": ledger.digest,
        "ledger_ok": not violations,
        "violations": [str(v) for v in violations],
    }


def frontier_sweep(
    rates: Sequence[float] = (8.0, 24.0, 48.0, 96.0),
    policies: Sequence[str] = POLICY_NAMES,
    duration: float = 30.0,
    workload: str = "diurnal",
    n_servers: int = 4,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
    **cell_kwargs,
) -> dict:
    """The full grid: every policy at every offered load.

    One shared ``rate_cap`` (max rate x workload peak) and one shared
    seed cover the whole sweep, so all cells thin nested subsets of one
    master arrival process.  Returns ``{"grid": {policy: [cells in
    rate order]}, ...}``, JSON-safe and byte-stable across jobs/cache.
    """
    rates = sorted(rates)
    unknown = [p for p in policies if p not in POLICY_NAMES]
    if unknown:
        raise ValueError(
            f"unknown policies: {unknown}; known: {', '.join(POLICY_NAMES)}"
        )
    peak, _ = WORKLOADS[workload]
    rate_cap = max(rates) * peak
    seed = derive_seed("frontier", workload, duration, n_servers)
    specs = [
        RunSpec(
            task=f"{__name__}:frontier_cell",
            kwargs={
                "policy": policy,
                "rate": rate,
                "duration": duration,
                "rate_cap": rate_cap,
                "workload": workload,
                "n_servers": n_servers,
                **cell_kwargs,
            },
            seed=seed,
            label=f"frontier:{policy}@{rate:g}",
        )
        for policy in policies
        for rate in rates
    ]
    cache = RunCache(cache_dir) if cache_dir else None
    results = run_specs(specs, jobs=jobs, cache=cache, progress=progress)
    grid: dict[str, list] = {policy: [] for policy in policies}
    for spec, result in zip(specs, results):
        grid[spec.kwargs["policy"]].append(result.value)
    return {
        "workload": workload,
        "duration": duration,
        "n_servers": n_servers,
        "rates": list(rates),
        "rate_cap": rate_cap,
        "seed": seed,
        "grid": grid,
    }


def frontier_rows(sweep: dict) -> dict:
    """Per-policy table rows for the CLI report renderer."""
    tables = {}
    for policy, cells in sweep["grid"].items():
        tables[policy] = [
            [
                f"{cell['rate']:g}",
                cell["offered"],
                f"{cell['goodput']:.2f}",
                f"{cell['attainment']:.3f}" if cell["attainment"] is not None else "n/a",
                f"{cell['shed_rate']:.3f}",
                cell["shed"]["queue-full"],
            ]
            for cell in cells
        ]
    return tables
