"""Differential oracle for :class:`~repro.routing.frontend.ServerFrontend`.

The frontend serves a routed request through two timed callbacks (prefill
end, decode end) and keeps its ``depth`` as a counter.  The reference
below restores the earlier path verbatim: one serving process per routed
request, with ``depth`` derived as ``len(queue) + active`` on every read,
and the SLO-aware policy's scan over ``(-score, depth, index)`` tuples.

Hypothesis draws frontier cells — every policy, the rate, servers,
concurrency, queue depths, tenant classes with priorities and rate
limits, the load shape and ``max_new_tokens`` ranges that include 1 —
and runs each through both.  The two must book the same ledger, complete
the same requests in the same order on every frontend, and stamp every
request's first-token and finish times to the bit.  The callback path
must process exactly two fewer events per completed request, and one
fewer per request still being served when the run stops (its process's
``Initialize``).  A per-event monitor checks the depth counter; the
frontier cell opens no windows, so a monitor changes nothing here.

The fixed cases pin the tie order the frontend documents and the
frontier cell's event and memory budgets.
"""

import math
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.sim
from repro.experiments import frontier
from repro.experiments.frontier import _drive, _slo_policy, _workload, frontier_cell
from repro.hardware.cluster import Cluster
from repro.models.llm import MISTRAL_7B
from repro.routing import (
    AdmissionController,
    GlobalRouter,
    RoundRobinPolicy,
    ServerFrontend,
    SLOAwarePolicy,
    TenantClass,
    make_policy,
)
from repro.routing.policies import POLICY_NAMES
from repro.serving.request import Request
from repro.sim import Environment
from repro.telemetry.slo import SLOTracker
from repro.workloads.arrivals import nhpp_stream


class ProcessFrontend(ServerFrontend):
    """Reference: one serving process per routed request."""

    @property
    def depth(self) -> int:
        return len(self.queue) + self.active

    @depth.setter
    def depth(self, value) -> None:
        # The shared ``__init__`` and ``enqueue`` write the counter;
        # the reference derives its depth instead.
        pass

    def _dispatch(self) -> None:
        request = self.queue.popleft()
        self.active += 1
        self.env.process(self._serve(request))

    def _serve(self, request):
        # Bare-delay sleeps: nothing interrupts a serving process, and
        # the kernel orders ``yield d`` exactly like ``env.timeout(d)``.
        spec, gpu = self.spec, self.gpu_spec
        yield spec.prefill_time(gpu, request.prompt_tokens)
        request.first_token_time = self.env.now
        request.generated_tokens = 1
        steps = request.max_new_tokens - 1
        if steps > 0:
            batch = self.active
            context = request.prompt_tokens + steps // 2
            step = spec.decode_step_time(gpu, batch, batch * context)
            yield steps * step
        request.generated_tokens = request.max_new_tokens
        request.finish_time = self.env.now
        if request.on_finish is not None and not request.on_finish.triggered:
            request.on_finish.succeed(request)
        self.active -= 1
        self.tokens += request.max_new_tokens
        self.completed += 1
        for callback in self.on_complete:
            callback(self, request)
        if self.queue and self.active < self.concurrency:
            self._dispatch()


class TupleSLOAwarePolicy(SLOAwarePolicy):
    """Reference: the SLO-aware scan over per-frontend key tuples."""

    def choose(self, request, tenant, frontends):
        scores = self._scores
        best, best_key = 0, (-scores[0], frontends[0].depth, 0)
        for i in range(1, len(frontends)):
            key = (-scores[i], frontends[i].depth, i)
            if key < best_key:
                best, best_key = i, key
        return best


def _depth_monitor(frontends):
    def check(now):
        for f in frontends:
            assert f.depth == len(f.queue) + f.active, (now, f)

    return check


def _run(cell, reference):
    """One drawn cell through the callback path or the reference."""
    frontend_cls = ProcessFrontend if reference else ServerFrontend
    shape, profiles = _workload(cell["workload"], cell["duration"])
    trace = list(nhpp_stream(
        cell["rate"],
        cell["duration"],
        seed=cell["seed"],
        shape=shape,
        tenants=profiles,
        prompt_tokens=cell["prompt_range"],
        max_new_tokens=cell["new_range"],
    ))
    env = Environment()
    frontends = [
        frontend_cls(env, server, MISTRAL_7B, concurrency=cell["concurrency"])
        for server in Cluster(env, n_servers=cell["n_servers"])
    ]
    tracker = SLOTracker(env, _slo_policy([f.name for f in frontends], 1.0))
    if cell["policy"] == SLOAwarePolicy.name:
        policy_cls = TupleSLOAwarePolicy if reference else SLOAwarePolicy
        policy = policy_cls(tracker, [f"ttft:{f.name}" for f in frontends])
    else:
        policy = make_policy(cell["policy"])
    names = [p.name for p in profiles] if profiles else ["default"]
    admission = AdmissionController(
        tenants=[
            TenantClass(name=name, priority=priority, rate_limit=limit)
            for name, (priority, limit) in zip(names, cell["classes"])
        ],
        max_queue_depth=cell["max_queue_depth"],
    )
    router = GlobalRouter(env, frontends, policy, admission, tracker=tracker)
    order = {f.name: [] for f in frontends}
    for frontend in frontends:
        frontend.on_complete.append(lambda f, r: order[f.name].append(r.req_id))
    if not reference:
        env.add_monitor(_depth_monitor(frontends))
    env.process(_drive(env, router, trace))
    env.process(router.scrape_loop(1.0))
    env.run(until=cell["duration"] + cell["drain"])

    ledger = router.ledger
    return {
        "digest": ledger.digest,
        "routed": ledger.routed,
        "shed": dict(ledger.shed),
        "completed": ledger.completed,
        "order": [order[f.name] for f in frontends],
        "tokens": [f.tokens for f in frontends],
        "stamps": [
            (
                r.req_id,
                r.generated_tokens,
                None if r.first_token_time is None else r.first_token_time.hex(),
                None if r.finish_time is None else r.finish_time.hex(),
            )
            for _, r in trace
        ],
    }, env.events_processed, sum(f.active for f in frontends)


#: Cells drawn: tier-1 draws 40, the ci profile its default.
EXAMPLES = (
    settings.default.max_examples
    if settings.get_current_profile_name() == "ci"
    else 40
)

_CLASSES = st.tuples(
    st.integers(0, 3), st.one_of(st.none(), st.floats(1.0, 20.0))
)


@st.composite
def cells(draw):
    new_lo = draw(st.integers(1, 8))
    prompt_lo = draw(st.integers(1, 64))
    return {
        "policy": draw(st.sampled_from(POLICY_NAMES)),
        "workload": draw(st.sampled_from(sorted(frontier.WORKLOADS))),
        "rate": draw(st.floats(2.0, 80.0)),
        "duration": draw(st.floats(4.0, 20.0)),
        "drain": draw(st.floats(0.0, 10.0)),
        "seed": draw(st.integers(0, 10_000)),
        "n_servers": draw(st.integers(1, 4)),
        "concurrency": draw(st.integers(1, 8)),
        "max_queue_depth": draw(st.integers(1, 24)),
        "classes": draw(st.lists(_CLASSES, min_size=3, max_size=3)),
        "prompt_range": (prompt_lo, prompt_lo + draw(st.integers(0, 192))),
        "new_range": (new_lo, new_lo + draw(st.integers(0, 64))),
    }


#: Overload on one small server with single-token requests in the mix.
OVERLOADED = {
    "policy": "slo-aware",
    "workload": "flash",
    "rate": 40.0,
    "duration": 12.0,
    "drain": 2.0,
    "seed": 3,
    "n_servers": 2,
    "concurrency": 3,
    "max_queue_depth": 6,
    "classes": [(0, None), (1, 8.0), (2, None)],
    "prompt_range": (16, 128),
    "new_range": (1, 12),
}


@settings(max_examples=EXAMPLES, deadline=None)
@given(cell=cells())
@example(cell=OVERLOADED)
def test_callbacks_serve_like_one_process_per_request(cell):
    expected, reference_events, reference_in_flight = _run(cell, reference=True)
    got, events, in_flight = _run(cell, reference=False)
    assert got == expected
    assert in_flight == reference_in_flight
    assert reference_events - events == 2 * got["completed"] + in_flight


def test_a_prefill_end_goes_before_an_arrival_due_at_the_same_instant():
    """Request 0 arrives at 0.0; request 1 lands bit for bit on request
    0's prefill end.  The prefill end takes its heap position at
    dispatch, before the drive loop schedules its next sleep, so request
    0 fixes its decode pace alone in the batch.  The process path ran
    the arrival first and decoded request 0 two to a batch."""
    gpu = Cluster(Environment(), n_servers=1).servers[0].gpus[0].spec
    prompt, new = 64, 17
    prefill = MISTRAL_7B.prefill_time(gpu, prompt)

    def serve(frontend_cls):
        env = Environment()
        (server,) = Cluster(env, n_servers=1)
        frontend = frontend_cls(env, server, MISTRAL_7B, concurrency=2)
        router = GlobalRouter(env, [frontend], RoundRobinPolicy())
        first = Request(arrival_time=0.0, prompt_tokens=prompt, max_new_tokens=new)
        second = Request(arrival_time=prefill, prompt_tokens=prompt, max_new_tokens=new)
        env.process(_drive(env, router, [("default", first), ("default", second)]))
        env.run()
        assert first.first_token_time == second.arrival_time == prefill
        return first.finish_time

    def decoded_alongside(batch):
        context = prompt + (new - 1) // 2
        step = MISTRAL_7B.decode_step_time(gpu, batch, batch * context)
        return prefill + (new - 1) * step

    assert serve(ServerFrontend) == decoded_alongside(1)
    assert serve(ProcessFrontend) == decoded_alongside(2)
    assert decoded_alongside(1) != decoded_alongside(2)


def test_slo_aware_cell_keeps_its_event_budget(monkeypatch):
    """The 300 s ``slo-aware`` cell of ``tests/test_frontier_pins.py``:
    one event per offered request (its arrival sleep), two per routed
    request (prefill end, decode end), one per scrape tick, and the
    starts of the drive and scrape processes."""
    created = []

    class Counted(repro.sim.Environment):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(repro.sim, "Environment", Counted)
    duration, drain = 300.0, 15.0
    cell = frontier_cell(policy="slo-aware", rate=64, duration=duration, seed=0)
    (env,) = created
    assert cell["routed"] == 12808
    budget = cell["offered"] + 2 * cell["routed"] + math.ceil((duration + drain) / 1.0) + 3
    assert env.events_processed <= budget
    assert type(env.now) is float


def _peak_growth(duration):
    """tracemalloc's peak growth over one steady ``slo-aware`` cell, and
    the cell's offered count."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cell = frontier_cell(
            policy="slo-aware", rate=64.0, duration=duration, workload="steady", seed=0
        )
        return tracemalloc.get_traced_memory()[1] - base, cell["offered"]
    finally:
        tracemalloc.stop()


def test_frontier_cell_memory_follows_in_flight_requests():
    """A cell holds the NHPP master columns (48 B per master arrival; at
    a steady load every master arrival is offered) and the requests in
    flight, not every request it offered.  Between a 50 s cell and a
    200 s one the peak grows by about 67 B per extra offered request; a
    cell that builds its whole trace up front and keeps each finished
    request grows by about 325 B."""
    _peak_growth(2.0)  # one-off allocations: lazy imports and caches
    short, short_offered = _peak_growth(50.0)
    long, long_offered = _peak_growth(200.0)
    per_request = (long - short) / (long_offered - short_offered)
    assert per_request <= 96, f"{per_request:.0f} B per extra offered request"


@pytest.fixture
def one_frontend_router():
    env = Environment()
    (server,) = Cluster(env, n_servers=1)
    frontend = ServerFrontend(env, server, MISTRAL_7B, concurrency=2)
    return env, frontend, GlobalRouter(env, [frontend], RoundRobinPolicy())


def test_a_completion_the_router_never_routed_fails_loudly(one_frontend_router):
    env, frontend, router = one_frontend_router
    frontend.enqueue(Request(arrival_time=0.0, prompt_tokens=8, max_new_tokens=4))
    with pytest.raises(RuntimeError, match="did not route"):
        env.run()
    assert router.ledger.completed == 0


def test_resubmitting_a_request_in_flight_fails_loudly(one_frontend_router):
    env, frontend, router = one_frontend_router
    first = Request(arrival_time=0.0, prompt_tokens=8, max_new_tokens=4)
    assert router.submit(first, "a") == 0
    twin = Request(
        arrival_time=0.0, prompt_tokens=8, max_new_tokens=4, req_id=first.req_id
    )
    with pytest.raises(ValueError, match="already in flight"):
        router.submit(twin, "b")
    assert (router.ledger.offered, router.ledger.routed) == (1, 1)
    env.run()
    # Once it completes, the id may be offered again.
    assert router.submit(twin, "b") == 0
    env.run()
    assert router.ledger.completed == 2
    assert router.check() == []
