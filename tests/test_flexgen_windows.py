"""Differential oracle for FlexGen decode windows.

``FlexGenEngine`` runs the decode steps up to its next ``respond()`` as
one window with one wake, accounting each step's records at their own
times.  The reference below is the per-step decode loop it replaced,
kept in a test-local subclass.  Both must leave the same state at every
simulated instant anyone looks: every token time, request stamp,
transfer statistic, channel ledger and GPU busy time.  The reference
processes more events.

Hypothesis draws rigs of one to four FlexGen consumers on an 8-GPU
NVSwitch server, consumer ``i`` on GPU ``i`` offloading to a producer
``BatchEngine`` on GPU ``4 + i``, all calling ``respond()`` every 2, 3
or 16 tokens.  Prompt and output lengths differ per consumer, so their
steps take different times and their transfer records interleave.  The
draws add, all aimed at pairs 1 to 3:

* producer request arrivals;
* a co-resident process that holds a GPU stream or a DMA channel;
* a GPU failure, a DMA stall and a link degradation through
  ``FaultInjector``;
* consumers left unpaired, whose contexts stay in host DRAM, so their
  copies are recorded live between the deferred records of long
  windows;

and, for the whole server:

* a sampler that reads every ledger;
* the stop of a first ``run(until=...)``, a time or a timeout nobody
  waits on, after which the run goes on to the end;
* a reclaim by consumer 0's producer while it decodes: the
  coordinator then owes consumer 0 a move at a ``respond()`` boundary
  inside what would otherwise be one window;
* a second, two-GPU server in the same environment, with a consumer
  paired to its own producer and jobs submitted in its domain.  Each
  pair is a domain, so a window runs past the other domains' events
  and only global ones (the sampler, the faults, the run's stop) or
  its own cut it.

Consumer 0 always decodes for seconds, so some of its steps run in
windows: only the events above cut them.  Each schedule runs on two
fresh identical rigs.  An explicit example and a fixed case grow a
context past the point where its copy starts to outlast its kernel
inside one window, where the window's kernel-bound run of steps gives
way to a copy-bound one.  Drawn times sit 3.7 ms off a 10 ms grid, so none
lands on the 0.25 s poll ticks of a producer that has run no batch,
where a sleeping producer raises ``UnplaceableWake``.
"""

import itertools
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.aqua.tensor
import repro.serving.flexgen_engine
from repro.aqua import AquaLib, BatchInformer, Coordinator
from repro.aqua.informers import Decision
from repro.faults import DmaStall, FaultInjector, FaultSchedule, GpuFailure, LinkDegradation
from repro.hardware import Server
from repro.hardware.specs import MB
from repro.models import OPT_30B, SD_15
from repro.serving import BatchEngine, FlexGenEngine, Request
from repro.sim import Environment, WindowConflict
from repro.workloads.arrivals import submit_at
from tests.token_times import token_times

#: Simulated seconds each rig runs.
HORIZON = 14.0

#: Rigs drawn: tier-1 draws 40, the ci profile its default.
EXAMPLES = (
    settings.default.max_examples
    if settings.get_current_profile_name() == "ci"
    else 40
)


class PerStepFlexGen(FlexGenEngine):
    """The engine before decode windows: every decode step launches its
    kernel, streams its KV and waits for both, one event at a time."""

    def _infer(self, request):
        budget = min(request.max_new_tokens, self.alloc_horizon_tokens)
        max_total = request.prompt_tokens + budget
        self.attr_mark([request], "queueing")
        tensor = self.aqua_lib.to_responsive_tensor(
            self.model.kv_bytes(max_total),
            pieces=self._stream_pieces(),
            tag=f"flexgen-ctx-{request.req_id}",
            ctx=request.req_id,
        )
        try:
            context_tokens = min(request.total_tokens, max_total - 1)
            prefill = self.model.prefill_time(self.gpu.spec, context_tokens)
            started = self.env.now
            yield self.gpu.launch(prefill)
            self.trace_span("prefill", started, tokens=context_tokens)
            self.attr_mark([request], "prefill_compute")
            self.flow_step([request], time=started)
            yield from tensor.flush(
                nbytes=self.model.kv_bytes(context_tokens),
                pieces=self._stream_pieces(),
            )
            self.attr_mark([request], "offload_fetch")
            self._finish_tokens([request])
            step = self.model.decode_step_time(self.gpu.spec, 1, 0)
            while not request.done and request.total_tokens < max_total:
                io_bytes = self.model.kv_bytes(request.total_tokens + 1)
                compute = self.gpu.launch(step)
                io_done = yield from self._io_step(tensor, io_bytes)
                compute_done = yield compute
                self._mark_bound(request, io_done, compute_done)
                self._finish_tokens([request])
                if request.generated_tokens % self.respond_every == 0:
                    yield from self.aqua_lib.respond()
                    self.attr_mark([request], "offload_fetch")
        finally:
            tensor.free()


class ReclaimOnce(BatchInformer):
    """Donates as a ``BatchInformer`` does, but asks for the donation
    back once, at its first inform at or after ``at``.  It is not a
    plain ``BatchInformer``, so its idle producer polls every 0.25 s."""

    def __init__(self, at):
        super().__init__()
        self.at = at
        self.reclaimed = False

    def decide(self, stats, donated_bytes):
        if not self.reclaimed and stats.now >= self.at and donated_bytes > 0:
            self.reclaimed = True
            return Decision.reclaim()
        return super().decide(stats, donated_bytes)


def _ledgers(servers, engines, requests):
    """Everything the oracle compares, read through public attributes."""
    return (
        [(e.metrics.tokens_generated, tuple(token_times(e.metrics))) for e in engines],
        [
            (r.generated_tokens, r.first_token_time, r.finish_time)
            for r in requests
        ],
        [_server_ledgers(server) for server in servers],
    )


def _server_ledgers(server):
    stats = server.transfer_stats
    return (
        (stats.count, stats.bytes_total, stats.busy_time, tuple(stats.per_route.items())),
        [
            (name, ch.bytes_moved, ch.transfer_count)
            for name, ch in server.interconnect.channels.items()
        ],
        [gpu.busy_time for gpu in server.gpus],
    )


def _run(rig, engine_cls):
    # Tensor ids name pool reservations: number each run's from zero.
    with mock.patch.object(repro.aqua.tensor, "_AQUA_TENSOR_IDS", itertools.count()):
        return _run_rig(rig, engine_cls)


def _run_rig(rig, engine_cls):
    env = Environment()
    server = Server(env, n_gpus=8, topology="nvswitch")
    coordinator = Coordinator()
    engines, requests, producers = [], [], []
    for i in range(4):
        reclaim = rig["reclaim"] if i == 0 else None
        informer = BatchInformer() if reclaim is None else ReclaimOnce(reclaim)
        producer_lib = AquaLib(server.gpus[4 + i], server, coordinator, informer=informer)
        producer = BatchEngine(
            server.gpus[4 + i], server, SD_15, aqua_lib=producer_lib, name=f"producer{i}"
        )
        producer.start()
        producers.append(producer)
    for i, jobs in enumerate(rig["consumers"]):
        lib = AquaLib(server.gpus[i], server, coordinator)
        if i not in rig["unpaired"]:
            coordinator.pair(lib.name, producers[i].aqua_lib.name)
        engine = engine_cls(
            server.gpus[i], server, OPT_30B, aqua_lib=lib,
            workspace_tokens=8000, name=f"flexgen{i}",
            respond_every=rig["respond_every"],
        )
        engine.start()
        engines.append(engine)
        for at, prompt, new in jobs:
            request = Request(arrival_time=at, prompt_tokens=prompt, max_new_tokens=new)
            requests.append(request)
            env.process(_submit(env, engine, request, at))
    for at, index, count in rig["arrivals"]:
        for _ in range(count):
            env.process(_submit(env, producers[index], Request(at, 1, 1), at))
    for kind, name, at, hold in rig["claims"]:
        if kind == "stream":
            resource = server.gpus[int(name)].compute
        else:
            resource = server.interconnect.channels[f"server0:{name}"].engine
        env.process(_claim(env, resource, at, hold))
    FaultInjector(server, coordinator=coordinator).install(FaultSchedule(rig["faults"]))
    servers = [server]
    if rig["second"]:
        servers.append(_second_server(env, engine_cls, rig, engines, requests))

    samples = []

    def sampler():
        for at in sorted(rig["samples"]):
            yield env.timeout(at - env.now)
            samples.append((env.now, _ledgers(servers, engines, requests)))

    env.process(sampler())
    stop, on_event = rig["stop"]
    env.run(until=env.timeout(stop) if on_event else stop)
    stopped = _ledgers(servers, engines, requests)
    env.run(until=HORIZON)
    end = _ledgers(servers, engines, requests)
    return (samples, stopped, end), env.events_processed


def _second_server(env, engine_cls, rig, engines, requests):
    """A two-GPU server in the same environment: one consumer paired
    with its producer, its jobs submitted in its domain."""
    server = Server(env, name="server1")
    coordinator = Coordinator()
    producer_lib = AquaLib(server.gpus[1], server, coordinator, informer=BatchInformer())
    BatchEngine(server.gpus[1], server, SD_15, aqua_lib=producer_lib, name="producer-b").start()
    lib = AquaLib(server.gpus[0], server, coordinator)
    coordinator.pair(lib.name, producer_lib.name)
    engine = engine_cls(
        server.gpus[0], server, OPT_30B, aqua_lib=lib,
        workspace_tokens=8000, name="flexgen-b", respond_every=rig["respond_every"],
    )
    engine.start()
    engines.append(engine)
    for at, prompt, new in rig["second"]:
        request = Request(arrival_time=at, prompt_tokens=prompt, max_new_tokens=new)
        requests.append(request)
        submit_at(env, engine, request)
    return server


def _submit(env, engine, request, at):
    yield env.timeout(at)
    engine.submit(request)


def _claim(env, resource, at, hold):
    """A co-resident process: hold ``resource`` for ``hold`` seconds."""
    yield env.timeout(at)
    with resource.request() as grant:
        yield grant
        yield env.timeout(hold)


#: A time 3.7 ms off the 10 ms grid.
times = st.integers(0, HORIZON * 100 - 1).map(lambda k: k / 100 + 0.0037)
holds = st.integers(1, 150).map(lambda k: k / 100 + 0.0037)


def job(earliest=0, min_new=2):
    """One job: ``(arrival, prompt tokens, max new tokens)``."""
    return st.tuples(
        st.integers(earliest, 300).map(lambda k: k / 100 + 0.0037),
        st.integers(200, 8000),
        st.integers(min_new, 160),
    )


jobs = st.lists(job(), min_size=1, max_size=2)

#: Targets in pairs 1 to 3: their GPUs, and links of those GPUs.
GPUS = [1, 2, 3, 5, 6, 7]
LINKS = [
    f"{kind}:gpu{i}"
    for kind in ("nvswitch-egress", "nvswitch-ingress", "pcie-up", "pcie-down")
    for i in GPUS
]

faults = st.one_of(
    st.builds(GpuFailure, at=times, gpu=st.sampled_from(GPUS).map(str), duration=holds),
    st.builds(DmaStall, at=times, channel=st.sampled_from(LINKS), duration=holds),
    st.builds(
        LinkDegradation, at=times, channel=st.sampled_from(LINKS),
        factor=st.sampled_from([0.05, 0.5]), duration=holds,
    ),
)

claims = st.tuples(
    st.sampled_from(["stream", "channel"]), st.integers(0, len(LINKS) - 1), times, holds
).map(
    lambda c: (c[0], str(GPUS[c[1] % len(GPUS)]) if c[0] == "stream" else LINKS[c[1]], *c[2:])
)


@st.composite
def rigs(draw):
    return {
        # Consumer 0's job arrives after its producer's first donation
        # and decodes for seconds.
        "consumers": [[draw(job(50, 100))], *draw(st.lists(jobs, max_size=3))],
        "arrivals": draw(
            st.lists(st.tuples(times, st.integers(1, 3), st.integers(1, 8)), max_size=4)
        ),
        "claims": draw(st.lists(claims, max_size=2)),
        "faults": draw(st.lists(faults, max_size=3)),
        "samples": draw(st.lists(times, max_size=6, unique=True)),
        "stop": (draw(times), draw(st.booleans())),
        "respond_every": draw(st.sampled_from([2, 3, 16])),
        # After consumer 0's first job has arrived.
        "reclaim": draw(st.none() | st.integers(300, 1000).map(lambda k: k / 100 + 0.0037)),
        "unpaired": draw(st.frozensets(st.integers(1, 3))),
        # A consumer on a second server, in a domain of its own.
        "second": draw(st.lists(job(), max_size=2)),
    }


def fixed_rig(**fields):
    """A rig with nothing drawn but ``fields``."""
    rig = {
        "arrivals": [], "claims": [], "faults": [], "samples": [],
        "respond_every": 16, "reclaim": None, "unpaired": frozenset(), "second": [],
    }
    rig.update(fields)
    return rig


#: An OPT-30B step on this rig is kernel-bound up to a context of about
#: 5,706 tokens and copy-bound beyond it: a 5,600-token prompt crosses
#: that point at its 106th decode step, inside one window.
CROSSING_JOB = (0.5037, 5600, 160)


@settings(max_examples=EXAMPLES, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rig=rigs())
@example(rig=fixed_rig(
    consumers=[[CROSSING_JOB], [(0.6037, 5650, 120)]], stop=(3.0037, True), respond_every=3,
))
def test_windows_match_the_per_step_reference(rig):
    windowed, windowed_events = _run(rig, FlexGenEngine)
    stepped, stepped_events = _run(rig, PerStepFlexGen)
    assert windowed == stepped
    assert stepped_events > windowed_events


def test_a_quiet_rig_decodes_in_windows():
    """Four identical consumers decode in lockstep: each sees the
    others' steps due at its own instants, and all open windows.  The
    jobs arrive after the producers' first donations, so every context
    sits on a producer from its first step."""
    rig = fixed_rig(consumers=[[(0.5037, 2000, 100)]] * 4, stop=(HORIZON - 0.0063, False))
    windowed, windowed_events = _run(rig, FlexGenEngine)
    stepped, stepped_events = _run(rig, PerStepFlexGen)
    assert windowed == stepped
    tokens = sum(total for total, _ in windowed[2][0])
    assert tokens == 400
    # The per-step loop retires four events per decoded token.
    assert stepped_events - windowed_events > 3.5 * tokens


def test_a_lockstep_peer_that_steps_keeps_its_place():
    """Two identical consumers start in lockstep, but the first one's
    producer is busy, so it steps one event at a time.  Its copies end
    at the same instants as the second one's and come first there, so
    the second one may not account them ahead in a window: that would
    reorder the server's transfer records."""
    rig = fixed_rig(
        consumers=[[(0.5037, 200, 100)], [(0.5037, 200, 3)]],
        arrivals=[(0.0037, 0, 3)],
        stop=(0.0037, False),
    )
    windowed, windowed_events = _run(rig, FlexGenEngine)
    stepped, stepped_events = _run(rig, PerStepFlexGen)
    assert windowed == stepped
    assert stepped_events > windowed_events


def test_a_window_refuses_every_touch_of_its_resources():
    """While a window holds its GPUs and fetch route, a claim, a
    dilation() read, a fault or a copy with a held GPU as an endpoint
    raises instead of invalidating the window's accounts."""
    server = Server(Environment(), n_gpus=8, topology="nvswitch")
    gpu, producer = server.gpus[0], server.gpus[4]
    channels = server.interconnect.route(producer, gpu).channels
    for resource in (gpu.compute, producer.compute, *(ch.engine for ch in channels)):
        resource.window = "flexgen0"
    touches = [gpu.compute.request, gpu.dilation, gpu.fail, gpu.recover]
    touches += [producer.compute.request, producer.dilation, producer.fail]
    for ch in channels:
        touches += [ch.engine.request, ch.stall, ch.unstall, ch.restore]
        touches.append(lambda ch=ch: ch.degrade(0.5))
    for touch in touches:
        with pytest.raises(WindowConflict):
            touch()

    def copy():
        yield from server.transfer(gpu, server.dram, MB)

    server.env.process(copy())
    with pytest.raises(WindowConflict):
        server.env.run()


def test_a_reclaim_mid_decode_moves_at_the_next_boundary():
    """Consumer 0's producer asks for its donation back while consumer
    0 decodes.  The coordinator then owes consumer 0 a move, so its
    window stops at the next ``respond()`` boundary, where the context
    leaves for DRAM and its fetches cross PCIe."""
    rig = fixed_rig(
        consumers=[[(0.5037, 2000, 400)]], reclaim=3.0037, respond_every=2, stop=(HORIZON, False)
    )
    windowed, windowed_events = _run(rig, FlexGenEngine)
    stepped, stepped_events = _run(rig, PerStepFlexGen)
    assert windowed == stepped
    channels = dict((name, moved) for name, moved, _ in windowed[2][2][0][1])
    assert channels["server0:pcie-down:gpu0"] > 0
    assert stepped_events > windowed_events


def test_a_window_crosses_from_kernel_bound_to_copy_bound_steps():
    """One consumer's context grows past the point where its copy
    starts to outlast its kernel.  Its window computes the kernel-bound
    steps and the copy-bound ones in separate runs, with the same times
    as the per-step loop."""
    rig = fixed_rig(consumers=[[CROSSING_JOB]], stop=(HORIZON, False))
    windows, original = [], repro.serving.flexgen_engine._steps

    def steps(*args):
        ends, copy_ends = original(*args)
        windows.append(ends)
        return ends, copy_ends

    with mock.patch.object(repro.serving.flexgen_engine, "_steps", steps):
        windowed, windowed_events = _run(rig, FlexGenEngine)
    stepped, stepped_events = _run(rig, PerStepFlexGen)
    assert windowed == stepped
    assert stepped_events > windowed_events
    times = windowed[2][0][0][1]
    gaps = [b - a for a, b in zip(times, times[1:])]
    flat = [gap - min(gaps) < 1e-12 for gap in gaps]
    crossing = flat.index(False)
    assert 50 < crossing < 150 and not any(flat[crossing:])
    # One window holds steps of both kinds.
    assert any(times[crossing - 10] in ends and times[crossing + 10] in ends for ends in windows)
