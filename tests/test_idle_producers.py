"""Differential oracle for idle producers that sleep.

An idle ``BatchEngine`` with a plain ``BatchInformer`` sleeps once its
next inform would provably repeat a hold, instead of informing every
0.25 s.  The reference below is the polling loop it replaced, kept in a
test-local subclass.  The loop's idle informs that hold change nothing,
so both engines must leave the same state at every simulated instant:
the producer's donation, both pools' reservations, the lease, the
batches run and every request's finish time.  The reference processes
more events.

Hypothesis draws schedules on a 2-GPU server whose GPU 1 runs an
SD-1.5 producer and donates to the AQUA-LIB of GPU 0:

* request arrivals at the producer;
* consumer tensors allocated, freed, fetched and migrated (``respond``)
  against the producer's lease;
* a co-located tenant that takes part of the producer GPU's free memory
  and gives it back, which can turn a hold into an offer;
* a failure and recovery of the producer GPU through ``FaultInjector``;
* sometimes an ``LlmInformer`` in place of the ``BatchInformer``: its
  decisions depend on its history, so that engine must keep polling.

Each schedule runs twice on fresh identical rigs.  Drawn times sit
3 ms off a 10 ms grid, so they never land exactly on a poll tick: the
fixed cases at the end cover a change on a tick.
"""

import itertools
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.aqua.tensor
from repro.aqua import AquaLib, BatchInformer, Coordinator, LlmInformer, TensorLostError
from repro.faults import FaultInjector, FaultSchedule, GpuFailure
from repro.hardware import Server
from repro.hardware.specs import GiB
from repro.models import SD_15
from repro.serving import BatchEngine, Request
from repro.serving.batch_engine import UnplaceableWake
from repro.sim import AnyOf, Environment

HORIZON = 12.0
#: Consumer tensor keys: ops on one key chain through alloc, use, free.
KEYS = 3


class PollingBatchEngine(BatchEngine):
    """The engine before idle sleep: with nothing queued it informs
    every 0.25 s, whatever the last inform decided.  ``idle_informs``
    counts the informs its timer woke it for, not an arrival."""

    idle_informs = 0

    def _serve(self):
        while True:
            if not self.waiting:
                if self._arrival_event.triggered:
                    self._arrival_event = self.env.event()
                yield AnyOf(self.env, [self._arrival_event, self.env.timeout(0.25)])
                if not self._arrival_event.triggered:
                    self.idle_informs += 1
                self._inform()
                continue
            batch = [
                self.waiting.popleft()
                for _ in range(min(self.batch_size, len(self.waiting)))
            ]
            duration = self.model.batch_time(self.gpu.spec, len(batch))
            yield self.gpu.launch(duration)
            self._complete_batch(batch)


def _op(env, rig, kind, at, arg):
    """One scheduled operation, run as its own process from time zero."""
    yield env.timeout(at)
    consumer, engine, tensors = rig["consumer"], rig["engine"], rig["tensors"]
    hbm = engine.gpu.hbm
    if kind == "arrive":
        for _ in range(arg):
            request = Request(arrival_time=env.now, prompt_tokens=1, max_new_tokens=1)
            rig["requests"].append(request)
            engine.submit(request)
    elif kind == "alloc":
        key, gib = arg
        if key not in tensors:
            tensors[key] = consumer.to_responsive_tensor(gib * GiB)
    elif kind == "free":
        tensor = tensors.pop(arg, None)
        if tensor is not None:
            tensor.free()
    elif kind == "fetch":
        tensor = tensors.get(arg)
        if tensor is not None and not tensor.lost:
            try:
                yield from tensor.fetch()
            except TensorLostError:
                tensors.pop(arg, None)
                tensor.free()
    elif kind == "respond":
        yield from consumer.respond()
    elif kind == "squat":
        share, hold = arg
        tag = f"tenant@{at}"
        nbytes = int(hbm.free * share)
        hbm.reserve(tag, nbytes)
        yield env.timeout(hold)
        hbm.release(tag)
    elif kind == "exact":  # fixed cases: an exact-time call on the rig
        arg(rig)
    else:  # pragma: no cover - strategy bug
        raise AssertionError(kind)


def _run(schedule, engine_cls, informer_cls=BatchInformer, faults=(), horizon=HORIZON):
    """Run ``schedule`` on a fresh rig; return the state changes, one
    ``(instant, state)`` per instant whose end state differs from the
    one before, the number of events processed and the engine."""
    # Tensor ids name pool reservations: number each run's from zero.
    with mock.patch.object(repro.aqua.tensor, "_AQUA_TENSOR_IDS", itertools.count()):
        return _run_rig(schedule, engine_cls, informer_cls, faults, horizon)


def _run_rig(schedule, engine_cls, informer_cls, faults, horizon):
    env = Environment()
    server = Server(env, n_gpus=2)
    coordinator = Coordinator()
    consumer = AquaLib(server.gpus[0], server, coordinator)
    producer = AquaLib(server.gpus[1], server, coordinator, informer=informer_cls())
    coordinator.pair(consumer.name, producer.name)
    engine = engine_cls(server.gpus[1], server, SD_15, aqua_lib=producer)
    rig = {
        "engine": engine, "consumer": consumer, "producer": producer,
        "tensors": {}, "requests": [], "server": server,
    }
    for kind, at, arg in schedule:
        env.process(_op(env, rig, kind, at, arg))
    injector = FaultInjector(server, coordinator=coordinator)
    injector.install(
        FaultSchedule(GpuFailure(at=at, gpu="gpu1", duration=d) for at, d in faults)
    )

    def state():
        lease = coordinator.leases.get(producer.name)
        return (
            producer.donated_bytes,
            tuple(server.gpus[1].hbm.reservations.items()),
            tuple(server.dram.pool.reservations.items()),
            None if lease is None else (lease.offered, lease.used, lease.accepting),
            engine.batches_run,
            tuple(request.finish_time for request in rig["requests"]),
        )

    instants = []

    def monitor(now):
        if instants and instants[-1][0] == now:
            instants[-1] = (now, state())
        else:
            instants.append((now, state()))

    env.add_monitor(monitor)
    engine.start()
    env.run(until=horizon)
    changes = []
    for now, end_state in instants:
        if not changes or changes[-1][1] != end_state:
            changes.append((now, end_state))
    return changes, env.events_processed, engine


#: A time 3 ms off the 10 ms grid: never exactly a poll tick.
times = st.integers(0, 1000).map(lambda k: k / 100 + 0.003)
early_times = st.integers(0, 24).map(lambda k: k / 100 + 0.003)


@st.composite
def ops(draw):
    kind = draw(
        st.sampled_from(["arrive", "alloc", "free", "fetch", "respond", "squat"])
    )
    at = draw(times)
    key = draw(st.integers(0, KEYS - 1))
    if kind == "arrive":
        arg = draw(st.integers(1, 12))
    elif kind == "alloc":
        arg = (key, draw(st.integers(1, 40)))
    elif kind in ("free", "fetch"):
        arg = key
    elif kind == "respond":
        arg = None
    else:
        # The tenant arrives before the first offer at 0.25 s, so the
        # producer donates around it and may offer more once it leaves.
        at = draw(early_times)
        arg = (draw(st.sampled_from([0.1, 0.5, 0.9])), draw(times))
    return (kind, at, arg)


faults = st.lists(st.tuples(times, st.sampled_from([0.5, 2.0])), max_size=1)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    schedule=st.lists(ops(), max_size=25),
    fault_windows=faults,
    informer=st.sampled_from([BatchInformer, BatchInformer, LlmInformer]),
)
@example(  # busy from 0.003 s to the horizon: neither engine takes a tick
    schedule=[("arrive", 0.003, k) for k in (1, 1, 1, 3, 4, 7, 10, 12, 12)],
    fault_windows=[],
    informer=BatchInformer,
)
def test_sleeping_producer_matches_the_polling_reference(schedule, fault_windows, informer):
    sleeping, sleeping_events, _ = _run(schedule, BatchEngine, informer, fault_windows)
    polling, polling_events, reference = _run(
        schedule, PollingBatchEngine, informer, fault_windows
    )
    assert sleeping == polling
    if informer is BatchInformer and reference.idle_informs:
        assert polling_events > sleeping_events
    else:
        # An informer with memory keeps its engine polling, and a
        # producer kept busy from before its first tick never polls.
        assert polling_events == sleeping_events


def _release_at(tick, tag="tenant"):
    """Fixed-case ops: a tenant holds half the free memory from before
    the first offer and gives it back at exactly ``tick``."""
    take = ("exact", 0.1, lambda rig: rig["engine"].gpu.hbm.reserve(
        tag, rig["engine"].gpu.hbm.free // 2))
    give = ("exact", tick, lambda rig: rig["engine"].gpu.hbm.release(tag))
    return [take, give]


def _donations(changes):
    return [(now, state[0]) for now, state in changes]


#: A poll tick: the producer falls asleep at 0.25 s after its first
#: offer, and 0.25 + 7 * 0.25 is exactly 2.0.
TICK = 2.0


def test_release_on_a_poll_tick_is_seen_there():
    """A release exactly on a tick, with another event due then that
    was scheduled before the producer fell asleep: that event proves the
    poll's timer has not fired yet, so the loop's inform sees the
    release, and the sleeping engine offers at the same tick."""
    witness = ("alloc", TICK, (0, 4))
    schedule = _release_at(TICK) + [witness]
    sleeping, sleeping_events, _ = _run(schedule, BatchEngine)
    polling, polling_events, _ = _run(schedule, PollingBatchEngine)
    assert sleeping == polling
    assert polling_events > sleeping_events
    donated = dict(_donations(sleeping))
    assert donated[TICK] > donated[0.25]


def test_release_between_ticks_offers_at_the_next_tick():
    schedule = _release_at(TICK + 0.1)
    sleeping, _, _ = _run(schedule, BatchEngine)
    polling, _, _ = _run(schedule, PollingBatchEngine)
    assert sleeping == polling
    donated = dict(_donations(sleeping))
    assert donated[TICK + 0.1] == donated[0.25] < donated[TICK + 0.25]


def test_release_alone_on_a_poll_tick_raises():
    """With nothing else due at the tick, the poll's timer may sort
    either side of the release: the engine raises instead of guessing."""
    _run(_release_at(TICK), PollingBatchEngine)
    with pytest.raises(UnplaceableWake):
        _run(_release_at(TICK), BatchEngine)


def _arrive_at(tick):
    def submit(rig):
        request = Request(arrival_time=tick, prompt_tokens=1, max_new_tokens=1)
        rig["requests"].append(request)
        rig["engine"].submit(request)

    return ("exact", tick, submit)


def test_arrival_on_a_poll_tick_with_a_witness_matches():
    schedule = [_arrive_at(TICK), ("alloc", TICK, (0, 4))]
    sleeping, _, _ = _run(schedule, BatchEngine)
    polling, _, _ = _run(schedule, PollingBatchEngine)
    assert sleeping == polling
    assert sleeping[-1][1][4] == 1


def test_arrival_alone_on_a_poll_tick_raises():
    _run([_arrive_at(TICK)], PollingBatchEngine)
    with pytest.raises(UnplaceableWake):
        _run([_arrive_at(TICK)], BatchEngine)


def test_idle_producer_retires_a_handful_of_events():
    """600 s idle after its first donation: the polling loop retires
    two events for each of its 2,400 ticks; the sleeping engine retires
    its start, the first tick's timer and wake, and nothing after."""
    _, events, _ = _run([], BatchEngine, horizon=600.0)
    _, polling_events, _ = _run([], PollingBatchEngine, horizon=600.0)
    assert events <= 5
    assert polling_events > 4000
