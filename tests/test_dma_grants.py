"""Differential oracle for DMA channel grants.

``Transfer.run`` claims every channel of its route with
``Resource.request``, which holds a free channel at once, and waits
only for the channels that queued.  The reference below is the evented
form it replaced: a test-local claim that grants even a free channel
with an event (``Request`` + ``succeed()``), and a copy that yields
every grant.  Grant decisions are the same in both (made at the claim,
FIFO per channel); only when an uncontended holder resumes moves, and
only within the same instant.  So every copy must start, hold its route
and finish at exactly the same simulated times, and every ledger must
agree, while the reference processes more events.

Hypothesis draws copy schedules on the 8-GPU NVSwitch server: starts
on a coarse grid, so several copies claim the same egress or ingress
port (or PCIe lane) in one instant, with payloads long enough to queue
behind each other.  Each schedule runs twice on fresh identical
servers, once through ``Server.transfer`` and once through the
reference.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hardware import Server
from repro.hardware.dma import Transfer
from repro.sim import Environment
from repro.sim.resources import Request

N_GPUS = 8
#: Device index ``N_GPUS`` is host DRAM (a PCIe route).
DEVICES = N_GPUS + 1


def evented_claim(resource):
    """Claim a slot of ``resource``, granting even a free one with an
    event: FIFO like ``Resource.request``, but never held at once."""
    request = Request(resource)
    if len(resource.users) < resource.capacity and not resource.queue:
        resource.users.append(request)
        request.succeed()
    else:
        resource.queue.append(request)
    return request


class ReferenceTransfer(Transfer):
    """A copy that requests and yields every channel grant."""

    def run(self):
        self.started_at = self.env.now
        if self.nbytes == 0:
            self.acquired_at = self.finished_at = self.env.now
            return self
        route = self.interconnect.route(self.src, self.dst)
        endpoints = self._endpoints()
        self._check_health(route, endpoints)
        ordered = sorted(route.channels, key=lambda ch: ch.name)
        requests = [evented_claim(ch.engine) for ch in ordered]
        try:
            for request in requests:
                yield request
            self.acquired_at = self.env.now
            duration = self.wire_time(route)
            for gpu in endpoints:
                gpu.active_copies += 1
            try:
                yield duration
            finally:
                for gpu in endpoints:
                    gpu.active_copies -= 1
            for channel in ordered:
                channel.record(self.nbytes)
            self.finished_at = self.env.now
            src = getattr(self.src, "name", self.src)
            dst = getattr(self.dst, "name", self.dst)
            self.stats.record(f"{src}->{dst}", self.nbytes, duration, channels=ordered)
        finally:
            for channel, request in zip(ordered, requests):
                channel.engine.release(request)
        return self


def _device(server, index):
    return server.dram if index == N_GPUS else server.gpus[index]


def _run(schedule, reference):
    """Run every copy of ``schedule``; return each copy's times and
    the server's ledgers, and the number of events processed."""
    env = Environment()
    server = Server(env, n_gpus=N_GPUS, topology="nvswitch")
    times = {}

    def copy(i, start, src, dst, nbytes, pieces):
        yield env.timeout(start)
        src, dst = _device(server, src), _device(server, dst)
        if reference:
            transfer = ReferenceTransfer(
                env, server.interconnect, src, dst, nbytes,
                pieces=pieces, stats=server.transfer_stats,
            )
            transfer = yield from transfer.run()
        else:
            transfer = yield from server.transfer(src, dst, nbytes, pieces=pieces)
        times[i] = (transfer.started_at, transfer.acquired_at, transfer.finished_at)

    # One process per copy, all created at time zero: copies starting
    # in the same instant claim their channels in schedule order.
    for i, entry in enumerate(schedule):
        env.process(copy(i, *entry))
    env.run()
    assert len(times) == len(schedule)
    assert all(gpu.active_copies == 0 for gpu in server.gpus)
    channels = {
        name: (ch.bytes_moved, ch.transfer_count, ch.engine.count, len(ch.engine.queue))
        for name, ch in server.interconnect.channels.items()
    }
    stats = server.transfer_stats
    totals = (stats.count, stats.bytes_total, stats.busy_time, stats.per_route)
    return (times, channels, totals), env.events_processed


@st.composite
def copies(draw):
    src = draw(st.integers(0, DEVICES - 1))
    dst = draw(st.integers(0, DEVICES - 2))
    if dst >= src:
        dst += 1
    # A 1 ms start grid with copies of up to ~4 ms: many same-instant
    # claims on one port, and many copies queued behind a busy one.
    start = draw(st.integers(0, 9)) * 1e-3
    nbytes = draw(st.one_of(st.just(0), st.integers(1, 2**30)))
    pieces = draw(st.integers(1, 8))
    return (start, src, dst, nbytes, pieces)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(schedule=st.lists(copies(), min_size=1, max_size=40))
def test_channel_grants_match_the_evented_reference(schedule):
    fast, fast_events = _run(schedule, reference=False)
    evented, evented_events = _run(schedule, reference=True)
    assert fast == evented
    # Every copy that moves bytes claims at least one channel, and the
    # reference grants each claim with an event.
    if any(nbytes for *_, nbytes, _ in schedule):
        assert evented_events > fast_events
    else:
        assert evented_events == fast_events


def test_same_instant_claims_on_one_port_queue_in_order():
    """Three copies out of GPU 0 in one instant share its egress port:
    each holds it after the one before finishes."""
    schedule = [(0.0, 0, dst, 2**28, 1) for dst in (1, 2, 3)]
    (times, channels, _), events = _run(schedule, reference=False)
    (evented_times, _, _), evented_events = _run(schedule, reference=True)
    assert times == evented_times
    assert evented_events > events
    assert times[0][1] == 0.0
    assert times[1][1] == times[0][2] and times[2][1] == times[1][2]
    assert channels["server0:nvswitch-egress:gpu0"][1] == 3
