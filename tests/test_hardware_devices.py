"""Tests for GPU/DRAM devices, servers, clusters and DMA transfers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import (
    A100_80G,
    Cluster,
    GPU,
    MemoryPool,
    OutOfDeviceMemory,
    Server,
)
from repro.faults import DmaStall, FaultInjector, FaultSchedule, LinkDegradation
from repro.hardware.dma import Transfer, TransferStalled
from repro.hardware.dma import copy as dma_copy
from repro.hardware.interconnect import RoutingError
from repro.hardware.specs import GB, MB, GiB
from repro.sim import Environment, Interrupt

MiB = float(2**20)


# ---------------------------------------------------------------------------
# MemoryPool
# ---------------------------------------------------------------------------
def test_pool_reserve_release_roundtrip():
    pool = MemoryPool(capacity=100)
    pool.reserve("weights", 60)
    assert pool.used == 60
    assert pool.free == 40
    pool.release("weights")
    assert pool.free == 100


def test_pool_retag_moves_bytes_without_a_release():
    pool = MemoryPool(capacity=100)
    released = []
    pool.on_release.append(lambda: released.append(pool.free))
    pool.reserve("offer", 60)
    pool.retag("offer", "tensor", 25)
    assert pool.reservations == {"offer": 35, "tensor": 25}
    assert pool.free == 40 and released == []
    pool.retag("offer", "tensor", 35)
    assert pool.reservations == {"tensor": 60}
    with pytest.raises(ValueError):
        pool.retag("tensor", "offer", 61)
    pool.release("tensor", 10)
    assert released == [50]


def test_pool_over_reserve_raises():
    pool = MemoryPool(capacity=100)
    pool.reserve("a", 80)
    with pytest.raises(OutOfDeviceMemory):
        pool.reserve("b", 30)


def test_pool_partial_release():
    pool = MemoryPool(capacity=100)
    pool.reserve("kv", 50)
    released = pool.release("kv", 20)
    assert released == 20
    assert pool.held("kv") == 30


def test_pool_release_more_than_held_raises():
    pool = MemoryPool(capacity=100)
    pool.reserve("kv", 10)
    with pytest.raises(ValueError):
        pool.release("kv", 20)


def test_pool_tags_accumulate():
    pool = MemoryPool(capacity=100)
    pool.reserve("kv", 10)
    pool.reserve("kv", 15)
    assert pool.held("kv") == 25


def test_pool_invalid_capacity():
    with pytest.raises(ValueError):
        MemoryPool(capacity=0)


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["reserve", "release"]), st.integers(0, 50)),
        max_size=40,
    )
)
@settings(max_examples=100, deadline=None)
def test_pool_accounting_invariant(ops):
    """Property: 0 <= used <= capacity under any reserve/release sequence."""
    pool = MemoryPool(capacity=100)
    for op, amount in ops:
        try:
            if op == "reserve":
                pool.reserve("t", amount)
            else:
                pool.release("t", min(amount, pool.held("t")))
        except OutOfDeviceMemory:
            pass
        assert 0 <= pool.used <= pool.capacity
        assert pool.free == pool.capacity - pool.used


# ---------------------------------------------------------------------------
# GPU
# ---------------------------------------------------------------------------
def test_gpu_launch_takes_time():
    env = Environment()
    gpu = GPU(env, 0, A100_80G)
    ends = []

    def work(env):
        ends.append((yield gpu.launch(0.5)))

    env.process(work(env))
    env.run()
    assert env.now == pytest.approx(0.5)
    assert ends == [env.now]
    assert gpu.busy_time == pytest.approx(0.5)
    assert gpu.compute.count == 0


def test_gpu_compute_serializes():
    env = Environment()
    gpu = GPU(env, 0, A100_80G)

    def work(env):
        yield gpu.launch(1.0)

    env.process(work(env))
    env.process(work(env))
    env.run()
    assert env.now == pytest.approx(2.0)


def test_gpu_compute_dilated_by_copies():
    env = Environment()
    gpu = GPU(env, 0, A100_80G)
    gpu.active_copies = 1

    def work(env):
        yield gpu.launch(1.0)

    env.process(work(env))
    env.run()
    assert env.now == pytest.approx(1.0 * (1 + A100_80G.copy_interference))


def test_gpu_negative_duration_rejected():
    env = Environment()
    gpu = GPU(env, 0, A100_80G)
    with pytest.raises(ValueError):
        gpu.launch(-1)
    assert env.peek() == float("inf")  # rejected at the call: nothing scheduled


# ---------------------------------------------------------------------------
# Server topologies and transfers
# ---------------------------------------------------------------------------
def test_p2p_server_routes():
    env = Environment()
    server = Server(env, n_gpus=2, topology="p2p")
    g0, g1 = server.gpus
    assert server.interconnect.connected(g0, g1)
    assert server.interconnect.connected(g1, g0)
    assert server.interconnect.connected(g0, server.dram)
    assert server.interconnect.connected(server.dram, g0)


def test_nvswitch_server_all_pairs_connected():
    env = Environment()
    server = Server(env, n_gpus=8, topology="nvswitch")
    for a in server.gpus:
        for b in server.gpus:
            if a is not b:
                assert server.interconnect.connected(a, b)


def test_route_to_self_rejected():
    env = Environment()
    server = Server(env, n_gpus=2)
    g0 = server.gpus[0]
    with pytest.raises(RoutingError):
        server.interconnect.route(g0, g0)


def test_unknown_topology_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        Server(env, n_gpus=2, topology="torus")


def test_nvlink_transfer_faster_than_pcie():
    env = Environment()
    server = Server(env, n_gpus=2, topology="p2p")
    g0, g1 = server.gpus
    nbytes = 256 * MB
    nvlink_t = server.transfer_time(g0, g1, nbytes)
    pcie_t = server.transfer_time(g0, server.dram, nbytes)
    assert pcie_t / nvlink_t > 5


def test_transfer_advances_clock_by_wire_time():
    env = Environment()
    server = Server(env, n_gpus=2, topology="p2p")
    g0, g1 = server.gpus
    nbytes = 64 * MB
    expected = server.transfer_time(g0, g1, nbytes)

    def move(env):
        yield from server.transfer(g0, g1, nbytes)

    env.process(move(env))
    env.run()
    assert env.now == pytest.approx(expected)


def test_transfers_on_same_channel_serialize():
    env = Environment()
    server = Server(env, n_gpus=2, topology="p2p")
    g0, g1 = server.gpus
    nbytes = 64 * MB
    one = server.transfer_time(g0, g1, nbytes)

    def move(env):
        yield from server.transfer(g0, g1, nbytes)

    env.process(move(env))
    env.process(move(env))
    env.run()
    assert env.now == pytest.approx(2 * one)


def test_transfers_on_distinct_channels_overlap():
    env = Environment()
    server = Server(env, n_gpus=2, topology="p2p")
    g0, g1 = server.gpus
    nbytes = 64 * MB
    one = server.transfer_time(g0, g1, nbytes)

    def fwd(env):
        yield from server.transfer(g0, g1, nbytes)

    def bwd(env):
        yield from server.transfer(g1, g0, nbytes)

    env.process(fwd(env))
    env.process(bwd(env))
    env.run()
    assert env.now == pytest.approx(one)


def test_scattered_pieces_pay_latency_per_piece():
    env = Environment()
    server = Server(env, n_gpus=2, topology="p2p")
    g0, g1 = server.gpus
    nbytes = 16 * MB
    gathered = server.transfer_time(g0, g1, nbytes, pieces=1)
    scattered = server.transfer_time(g0, g1, nbytes, pieces=256)
    assert scattered > gathered
    # 256 extra link latencies:
    assert scattered - gathered == pytest.approx(255 * server.gpu_link.latency)


def test_zero_byte_transfer_is_instant():
    env = Environment()
    server = Server(env, n_gpus=2)
    g0, g1 = server.gpus

    def move(env):
        yield from server.transfer(g0, g1, 0)

    env.process(move(env))
    env.run()
    assert env.now == 0.0


def test_transfer_stats_recorded():
    env = Environment()
    server = Server(env, n_gpus=2)
    g0, g1 = server.gpus

    def move(env):
        yield from server.transfer(g0, g1, 10 * MB)

    env.process(move(env))
    env.run()
    assert server.transfer_stats.count == 1
    assert server.transfer_stats.bytes_total == 10 * MB


def test_nvswitch_distinct_pairs_do_not_contend():
    """Transfers g0->g1 and g2->g3 use disjoint switch ports."""
    env = Environment()
    server = Server(env, n_gpus=4, topology="nvswitch")
    g0, g1, g2, g3 = server.gpus
    nbytes = 128 * MB
    one = server.transfer_time(g0, g1, nbytes)

    def move(env, a, b):
        yield from server.transfer(a, b, nbytes)

    env.process(move(env, g0, g1))
    env.process(move(env, g2, g3))
    env.run()
    assert env.now == pytest.approx(one)


def test_nvswitch_shared_egress_contends():
    """Transfers g0->g1 and g0->g2 share g0's egress port."""
    env = Environment()
    server = Server(env, n_gpus=4, topology="nvswitch")
    g0, g1, g2, _ = server.gpus
    nbytes = 128 * MB
    one = server.transfer_time(g0, g1, nbytes)

    def move(env, a, b):
        yield from server.transfer(a, b, nbytes)

    env.process(move(env, g0, g1))
    env.process(move(env, g0, g2))
    env.run()
    assert env.now == pytest.approx(2 * one)


def test_stalled_channel_rejects_new_transfers():
    env = Environment()
    server = Server(env, n_gpus=2)
    server.interconnect.route(server.gpus[0], server.gpus[1]).channels[0].stall()
    caught = []

    def proc():
        try:
            yield from server.transfer(server.gpus[0], server.gpus[1], 8 * MiB)
        except TransferStalled as exc:
            caught.append(exc)
    env.process(proc())
    env.run()
    assert len(caught) == 1


def test_faulted_run_is_deterministic():
    """A fault-schedule run (a stall, then a degradation, mid-stream)
    replays byte-for-byte: same grants, completions, stats and log."""
    def run():
        env = Environment()
        server = Server(env, n_gpus=2)
        injector = FaultInjector(server)
        injector.install(FaultSchedule([
            LinkDegradation(at=0.004, duration=0.004, channel="nvlink:gpu0->gpu1", factor=0.5),
            DmaStall(at=0.002, duration=0.001, channel="pcie-up:gpu0"),
        ]))
        done = []

        def traffic():
            for i in range(40):
                try:
                    t = Transfer(
                        env, server.interconnect, server.gpus[0],
                        server.gpus[1] if i % 3 else server.dram,
                        16 * MiB, stats=server.transfer_stats,
                    )
                    yield from t.run()
                    done.append((i, t.acquired_at, t.finished_at))
                except TransferStalled:
                    done.append((i, "stalled", env.now))
                    yield env.timeout(0.001)
        env.process(traffic())
        env.run()
        stats = server.transfer_stats
        return done, (stats.count, stats.bytes_total, repr(stats.busy_time)), injector.log

    first, second = run(), run()
    assert first == second
    done, _, log = first
    assert any(d[1] == "stalled" for d in done)  # the stall really bit
    assert len(log) == 4  # both faults applied and cleared


def test_live_degradation_prices_new_transfers_only():
    """A transfer already on the wire when ``degradation`` changes keeps
    its healthy-bandwidth completion; one starting afterwards pays the
    degraded bandwidth."""
    env = Environment()
    server = Server(env, n_gpus=2)
    g0, g1 = server.gpus
    route = server.interconnect.route(g0, g1)
    link = route.channels[0]
    healthy_time = route.transfer_time(256 * MiB)
    transfers = {}

    def start(name, at, nbytes):
        yield env.timeout(at)
        t = Transfer(env, server.interconnect, g0, g1, nbytes)
        transfers[name] = t
        yield from t.run()

    def degrade_midflight():
        # Inside transfer "early"'s wire window, before "late" starts.
        yield env.timeout(healthy_time / 2)
        link.degrade(0.25)

    env.process(start("early", 0.0, 256 * MiB))
    env.process(degrade_midflight())
    env.process(start("late", healthy_time * 1.5, 256 * MiB))
    env.run()

    early, late = transfers["early"], transfers["late"]
    # Already on the wire: unaffected by the mid-flight degradation.
    assert early.finished_at == pytest.approx(healthy_time)
    # Started after the change: pays the degraded bandwidth.
    degraded_time = route.transfer_time(256 * MiB)
    assert link.degradation == 0.25
    assert late.duration == pytest.approx(degraded_time)
    assert late.duration > early.duration * 2


def test_restore_reprices_subsequent_transfers():
    env = Environment()
    server = Server(env, n_gpus=2)
    g0, g1 = server.gpus
    route = server.interconnect.route(g0, g1)
    link = route.channels[0]
    link.degrade(0.5)
    degraded = server.transfer_time(g0, g1, 128 * MiB)

    durations = []

    def one(nbytes):
        t = Transfer(env, server.interconnect, g0, g1, nbytes)
        yield from t.run()
        durations.append(t.duration)

    env.process(one(128 * MiB))
    env.run()
    link.restore()
    env.process(one(128 * MiB))
    env.run()
    assert durations[0] == pytest.approx(degraded)
    assert durations[1] == pytest.approx(server.transfer_time(g0, g1, 128 * MiB))
    assert durations[1] < durations[0]


def test_interrupted_transfer_releases_granted_and_queued_claims():
    """A Transfer interrupted while waiting for its channel grants — some
    channel requests granted, others still queued — must surrender
    everything without corrupting FIFO order for the waiters behind it."""
    env = Environment()
    server = Server(env, n_gpus=4, topology="nvswitch")
    g0, g1, g2, _ = server.gpus
    ic = server.interconnect
    egress0, ingress1 = ic.route(g0, g1).sorted_channels

    # Occupy g1's ingress port so a g0->g1 transfer is granted its
    # egress hop but queues on the ingress hop.
    blocker_time = server.transfer_time(g2, g1, 512 * MiB)
    blocker = Transfer(env, ic, g2, g1, 512 * MiB)
    env.process(blocker.run())

    victim = Transfer(env, ic, g0, g1, 64 * MiB)
    interrupted = []

    def victim_driver():
        try:
            yield from victim.run()
        except Interrupt as intr:
            interrupted.append(intr.cause)
    victim_proc = env.process(victim_driver())

    # Waiters *behind* the victim on each of its two hops.
    done = []

    def chase(name, transfer, delay):
        yield env.timeout(delay)
        yield from transfer.run()
        done.append((name, transfer.acquired_at, transfer.finished_at))

    behind_same_route = Transfer(env, ic, g0, g1, 32 * MiB)     # both hops
    env.process(chase("same-route", behind_same_route, 1e-6))
    behind_egress = Transfer(env, ic, g0, g2, 32 * MiB)         # egress hop only
    env.process(chase("egress-only", behind_egress, 2e-6))

    def interrupter():
        yield env.timeout(blocker_time / 4)
        # The victim is mid-acquisition: its egress request is granted,
        # its ingress request queued behind the blocker, and both
        # chasers queued behind *it*.
        assert victim.acquired_at is None
        assert len(egress0.engine.users) == 1
        assert len(egress0.engine.queue) == 2
        assert len(ingress1.engine.queue) == 2
        victim_proc.interrupt("teardown")
    env.process(interrupter())
    env.run()

    assert interrupted == ["teardown"]
    assert victim.finished_at is None

    # Every channel drained: no leaked users or queue entries.
    for ch in ic.channels.values():
        assert ch.engine.users == [], ch.name
        assert ch.engine.queue == [], ch.name

    # FIFO for the waiters behind the victim survived: the same-route
    # chaser inherited the victim's egress grant immediately and the
    # ingress right when the blocker released it; the egress-only chaser
    # then got the egress the instant the same-route chaser finished.
    by_name = {name: (acq, fin) for name, acq, fin in done}
    assert by_name["same-route"][0] == pytest.approx(blocker_time)
    assert by_name["egress-only"][0] == pytest.approx(by_name["same-route"][1])
    assert all(t.finished_at is not None for t in (blocker, behind_same_route, behind_egress))


def test_interrupted_transfer_matches_never_started_run():
    """After the teardown, remaining waiters complete at the same times
    as in a run where the victim never existed."""
    def run(with_victim):
        env = Environment()
        server = Server(env, n_gpus=4, topology="nvswitch")
        g0, g1, g2, _ = server.gpus
        ic = server.interconnect
        blocker_time = server.transfer_time(g2, g1, 512 * MiB)
        env.process(Transfer(env, ic, g2, g1, 512 * MiB).run())
        if with_victim:
            def victim_driver():
                try:
                    yield from Transfer(env, ic, g0, g1, 64 * MiB).run()
                except Interrupt:
                    pass
            victim_proc = env.process(victim_driver())

            def interrupter():
                yield env.timeout(blocker_time / 4)
                victim_proc.interrupt("teardown")
            env.process(interrupter())
        done = []

        def chase(name, t, delay):
            yield env.timeout(delay)
            yield from t.run()
            done.append((name, t.acquired_at, t.finished_at))
        env.process(chase("a", Transfer(env, ic, g0, g1, 32 * MiB), blocker_time / 2))
        env.process(chase("b", Transfer(env, ic, g0, g2, 32 * MiB), blocker_time / 2))
        env.run()
        return sorted(done)

    assert run(with_victim=True) == run(with_victim=False)

class _SpyTelemetry:
    def __init__(self):
        self.seen = []

    def record_transfer(self, transfer, channels):
        self.seen.append((transfer, tuple(channels)))


def test_copy_wrapper_forwards_telemetry_and_ctx():
    env = Environment()
    server = Server(env, n_gpus=2)
    spy = _SpyTelemetry()

    env.process(
        dma_copy(
            env, server.interconnect, server.gpus[0], server.gpus[1],
            4 * MiB, stats=server.transfer_stats, telemetry=spy, ctx=7,
        )
    )
    env.run()
    [(transfer, channels)] = spy.seen
    assert transfer.telemetry is spy
    assert transfer.ctx == 7
    assert channels  # the route's channels reached the hub too


# ---------------------------------------------------------------------------
# Cluster
# ---------------------------------------------------------------------------
def test_cluster_enumerates_gpus():
    env = Environment()
    cluster = Cluster(env, n_servers=8, gpus_per_server=2)
    assert cluster.n_gpus == 16
    assert len(cluster) == 8


def test_cluster_server_of():
    env = Environment()
    cluster = Cluster(env, n_servers=2, gpus_per_server=2)
    gpu = cluster.servers[1].gpus[0]
    assert cluster.server_of(gpu) is cluster.servers[1]


def test_cluster_server_of_foreign_gpu_raises():
    env = Environment()
    cluster = Cluster(env, n_servers=2)
    stranger = GPU(env, 0, A100_80G)
    with pytest.raises(LookupError):
        cluster.server_of(stranger)


def test_cluster_invalid_size():
    env = Environment()
    with pytest.raises(ValueError):
        Cluster(env, n_servers=0)


def test_gpu_free_hbm_matches_pool():
    env = Environment()
    server = Server(env, n_gpus=2)
    gpu = server.gpus[0]
    gpu.hbm.reserve("weights", 26 * GiB)
    assert gpu.free_hbm == 80 * GiB - 26 * GiB
