"""Integration tests for AquaLib + AquaTensor on a simulated server."""

import pytest

from repro.aqua import AquaLib, BatchInformer, Coordinator, EngineStats, LlmInformer
from repro.aqua.lib import AQUA_OFFER_TAG
from repro.aqua.tensor import Location
from repro.faults import RetryPolicy
from repro.hardware import Server
from repro.hardware.specs import GiB, MB
from repro.sim import Environment


def make_rig(offer_bytes=10 * GiB, gather=True, pair=True):
    """A 2-GPU server: gpu0 consumer, gpu1 producer with a live lease."""
    env = Environment()
    server = Server(env, n_gpus=2, topology="p2p")
    coord = Coordinator()
    consumer = AquaLib(server.gpus[0], server, coord, gather_enabled=gather)
    producer = AquaLib(server.gpus[1], server, coord)
    if pair:
        coord.pair(consumer.name, producer.name)
    if offer_bytes:
        producer.complete_offer(offer_bytes)
    return env, server, coord, consumer, producer


def run(env, gen):
    proc = env.process(gen)
    env.run(until=proc)
    return proc.value


# ---------------------------------------------------------------------------
# Allocation and placement accounting
# ---------------------------------------------------------------------------
def test_offer_reserves_producer_hbm():
    env, server, coord, consumer, producer = make_rig(offer_bytes=10 * GiB)
    assert producer.gpu.hbm.held(AQUA_OFFER_TAG) == 10 * GiB
    assert coord.leases[producer.name].offered == 10 * GiB


def test_tensor_lands_on_producer():
    env, server, coord, consumer, producer = make_rig()
    t = consumer.to_responsive_tensor(1 * GiB)
    assert t.on_fast_path
    assert t.device is producer.gpu
    # Pool accounting shifted from the offer to the tensor, total unchanged.
    assert producer.gpu.hbm.held(AQUA_OFFER_TAG) == 9 * GiB
    assert producer.gpu.hbm.held(t.tag) == 1 * GiB
    assert producer.gpu.hbm.used == 10 * GiB


def test_tensor_falls_back_to_dram():
    env, server, coord, consumer, producer = make_rig(offer_bytes=0, pair=True)
    t = consumer.to_responsive_tensor(1 * GiB)
    assert not t.on_fast_path
    assert t.device is server.dram
    assert server.dram.pool.held(t.tag) == 1 * GiB


def test_tensor_free_restores_offer():
    env, server, coord, consumer, producer = make_rig()
    t = consumer.to_responsive_tensor(1 * GiB)
    t.free()
    assert producer.gpu.hbm.held(AQUA_OFFER_TAG) == 10 * GiB
    assert t.freed
    t.free()  # idempotent
    assert coord.leases[producer.name].used == 0


def test_tensor_validation():
    env, server, coord, consumer, producer = make_rig()
    with pytest.raises(ValueError):
        consumer.to_responsive_tensor(0)
    with pytest.raises(ValueError):
        consumer.to_responsive_tensor(10, pieces=0)


# ---------------------------------------------------------------------------
# Fetch / flush timing: the NVLink fast path
# ---------------------------------------------------------------------------
def test_fetch_from_producer_faster_than_dram():
    nbytes = 512 * MB
    env1, server1, _, consumer1, _ = make_rig()
    t_fast = consumer1.to_responsive_tensor(nbytes)
    run(env1, t_fast.fetch())
    fast = env1.now

    env2, server2, _, consumer2, _ = make_rig(offer_bytes=0)
    t_slow = consumer2.to_responsive_tensor(nbytes)
    run(env2, t_slow.fetch())
    slow = env2.now

    assert slow / fast > 5
    assert t_fast.fetch_count == 1


def test_gather_beats_naive_scatter():
    """AQUA's gather kernel coalesces scattered KV pieces (§5)."""
    nbytes, pieces = 64 * MB, 1024
    env1, _, _, consumer1, _ = make_rig(gather=True)
    t1 = consumer1.to_responsive_tensor(nbytes, pieces=pieces)
    run(env1, t1.fetch())

    env2, _, _, consumer2, _ = make_rig(gather=False)
    t2 = consumer2.to_responsive_tensor(nbytes, pieces=pieces)
    run(env2, t2.fetch())

    assert env2.now / env1.now > 5


def test_flush_roundtrip():
    env, server, coord, consumer, producer = make_rig()
    t = consumer.to_responsive_tensor(128 * MB)
    run(env, t.flush())
    assert t.flush_count == 1
    assert env.now > 0


def test_move_past_tensor_end_raises():
    env, server, coord, consumer, producer = make_rig()
    t = consumer.to_responsive_tensor(1 * MB)
    with pytest.raises(ValueError, match=rf"{t.tag}.*{1 * MB + 1}.*{1 * MB}"):
        run(env, t.fetch(nbytes=1 * MB + 1))
    with pytest.raises(ValueError, match=rf"{t.tag}.*{2 * MB}.*{1 * MB}"):
        run(env, t.flush(nbytes=2 * MB))
    assert t.fetch_count == t.flush_count == 0
    assert env.now == 0.0
    # Exactly the tensor size is still a legal move.
    run(env, t.fetch(nbytes=1 * MB))
    assert t.fetch_count == 1


def test_fetch_after_free_rejected():
    env, server, coord, consumer, producer = make_rig()
    t = consumer.to_responsive_tensor(1 * MB)
    t.free()
    with pytest.raises(RuntimeError):
        run(env, t.fetch())
    with pytest.raises(RuntimeError):
        run(env, t.flush())


# ---------------------------------------------------------------------------
# respond(): reclaim migrations and upgrades
# ---------------------------------------------------------------------------
def test_reclaim_migrates_tensors_to_dram():
    env, server, coord, consumer, producer = make_rig()
    t = consumer.to_responsive_tensor(2 * GiB)
    # Producer wants its memory back.
    informer = LlmInformer(queue_high=4)
    producer.informer = informer
    stats = EngineStats(now=0.0, pending_requests=100, offerable_bytes=0)
    delta = producer.inform_stats(stats)
    assert delta == 0  # reclaim pending, tensors not yet evacuated
    assert producer.reclaim_pending

    run(env, consumer.respond())
    assert t.location is Location.DRAM
    assert server.dram.pool.held(t.tag) == 2 * GiB

    # Next poll completes the reclaim and returns the donation.
    delta = producer.inform_stats(stats)
    assert delta == 10 * GiB
    assert producer.gpu.hbm.used == 0
    assert producer.donated_bytes == 0


def test_respond_upgrades_dram_tensor_when_lease_appears():
    env, server, coord, consumer, producer = make_rig(offer_bytes=0)
    t = consumer.to_responsive_tensor(1 * GiB)
    assert t.location is Location.DRAM
    producer.complete_offer(4 * GiB)
    run(env, consumer.respond())
    assert t.on_fast_path
    assert t.device is producer.gpu
    assert server.dram.pool.used == 0


def test_respond_without_migrations_is_instant():
    env, server, coord, consumer, producer = make_rig()
    consumer.to_responsive_tensor(1 * GiB)
    run(env, consumer.respond())
    assert env.now == 0.0


def test_respond_skips_freed_tensors():
    env, server, coord, consumer, producer = make_rig(offer_bytes=0)
    t = consumer.to_responsive_tensor(1 * GiB)
    producer.complete_offer(4 * GiB)
    t.free()
    run(env, consumer.respond())
    assert t.freed


def test_respond_blocked_time_accumulates():
    env, server, coord, consumer, producer = make_rig()
    t = consumer.to_responsive_tensor(2 * GiB)
    producer.informer = LlmInformer()
    producer.inform_stats(EngineStats(now=0.0, pending_requests=100))
    run(env, consumer.respond())
    assert consumer.respond_blocked_time > 0


# ---------------------------------------------------------------------------
# inform_stats() contract
# ---------------------------------------------------------------------------
def test_inform_stats_requests_offer_when_idle():
    env, server, coord, consumer, producer = make_rig(offer_bytes=0)
    producer.informer = LlmInformer(retain_bytes=5 * GiB)
    stats = EngineStats(
        now=0.0,
        pending_requests=0,
        kv_used_bytes=1 * GiB,
        kv_capacity_bytes=40 * GiB,
        offerable_bytes=39 * GiB,
    )
    delta = producer.inform_stats(stats)
    assert delta == -(34 * GiB)  # offer everything above the 5 GiB retention


def test_inform_stats_hold_when_no_informer():
    env, server, coord, consumer, producer = make_rig(offer_bytes=0)
    assert producer.inform_stats(EngineStats(now=0.0)) == 0


def test_complete_offer_validation():
    env, server, coord, consumer, producer = make_rig(offer_bytes=0)
    with pytest.raises(ValueError):
        producer.complete_offer(0)


def test_batch_informer_offer_flow():
    env, server, coord, consumer, producer = make_rig(offer_bytes=0)
    producer.informer = BatchInformer(margin_bytes=2 * GiB)
    stats = EngineStats(now=0.0, offerable_bytes=50 * GiB)
    delta = producer.inform_stats(stats)
    assert delta == -(48 * GiB)
    producer.complete_offer(-delta)
    assert coord.leases[producer.name].offered == 48 * GiB


# ---------------------------------------------------------------------------
# Migration rollback: stalled evacuation must not corrupt the books
# ---------------------------------------------------------------------------
def stall_route(server, src, dst):
    for channel in server.interconnect.route(src, dst).channels:
        channel.stall()


def unstall_route(server, src, dst):
    for channel in server.interconnect.route(src, dst).channels:
        channel.unstall()


def test_migration_rollback_on_exhausted_retries():
    """Regression: a reclaim evacuation whose transfer stalls through
    every retry used to leave all three ledgers (tensor, pools,
    coordinator) pointing at DRAM while the bytes never left the
    producer.  The library must roll the accounting back, report the
    failure, and leave the migration queued for a later boundary.
    """
    env = Environment()
    server = Server(env, n_gpus=2, topology="p2p")
    coord = Coordinator()
    consumer = AquaLib(
        server.gpus[0],
        server,
        coord,
        retry_policy=RetryPolicy(initial_delay=0.01, max_delay=0.02, max_attempts=2),
    )
    producer = AquaLib(server.gpus[1], server, coord)
    coord.pair(consumer.name, producer.name)
    producer.complete_offer(10 * GiB)

    t = consumer.to_responsive_tensor(1 * GiB)
    assert t.on_fast_path

    # Producer wants its memory back -> migration to DRAM queued.
    producer.informer = LlmInformer(queue_high=4)
    stats = EngineStats(now=0.0, pending_requests=100, offerable_bytes=0)
    producer.inform_stats(stats)
    assert producer.reclaim_pending

    # The evacuation path is dead for longer than the retries last.
    stall_route(server, producer.gpu, server.dram)
    run(env, consumer.respond())

    # Books rolled back: the tensor is still (physically and on paper)
    # on the producer, nothing is charged to DRAM.
    assert t.location is Location.PRODUCER
    assert t.device is producer.gpu
    assert producer.gpu.hbm.held(t.tag) == 1 * GiB
    assert server.dram.pool.held(t.tag) == 0
    assert coord.allocations[t.id].location == producer.name
    lease = coord.leases[producer.name]
    assert lease.used == 1 * GiB
    assert producer.gpu.hbm.held(AQUA_OFFER_TAG) == lease.offered - lease.used
    assert consumer.retries == 1  # one backoff retry before giving up
    assert t.lost is False

    # The reclaim is still waiting on this tensor and the migration is
    # re-queued for the next boundary.
    assert not coord.request(
        "GET", "/reclaim_status", {"producer": producer.name}
    ).body["done"]
    assert consumer.get_tensors_to_move() == {t.id: "dram"}

    # Once the route heals, the next respond() completes the evacuation.
    unstall_route(server, producer.gpu, server.dram)
    run(env, consumer.respond())
    assert t.location is Location.DRAM
    assert server.dram.pool.held(t.tag) == 1 * GiB
    assert producer.gpu.hbm.held(t.tag) == 0
    assert producer.inform_stats(stats) == 10 * GiB  # reclaim completes


def test_full_lib_cycle_against_strict_json_coordinator():
    """The library's control traffic must survive a socket-faithful
    (strict_json) coordinator end to end, including migration maps
    whose ids come back as strings."""
    env = Environment()
    server = Server(env, n_gpus=2, topology="p2p")
    coord = Coordinator(strict_json=True)
    consumer = AquaLib(server.gpus[0], server, coord)
    producer = AquaLib(server.gpus[1], server, coord)
    coord.pair(consumer.name, producer.name)
    producer.complete_offer(4 * GiB)

    t = consumer.to_responsive_tensor(1 * GiB)
    assert t.on_fast_path
    assert consumer.get_tensors_to_move() == {}

    producer.informer = LlmInformer(queue_high=4)
    producer.inform_stats(EngineStats(now=0.0, pending_requests=100))
    assert consumer.get_tensors_to_move() == {t.id: "dram"}
    run(env, consumer.respond())
    assert t.location is Location.DRAM
    t.free()
    assert producer.inform_stats(
        EngineStats(now=0.0, pending_requests=100)
    ) == 4 * GiB


def test_move_failed_unknown_tensor_404():
    coord = Coordinator()
    resp = coord.request("POST", "/move_failed", {"tensor_id": 42, "location": "dram"})
    assert resp.status == 404


def test_offloaded_byte_counters():
    env, server, coord, consumer, producer = make_rig(offer_bytes=3 * GiB)
    consumer.to_responsive_tensor(2 * GiB)  # fast path
    consumer.to_responsive_tensor(2 * GiB)  # does not fit -> DRAM
    assert consumer.offloaded_fast_bytes == 2 * GiB
    assert consumer.offloaded_dram_bytes == 2 * GiB
