"""Tests for transfer statistics, channel accounting and routes."""

import pytest

from repro.hardware import Server
from repro.hardware.dma import Transfer, TransferStats
from repro.hardware.specs import MB
from repro.sim import Environment


def run_transfer(server, src, dst, nbytes, pieces=1):
    env = server.env

    def move(env):
        yield from server.transfer(src, dst, nbytes, pieces=pieces)

    proc = env.process(move(env))
    env.run(until=proc)


def test_stats_accumulate_per_route():
    env = Environment()
    server = Server(env, n_gpus=2)
    g0, g1 = server.gpus
    run_transfer(server, g0, g1, 10 * MB)
    run_transfer(server, g0, g1, 20 * MB)
    run_transfer(server, g0, server.dram, 5 * MB)
    stats = server.transfer_stats
    assert stats.count == 3
    assert stats.bytes_total == 35 * MB
    assert stats.busy_time > 0
    route_key = f"{g0.name}->{g1.name}"
    assert stats.per_route[route_key] == 30 * MB
    dram_key = f"{g0.name}->{server.dram.name}"
    assert stats.per_route[dram_key] == 5 * MB


def test_channel_counters():
    env = Environment()
    server = Server(env, n_gpus=2)
    g0, g1 = server.gpus
    run_transfer(server, g0, g1, 16 * MB)
    channel = server.interconnect.channels[f"{server.name}:nvlink:gpu0->gpu1"]
    assert channel.transfer_count == 1
    assert channel.bytes_moved == 16 * MB
    # The reverse channel is untouched.
    reverse = server.interconnect.channels[f"{server.name}:nvlink:gpu1->gpu0"]
    assert reverse.transfer_count == 0


def test_nvswitch_route_full_payload_per_hop():
    """Regression: every hop of a multi-hop route carries the whole
    payload, so each channel's ledger must record the full transfer.
    (The old code split ``nbytes / len(route)`` across hops, silently
    under-counting per-channel ``bytes_moved`` on NVSwitch/RDMA routes.)
    """
    env = Environment()
    server = Server(env, n_gpus=4, topology="nvswitch")
    g0, g1 = server.gpus[:2]
    run_transfer(server, g0, g1, 10 * MB)
    egress = server.interconnect.channels[f"{server.name}:nvswitch-egress:gpu0"]
    ingress = server.interconnect.channels[f"{server.name}:nvswitch-ingress:gpu1"]
    assert egress.bytes_moved == 10 * MB
    assert ingress.bytes_moved == 10 * MB
    assert egress.transfer_count == 1
    assert ingress.transfer_count == 1
    # The aggregate stats still count the payload once, not once per hop.
    assert server.transfer_stats.bytes_total == 10 * MB


def test_multi_hop_counters_accumulate_across_transfers():
    env = Environment()
    server = Server(env, n_gpus=4, topology="nvswitch")
    g0, g1, g2 = server.gpus[:3]
    run_transfer(server, g0, g1, 10 * MB)
    run_transfer(server, g0, g2, 5 * MB)
    egress = server.interconnect.channels[f"{server.name}:nvswitch-egress:gpu0"]
    # gpu0's egress port carried both payloads in full.
    assert egress.bytes_moved == 15 * MB
    assert egress.transfer_count == 2


def test_route_latency_and_bottleneck():
    env = Environment()
    server = Server(env, n_gpus=2, topology="nvswitch")
    g0, g1 = server.gpus
    route = server.interconnect.route(g0, g1)
    assert len(route.channels) == 2
    assert route.latency == 2 * server.gpu_link.latency
    assert route.bottleneck_bandwidth == server.gpu_link.peak_bandwidth
    assert route.transfer_time(0) == 0.0
    with pytest.raises(ValueError):
        route.transfer_time(-1)
    assert route.effective_bandwidth(0) == 0.0


def test_transfer_duration_property():
    env = Environment()
    server = Server(env, n_gpus=2)
    g0, g1 = server.gpus
    t = Transfer(env, server.interconnect, g0, g1, 8 * MB)
    assert t.duration is None

    def move(env):
        yield from t.run()

    env.process(move(env))
    env.run()
    assert t.duration == pytest.approx(
        server.gpu_link.transfer_time(8 * MB)
    )


def test_transfer_validation():
    env = Environment()
    server = Server(env, n_gpus=2)
    g0, g1 = server.gpus
    with pytest.raises(ValueError):
        Transfer(env, server.interconnect, g0, g1, -1)
    with pytest.raises(ValueError):
        Transfer(env, server.interconnect, g0, g1, 10, pieces=0)


def test_stats_record_manual():
    stats = TransferStats()
    stats.record("a->b", 100.0, 0.5)
    stats.record("a->b", 50.0, 0.2)
    assert stats.count == 2
    assert stats.per_route["a->b"] == 150.0
    assert stats.busy_time == pytest.approx(0.7)


def test_deferred_records_merge_in_time_order():
    """A window's records wait for the clock; they join the sums in end
    order, ahead of a live record ending at the same instant."""
    env = Environment()
    stats = TransferStats()
    seen = []
    stats.listeners.append(lambda route, channels, nbytes, duration: seen.append(route))
    a = [("a", 1.0, 0.1, ()), ("a", 2.0, 0.2, ())]
    b = [("b", 4.0, 0.4, ()), ("b", 8.0, 0.8, ())]
    stats.defer(env, [1.0, 3.0], a.__getitem__)
    stats.defer(env, [2.0, 3.0], b.__getitem__)
    assert stats.count == 0  # nothing has ended at t=0
    env.run(until=3.0)
    stats.record("c", 16.0, 1.6)
    assert seen == ["a", "b", "a", "b", "c"]
    assert stats.count == 5
    assert stats.bytes_total == 31.0
    assert stats.busy_time == 0.1 + 0.4 + 0.2 + 0.8 + 1.6
    assert list(stats.per_route) == ["a", "b", "c"]


def test_gpu_dilation_restored_after_transfer():
    env = Environment()
    server = Server(env, n_gpus=2)
    g0, g1 = server.gpus
    run_transfer(server, g0, g1, 64 * MB)
    assert g0.active_copies == 0
    assert g1.active_copies == 0
    assert g0.dilation() == 1.0
