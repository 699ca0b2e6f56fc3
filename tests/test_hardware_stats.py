"""Tests for transfer statistics, channel accounting and routes."""

import pytest

from repro.hardware import Server
from repro.hardware.dma import _SLICE, Transfer, TransferStats
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
    # Records of 1 and 2 bytes, then 4 and 8, each taking a tenth of
    # its size in seconds on the wire.
    stats.defer(env, [1.0, 3.0], 0.0, 10.0, range(1, 3), "a", ())
    stats.defer(env, [2.0, 3.0], 0.0, 10.0, range(4, 12, 4), "b", ())
    assert stats.count == 0  # nothing has ended at t=0
    env.run(until=3.0)
    stats.record("c", 16.0, 1.6)
    assert seen == ["a", "b", "a", "b", "c"]
    assert stats.count == 5
    assert stats.bytes_total == 31.0
    assert stats.busy_time == 0.1 + 0.4 + 0.2 + 0.8 + 1.6
    assert list(stats.per_route) == ["a", "b", "c"]


def _live_and_deferred(windows):
    """Each window's records ``(end, route, nbytes)`` recorded live in
    end order (a tie in window order) and deferred as windows, with
    the wire terms ``(latency, bandwidth)`` of the window's route; the
    two stats after the clock passes the last end."""
    live, deferred = TransferStats(), TransferStats()
    env = Environment()
    records, seen = [], []
    deferred.listeners.append(lambda *record: seen.append(record))
    for w, (latency, bandwidth, route, ends, sizes) in enumerate(windows):
        channels = (route,)
        records += [
            (end, w, i, route, float(n), latency + n / bandwidth, channels)
            for i, (end, n) in enumerate(zip(ends, sizes))
        ]
        deferred.defer(env, ends, latency, bandwidth, sizes, route, channels)
    expected = []
    for _, _, _, route, nbytes, duration, channels in sorted(records):
        live.record(route, nbytes, duration, channels)
        expected.append((route, channels, nbytes, duration))
    times = sorted(end for end, *_ in records)
    env.run(until=times[len(times) // 2])
    assert deferred.count == sum(end <= env.now for end in times)
    env.run(until=times[-1] + 1.0)
    assert deferred.count == live.count == len(records)
    assert seen == expected
    assert all(type(value) is float for record in seen for value in record[2:])
    return live, deferred


def _assert_same_sums(live, deferred):
    for name in ("bytes_total", "busy_time"):
        assert getattr(deferred, name).hex() == getattr(live, name).hex()
    assert [(r, b.hex()) for r, b in deferred.per_route.items()] == [
        (r, b.hex()) for r, b in live.per_route.items()
    ]


def test_deferred_windows_sharing_a_route_match_live_records():
    """Two windows of one route interleave: their records join the sums
    in end order, bit for bit as live records would."""
    live, deferred = _live_and_deferred([
        (2e-6, 3e11, "gpu4->gpu0", [0.1, 0.35, 0.6, 0.85], range(7 * MB, 11 * MB, MB)),
        (2e-6, 3e11, "gpu4->gpu0", [0.2, 0.3, 0.7, 0.8], range(3 * MB, 7 * MB, MB)),
        (1e-6, 7e10, "gpu5->gpu1", [0.25, 0.65], range(5 * MB + 3, 7 * MB + 3, MB)),
    ])
    _assert_same_sums(live, deferred)
    assert list(deferred.per_route) == ["gpu4->gpu0", "gpu5->gpu1"]


def test_deferred_records_tied_across_windows_go_in_window_order():
    """Records of two windows ending at the same instant join the sums
    in the order the windows were deferred."""
    live, deferred = _live_and_deferred([
        (2e-6, 3e11, "b", [0.5, 1.5, 2.5], range(MB, 4 * MB, MB)),
        (1e-6, 7e10, "a", [0.5, 1.0, 2.5], range(9 * MB, 12 * MB, MB)),
    ])
    _assert_same_sums(live, deferred)
    assert list(deferred.per_route) == ["b", "a"]


def test_a_window_longer_than_a_slice_settles_in_order():
    """A window with more records than one settle slice, interleaved
    with a shorter one: the slices stop where the short window's next
    record is due, and the sums match live records bit for bit."""
    n = 3 * _SLICE + 17
    ends = [0.001 * (i + 1) + 1e-5 * (i % 7) for i in range(n)]
    other = [0.0025 * (i + 1) for i in range(n // 3)]
    live, deferred = _live_and_deferred([
        (2e-6, 3e11, "gpu4->gpu0", ends, range(7 * MB, 7 * MB + 123 * n, 123)),
        (1e-6, 7e10, "gpu5->gpu1", other, range(MB, MB + 7 * (n // 3), 7)),
    ])
    _assert_same_sums(live, deferred)


def test_bulk_channel_ledger_matches_one_record_per_copy():
    """``Channel.record_all`` sums its sizes in order, bit for bit as
    one ``record`` per size does."""
    server = Server(Environment(), n_gpus=2)
    bulk, single = list(server.interconnect.channels.values())[:2]
    bulk.bytes_moved = single.bytes_moved = 0.1
    sizes = range(7 * MB + 3, 7 * MB + 3 + 1234567 * 3000, 1234567)
    bulk.record_all(sizes)
    for nbytes in sizes:
        single.record(nbytes)
    assert type(bulk.bytes_moved) is float
    assert bulk.bytes_moved.hex() == single.bytes_moved.hex()
    assert bulk.transfer_count == single.transfer_count == len(sizes)


def test_gpu_dilation_restored_after_transfer():
    env = Environment()
    server = Server(env, n_gpus=2)
    g0, g1 = server.gpus
    run_transfer(server, g0, g1, 64 * MB)
    assert g0.active_copies == 0
    assert g1.active_copies == 0
    assert g0.dilation() == 1.0
