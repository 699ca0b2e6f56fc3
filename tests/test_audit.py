"""Self-tests for the conservation auditor (repro.audit).

Two kinds of coverage: a clean simulation must audit clean (no false
positives, even under fault injection), and deliberately corrupted
ledgers must be flagged (no false negatives) — a double-released pool
tag, a phantom reservation, a forged channel counter.
"""

import json

import pytest

from repro.aqua import AquaLib, Coordinator, EngineStats, LlmInformer
from repro.aqua.lib import AQUA_OFFER_TAG
from repro.audit import LAWS, AuditError, ConservationAuditor
from repro.faults import DmaStall, FaultInjector, FaultSchedule, GpuFailure
from repro.hardware import Server
from repro.hardware.specs import GiB, MB
from repro.sim import Environment


def make_audited_rig(offer_bytes=10 * GiB, interval=None):
    """The standard 2-GPU consumer/producer rig with an auditor attached.

    ``interval=None`` checks after every simulation event — the most
    aggressive (and most false-positive-prone) mode.
    """
    env = Environment()
    server = Server(env, n_gpus=2, topology="p2p")
    coord = Coordinator()
    consumer = AquaLib(server.gpus[0], server, coord)
    producer = AquaLib(server.gpus[1], server, coord)
    coord.pair(consumer.name, producer.name)
    if offer_bytes:
        producer.complete_offer(offer_bytes)
    auditor = ConservationAuditor(env)
    auditor.attach_server(server)
    auditor.attach_coordinator(coord)
    auditor.watch(interval=interval)
    return env, server, coord, consumer, producer, auditor


def run(env, gen):
    proc = env.process(gen)
    env.run(until=proc)
    return proc.value


def churn(env, consumer):
    """Allocate, fetch, flush and free a few tensors (clean activity)."""
    tensors = [consumer.to_responsive_tensor((i + 1) * 64 * MB) for i in range(4)]
    for t in tensors:
        run(env, t.fetch())
    run(env, tensors[0].flush())
    tensors[1].free()
    return tensors


# ---------------------------------------------------------------------------
# No false positives
# ---------------------------------------------------------------------------
def test_clean_run_audits_clean_per_event():
    env, server, coord, consumer, producer, auditor = make_audited_rig()
    churn(env, consumer)
    assert auditor.check(checkpoint="final") == []
    report = auditor.report()
    assert report.ok
    assert report.checks > 1  # the per-event monitor fired during the run
    assert report.transfers_observed >= 5


def test_clean_reclaim_cycle_audits_clean():
    """The full donate -> allocate -> reclaim -> evacuate -> return cycle."""
    env, server, coord, consumer, producer, auditor = make_audited_rig()
    t = consumer.to_responsive_tensor(2 * GiB)
    producer.informer = LlmInformer(queue_high=4)
    stats = EngineStats(now=0.0, pending_requests=100, offerable_bytes=0)
    producer.inform_stats(stats)  # starts the reclaim
    run(env, consumer.respond())  # evacuates the tensor to DRAM
    producer.inform_stats(stats)  # completes the reclaim
    t.free()
    assert auditor.check(checkpoint="final") == []
    assert auditor.report().ok


def test_fault_injected_run_audits_clean():
    """Stalls, retries and a GPU failure must not desynchronize any
    ledger the auditor watches (lost tensors reconcile lazily but the
    books stay mutually consistent)."""
    env, server, coord, consumer, producer, auditor = make_audited_rig(
        interval=0.5
    )
    injector = FaultInjector(server, coordinator=coord)
    injector.install(
        FaultSchedule(
            [
                DmaStall(at=0.02, channel="nvlink:gpu1->gpu0", duration=0.3),
                GpuFailure(at=1.0, gpu="gpu1", duration=1.0),
            ]
        )
    )
    t = consumer.to_responsive_tensor(1 * GiB)

    def workload(env):
        yield env.timeout(0.05)
        yield from t.fetch()  # rides out the stall via retries

    env.process(workload(env))
    env.run(until=3.0)
    assert consumer.retries > 0
    assert auditor.check(checkpoint="final") == []
    assert auditor.report().ok


# ---------------------------------------------------------------------------
# No false negatives: corrupted ledgers are flagged
# ---------------------------------------------------------------------------
def test_double_release_detected():
    """Releasing a live tensor's reservation behind the library's back
    breaks tensor-vs-pool conservation."""
    env, server, coord, consumer, producer, auditor = make_audited_rig()
    t = consumer.to_responsive_tensor(1 * GiB)
    producer.gpu.hbm.release(t.tag)  # the corruption
    violations = auditor.check(checkpoint="corrupt")
    assert any(
        v.law == "pool-conservation" and v.subject == t.tag for v in violations
    )


def test_phantom_reservation_detected():
    """A tensor-shaped reservation with no tensor and no allocation
    behind it is an orphan (e.g. a leaked rollback)."""
    env, server, coord, consumer, producer, auditor = make_audited_rig()
    consumer.to_responsive_tensor(64 * MB)
    server.dram.pool.reserve("aqua#9999", 123)  # the corruption
    violations = auditor.check(checkpoint="corrupt")
    assert any(
        v.law == "pool-conservation" and "aqua#9999" in v.message
        for v in violations
    )


def test_forged_channel_counter_detected():
    env, server, coord, consumer, producer, auditor = make_audited_rig()
    t = consumer.to_responsive_tensor(64 * MB)
    run(env, t.fetch())
    channel = next(iter(server.interconnect.channels.values()))
    channel.bytes_moved += 1.0  # the corruption
    violations = auditor.check(checkpoint="corrupt")
    assert any(
        v.law == "byte-conservation" and v.subject == channel.name
        for v in violations
    )


def test_forged_transfer_stats_detected():
    env, server, coord, consumer, producer, auditor = make_audited_rig()
    t = consumer.to_responsive_tensor(64 * MB)
    run(env, t.fetch())
    server.transfer_stats.count += 1  # the corruption
    violations = auditor.check(checkpoint="corrupt")
    assert any(
        v.law == "byte-conservation" and v.subject == "TransferStats"
        for v in violations
    )


def test_lease_vs_offer_tag_mismatch_detected():
    env, server, coord, consumer, producer, auditor = make_audited_rig()
    producer.gpu.hbm.release(AQUA_OFFER_TAG, 1)  # the corruption
    violations = auditor.check(checkpoint="corrupt")
    assert any(
        v.law == "pool-conservation" and v.subject == producer.name
        for v in violations
    )


def test_strict_mode_raises_at_the_checkpoint():
    env, server, coord, consumer, producer, auditor = make_audited_rig()
    auditor.strict = True
    server.dram.pool.reserve("aqua#777", 1)
    with pytest.raises(AuditError) as exc:
        auditor.check(checkpoint="boom")
    assert "aqua#777" in str(exc.value)
    assert exc.value.violations


# ---------------------------------------------------------------------------
# Determinism digest
# ---------------------------------------------------------------------------
def _digest_of_run():
    env, server, coord, consumer, producer, auditor = make_audited_rig(
        interval=0.25
    )
    churn(env, consumer)
    env.run(until=2.0)
    auditor.check(checkpoint="final")
    return auditor.report()


def test_identical_runs_produce_identical_digests():
    a = _digest_of_run()
    b = _digest_of_run()
    assert a.ok and b.ok
    assert a.digest == b.digest
    assert len(a.digest) == 64  # hex SHA-256


def test_different_runs_produce_different_digests():
    a = _digest_of_run()
    env, server, coord, consumer, producer, auditor = make_audited_rig(
        interval=0.25
    )
    t = consumer.to_responsive_tensor(32 * MB)  # different workload
    run(env, t.fetch())
    env.run(until=2.0)
    auditor.check(checkpoint="final")
    assert auditor.report().digest != a.digest


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------
def test_report_is_json_safe():
    env, server, coord, consumer, producer, auditor = make_audited_rig()
    server.dram.pool.reserve("aqua#31337", 7)
    auditor.check(checkpoint="corrupt")
    payload = auditor.report().to_dict()
    round_tripped = json.loads(json.dumps(payload))
    assert round_tripped["ok"] is False
    assert round_tripped["violations"]
    assert round_tripped["digest"] == auditor.report().digest


def test_laws_are_documented():
    assert LAWS == (
        "byte-conservation",
        "pool-conservation",
        "placement",
        "determinism",
    )
