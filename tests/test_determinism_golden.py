"""Determinism lockdown for the simulation-kernel fast path.

The kernel's inner loop was rewritten for speed (PR 4); these tests pin
its *behaviour* to the pre-optimisation kernel, bit for bit.  The golden
value below is the conservation-audit SHA-256 digest of a fixed seeded
scenario, captured on the unoptimised kernel **before** the fast path
landed.  Any change to event ordering, tie-breaking, float arithmetic in
the roofline model, or transfer scheduling shows up here as a digest
mismatch — "tests pass" is not enough, the event stream itself must be
identical.

The scenario is the Figure 7/10 offloading rig: a FlexGen long-prompt
consumer backed by an idle LLM producer, driven by the deterministic
long-prompt trace.  It exercises every hot path the fast-path PR
touched: the event loop, DMA channel scheduling, engine iteration
loops, token-counter appends and the roofline math.
"""

import json

from repro.experiments.harness import build_consumer_rig
from repro.experiments.runall import run_all
from repro.experiments.sweep import sweep_request_rate
from repro.models import LLAMA2_13B, OPT_30B
from repro.telemetry.slo import default_slo_policy
from repro.workloads.arrivals import submit_all
from repro.workloads.longprompt import long_prompt_requests
from repro.workloads.sharegpt import sharegpt_requests

#: SHA-256 conservation-audit digest of the scenario below, captured on
#: the pre-optimisation kernel (commit 43b88d4).  Do not update this
#: value to make a kernel change pass — a mismatch means the change
#: altered simulation behaviour, which is exactly what this test exists
#: to catch.  (If behaviour must change for a correctness fix, record
#: the old and new digests in the commit message.)
GOLDEN_DIGEST = "aea264f10e1ea0ab8fd45cebe675e0da3e5be2fa7d67274d8adc7f4d47530b9d"

#: Simulated horizon: long enough to cover prefill, offload transfers,
#: fetches and several completed requests; short enough for tier-1.
DURATION = 30.0


def _run_scenario(telemetry: bool, observability: bool = False):
    """One seeded audited run; returns (digest, final-metrics dict, rig).

    ``observability=True`` additionally attaches the full time-resolved
    layer (metric scraper + SLO tracker + flight recorder, PR 8) so the
    digest tests can prove it is observation-only.
    """
    rig = build_consumer_rig(
        "flexgen",
        OPT_30B,
        producer_model=LLAMA2_13B,
        use_aqua=True,
        audit=True,
        telemetry=telemetry,
        scrape_interval=0.5 if observability else None,
        slo_policy=default_slo_policy() if observability else None,
    )
    rig.start()
    submit_all(rig.env, rig.consumer_engine, long_prompt_requests(start=2.0))
    # The producer serves its own seeded trace while donating memory, so
    # the digest also covers the vLLM iteration loop and decode roofline.
    submit_all(
        rig.env, rig.producer_engine, sharegpt_requests(rate=3.0, count=40, seed=7)
    )
    rig.env.run(until=DURATION)
    rig.auditor.check(checkpoint="final")
    report = rig.auditor.report()
    assert report.ok, report.violations

    metrics = rig.consumer_engine.metrics
    final = {
        "tokens": metrics.tokens_generated,
        "completed": len(metrics.completed),
        "rct_mean": repr(metrics.mean_rct()),
        "ttft_mean": repr(metrics.mean_ttft()),
        "transfers_observed": report.transfers_observed,
        "checks": report.checks,
        "now": repr(rig.env.now),
        "producer_tokens": rig.producer_engine.metrics.tokens_generated,
    }
    return report.digest, final, rig


def test_digest_matches_pre_optimisation_golden():
    """Telemetry off: the audit digest equals the committed golden."""
    digest, final, _ = _run_scenario(telemetry=False)
    assert final["tokens"] > 0 and final["transfers_observed"] > 0
    assert digest == GOLDEN_DIGEST, (
        f"kernel behaviour diverged from the pre-optimisation golden\n"
        f"  got      {digest}\n  expected {GOLDEN_DIGEST}\n  final metrics: {final}"
    )


def test_digest_with_telemetry_matches_golden():
    """Telemetry on is observation-only: identical digest to the golden."""
    digest, _, _ = _run_scenario(telemetry=True)
    assert digest == GOLDEN_DIGEST


def test_identical_runs_bit_identical():
    """Two same-seed runs agree on digest *and* every final metric."""
    digest_a, final_a, _ = _run_scenario(telemetry=False)
    digest_b, final_b, _ = _run_scenario(telemetry=False)
    assert digest_a == digest_b
    assert final_a == final_b


def test_telemetry_does_not_change_final_metrics():
    digest_off, final_off, _ = _run_scenario(telemetry=False)
    digest_on, final_on, _ = _run_scenario(telemetry=True)
    assert digest_off == digest_on
    assert final_off == final_on


def test_observability_layer_is_observation_only():
    """The full time-resolved layer (PR 8) — 0.5 s metric scraper, SLO
    tracker with the default two-tenant policy, flight recorder — leaves
    the audited event stream bit-identical.  The scraper runs on the
    simulation clock but only *reads* state at each tick, so the only
    thing it may change is event ids — which the audit digest
    deliberately excludes.  (Its ticks also end the producer's decode
    windows at different steps, which must not show either.)
    """
    digest_off, final_off, _ = _run_scenario(False)
    digest_on, final_on, rig = _run_scenario(True, observability=True)
    # Non-vacuous: the layer really was attached and really scraped.
    assert rig.telemetry is not None and rig.telemetry.scraper is not None
    assert rig.telemetry.scraper.scrapes >= DURATION / 0.5 - 1
    assert rig.telemetry.slo is not None and rig.telemetry.recorder is not None
    assert digest_on == digest_off, (
        f"observability layer perturbed the event stream\n"
        f"  on  {digest_on}\n  off {digest_off}"
    )
    assert final_on == final_off
    assert digest_off == GOLDEN_DIGEST


# ---------------------------------------------------------------------------
# Parallel fan-out determinism (PR 5)
#
# The experiment pool's whole claim is that ``--jobs N`` is invisible in
# the outputs: each cell is a sealed simulation, so fanning cells out
# over worker processes — or replaying them from the run cache — must
# produce byte-identical files.  These tests enforce that on real
# experiment subsets.  The subset deliberately excludes ``fig14`` and
# ``e2e``, which embed wall-clock solve times and are not
# byte-deterministic even serially.
# ---------------------------------------------------------------------------
DETERMINISTIC_SUBSET = ["fig02", "fig03", "tables"]


def _manifest_digests(manifest: dict) -> dict:
    return {name: entry["digest"] for name, entry in manifest.items()}


def test_run_all_parallel_matches_serial_byte_for_byte(tmp_path):
    serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
    serial = run_all(
        serial_dir, only=DETERMINISTIC_SUBSET, progress=lambda _: None, jobs=1
    )
    parallel = run_all(
        parallel_dir, only=DETERMINISTIC_SUBSET, progress=lambda _: None, jobs=2
    )
    assert _manifest_digests(serial) == _manifest_digests(parallel)
    for name, entry in serial.items():
        serial_bytes = (serial_dir / f"{name}.json").read_bytes()
        parallel_bytes = (parallel_dir / f"{name}.json").read_bytes()
        assert serial_bytes == parallel_bytes, f"{name} diverged under --jobs 2"
        assert entry["digest"] == parallel[name]["digest"]


def test_run_all_cache_replay_matches_fresh_run(tmp_path):
    """A warm-cache replay reproduces the cold run's files exactly."""
    cache_dir = tmp_path / "cache"
    cold = run_all(
        tmp_path / "cold",
        only=DETERMINISTIC_SUBSET,
        progress=lambda _: None,
        jobs=1,
        cache_dir=cache_dir,
    )
    warm = run_all(
        tmp_path / "warm",
        only=DETERMINISTIC_SUBSET,
        progress=lambda _: None,
        jobs=1,
        cache_dir=cache_dir,
    )
    assert all(not entry["cached"] for entry in cold.values())
    assert all(entry["cached"] for entry in warm.values())
    assert _manifest_digests(cold) == _manifest_digests(warm)
    for name in DETERMINISTIC_SUBSET:
        assert (tmp_path / "cold" / f"{name}.json").read_bytes() == (
            tmp_path / "warm" / f"{name}.json"
        ).read_bytes()
    with open(tmp_path / "warm" / "manifest.json") as fh:
        on_disk = json.load(fh)
    assert on_disk["run"]["cache"]["hits"] == len(DETERMINISTIC_SUBSET)


def test_sweep_parallel_matches_serial():
    kwargs = dict(rates=(1.0, 2.0), count=8)
    serial = sweep_request_rate(jobs=1, **kwargs)
    parallel = sweep_request_rate(jobs=2, **kwargs)
    as_json = lambda pts: json.dumps(  # noqa: E731 - tiny local normaliser
        [(p.rate, p.summaries) for p in pts], sort_keys=True, default=str
    )
    assert as_json(serial) == as_json(parallel)


# ---------------------------------------------------------------------------
# Routing-layer inertness and frontier fan-out determinism (PR 9)
#
# Two lockdowns for the cluster routing layer.  First: merely importing
# ``repro.routing`` — and even *running* a frontier cell in-process,
# which exercises its global request-id and caching machinery — must
# leave the single-server figure rigs byte-identical to the committed
# golden.
# Second: the frontier sweep itself is a pooled fan-out, so serial,
# ``--jobs 2`` and warm-cache replays must agree byte for byte.
# ---------------------------------------------------------------------------
def test_routing_layer_is_inert_for_single_server_rigs():
    import repro.routing  # noqa: F401 - the import is the point
    from repro.experiments.frontier import frontier_cell

    # Run a real routed cell first: it consumes request ids, seeds RNGs
    # and populates policy state.  None of that may leak into the
    # single-server scenario digest.
    cell = frontier_cell(
        rate=12.0, duration=4.0, n_servers=2, concurrency=4, drain=4.0
    )
    assert cell["completed"] > 0

    digest, final, _ = _run_scenario(telemetry=False)
    assert final["tokens"] > 0
    assert digest == GOLDEN_DIGEST, (
        f"routing layer perturbed the single-server event stream\n"
        f"  got      {digest}\n  expected {GOLDEN_DIGEST}"
    )


#: Small frontier grid for the fan-out tests: two policies, two rates,
#: short cells — a few seconds total, but the full pooled code path.
_FRONTIER_KWARGS = dict(
    rates=(8.0, 32.0),
    policies=("round-robin", "least-loaded"),
    duration=8.0,
    n_servers=2,
    concurrency=4,
    max_queue_depth=12,
    drain=8.0,
)


def _sweep_json(sweep: dict) -> str:
    return json.dumps(sweep, sort_keys=True, default=str)


def test_frontier_parallel_matches_serial_byte_for_byte():
    from repro.experiments.frontier import frontier_sweep

    serial = frontier_sweep(jobs=1, **_FRONTIER_KWARGS)
    parallel = frontier_sweep(jobs=2, **_FRONTIER_KWARGS)
    assert _sweep_json(serial) == _sweep_json(parallel)
    # The ledger digests are the per-cell fingerprints: pin them too.
    for policy, cells in serial["grid"].items():
        for cell, twin in zip(cells, parallel["grid"][policy]):
            assert cell["ledger_digest"] == twin["ledger_digest"]
            assert cell["ledger_ok"] and twin["ledger_ok"]


def test_frontier_cache_replay_matches_cold_run(tmp_path):
    from repro.experiments.frontier import frontier_sweep

    cache_dir = tmp_path / "cache"
    n_cells = len(_FRONTIER_KWARGS["rates"]) * len(_FRONTIER_KWARGS["policies"])

    cold_log: list[str] = []
    cold = frontier_sweep(
        jobs=1, cache_dir=cache_dir, progress=cold_log.append, **_FRONTIER_KWARGS
    )
    # The cold run populated the content-addressed cache on disk.
    cached_files = sorted(p for p in cache_dir.rglob("*") if p.is_file())
    assert len(cached_files) >= n_cells

    warm_log: list[str] = []
    warm = frontier_sweep(
        jobs=1, cache_dir=cache_dir, progress=warm_log.append, **_FRONTIER_KWARGS
    )
    assert _sweep_json(cold) == _sweep_json(warm)
    # The warm replay touched every cell without recomputing any: no
    # new cache entries were written.
    assert sorted(p for p in cache_dir.rglob("*") if p.is_file()) == cached_files
