"""Tests for the replication-grade evaluation suite (repro.evals)."""

import json
import math

import pytest

from repro import evals
from repro.evals import checks as C
from repro.evals.registry import Claim, EvalRegistry
from repro.evals.runner import evaluate_claim, replicate, run_cell
from repro.evals.schema import SchemaError, validate_replication
from repro.experiments.runall import EXPERIMENTS


# ---------------------------------------------------------------------------
# Registry: the catalog covers the whole figure/table set
# ---------------------------------------------------------------------------
def test_every_runall_experiment_is_covered_by_a_claim():
    covered = set(evals.REGISTRY.experiments())
    assert covered == set(EXPERIMENTS), (
        f"claims must consume every figure/table cell; "
        f"uncovered: {set(EXPERIMENTS) - covered}, "
        f"unknown: {covered - set(EXPERIMENTS)}"
    )


def test_claims_have_unique_ids_and_tolerances_declared_as_data():
    claims = evals.get_claims()
    assert len(claims) >= 20
    assert len({c.id for c in claims}) == len(claims)
    for claim in claims:
        assert claim.claim, f"{claim.id} has no claim text"
        assert claim.expected, f"{claim.id} has no expected statement"
        assert isinstance(claim.tolerance, dict)


def test_select_by_id_prefix_and_experiment_name():
    registry = evals.REGISTRY
    assert {c.id for c in registry.select(["fig02"])} == {
        "fig02-producer-headroom",
        "fig02-llm-exhaustion",
    }
    assert [c.id for c in registry.select(["fig07-speedup"])] == ["fig07-speedup"]
    # fig15 is an *experiment* name consumed by the invariance claim.
    assert [c.id for c in registry.select(["fig15"])] == [
        "fig15-17-producer-invariance"
    ]
    with pytest.raises(KeyError):
        registry.select(["no-such-claim"])


def test_registry_rejects_duplicates_and_cell_less_claims():
    registry = EvalRegistry()
    claim = Claim(
        id="x-a", figure="F", claim="c", experiments=("fig02",), check=lambda r, t: None
    )
    registry.register(claim)
    with pytest.raises(ValueError):
        registry.register(claim)
    with pytest.raises(ValueError):
        registry.register(
            Claim(id="x-b", figure="F", claim="c", experiments=(), check=lambda r, t: None)
        )


# ---------------------------------------------------------------------------
# Checks: tolerance boundaries are inclusive and deterministic
# ---------------------------------------------------------------------------
def test_band_boundaries_are_inclusive():
    # A value landing exactly on either band edge must PASS, always.
    assert C.check_band(1.5, 1.5, None, "x").status == C.PASS
    assert C.check_band(2.6, None, 2.6, "x").status == C.PASS
    assert C.check_band(1.5, 1.5, 1.5, "x").status == C.PASS
    below = C.check_band(math.nextafter(1.5, 0.0), 1.5, None, "x")
    above = C.check_band(math.nextafter(2.6, 3.0), None, 2.6, "x")
    assert below.status == C.FAIL and above.status == C.FAIL
    # Determinism: identical inputs, identical verdict and margin.
    again = C.check_band(1.5, 1.5, None, "x")
    assert (again.status, again.delta) == (C.PASS, 0.0)


def test_strict_band_excludes_its_edges():
    # A strict band ports a strict `<`/`>`: a value on the edge FAILs.
    assert C.check_band(1.5, 1.5, None, "x", strict=True).status == C.FAIL
    assert C.check_band(2.6, None, 2.6, "x", strict=True).status == C.FAIL
    assert C.check_band(math.nextafter(1.5, 2.0), 1.5, 2.6, "x", strict=True).status == C.PASS
    assert C.check_band(2.0, 1.5, None, "x", strict=True).expected == "x > 1.5"


def _tied(results, path, value):
    """``results`` with the leaf at ``path`` replaced by ``value``."""
    out = json.loads(json.dumps(results))
    node = out
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return out


_SLICES = {
    size: {"switch_time": switch, "ttft_p95": ttft}
    for size, switch, ttft in (("1", 3.6, 12.1), ("5", 1.0, 11.4), ("20", 0.2, 15.0),
                               ("80", 0.1, 22.9))
}
_HARDWARE = {
    "A100 + NVLink3 / PCIe4": {"dram": 123, "aqua": 921, "speedup": 921 / 123},
    "A100 + NVLink3 / PCIe5": {"dram": 297, "aqua": 921, "speedup": 921 / 297},
    "H100 + NVLink4 / PCIe5": {"dram": 320, "aqua": 1633, "speedup": 1633 / 320},
}
_OFFLOAD = {"uvm/pcie": 90, "deepspeed/pcie": 113, "flexgen/pcie": 123,
            "uvm/nvlink": 233, "deepspeed+aqua": 570, "aqua": 921}
_ORCA = {
    "orca": {"peak_concurrency": 11, "finish": 286.3, "ttft_p95": 190.4},
    "vllm": {"peak_concurrency": 30, "finish": 234.4, "ttft_p95": 5.9},
}
_CHAT = {
    "aqua": {"completed": 100, "cache_hits": 0, "rct_mean": 49.1, "finish": 301.0},
    "aqua+ctx-cache": {"completed": 100, "cache_hits": 75, "rct_mean": 33.3,
                       "finish": 221.0},
}


@pytest.mark.parametrize(
    "claim_id, cell, value, path, tie",
    [
        # A knob that stopped having any effect measures the same twice.
        ("ablation-control-frequency-reaction", "ablation-control-frequency",
         {"4": 801, "16": 801, "512": 123}, ("512",), 801),
        ("ablation-slice-tradeoff", "ablation-slice", _SLICES, ("20", "switch_time"), 3.6),
        ("ablation-slice-tradeoff", "ablation-slice", _SLICES, ("80", "ttft_p95"), 11.4),
        ("sensitivity-hardware-speedup", "sensitivity-hardware", _HARDWARE,
         ("A100 + NVLink3 / PCIe5", "speedup"), 921 / 123),
        ("sensitivity-hardware-speedup", "sensitivity-hardware", _HARDWARE,
         ("H100 + NVLink4 / PCIe5", "aqua"), 921),
        ("baseline-offload-ordering", "baseline-offload", _OFFLOAD, ("uvm/nvlink",), 123),
        ("baseline-offload-ordering", "baseline-offload", _OFFLOAD, ("aqua",), 233),
        ("baseline-orca-paging", "baseline-orca", _ORCA, ("vllm", "finish"), 286.3),
        ("baseline-orca-paging", "baseline-orca", _ORCA, ("vllm", "ttft_p95"), 190.4),
        ("context-cache-reuse", "context-cache", _CHAT, ("aqua+ctx-cache", "finish"), 301.0),
    ],
)
def test_ported_strict_checks_fail_on_a_tie(claim_id, cell, value, path, tie):
    (claim,) = [c for c in evals.get_claims() if c.id == claim_id]
    assert claim.check({cell: value}, claim.tolerance).status == C.PASS
    tied = claim.check({cell: _tied(value, path, tie)}, claim.tolerance)
    assert tied.status == C.FAIL, tied.detail


def test_metric_rejects_missing_none_and_nan():
    data = {"a": {"b": [1.0, None]}, "nan": float("nan")}
    assert C.metric(data, "a", "b", 0) == 1.0
    for path in (("a", "missing"), ("a", "b", 1), ("nan",), ("a", "b", 7)):
        with pytest.raises(C.MissingMetric):
            C.metric(data, *path)


def test_ratio_guards_zero_denominator():
    with pytest.raises(C.MissingMetric):
        C.ratio(1.0, 0.0)


def test_check_all_fail_dominates_skip_dominates_pass():
    p = C.CheckResult(C.PASS, delta=1.0)
    s = C.CheckResult(C.SKIP, detail="missing")
    f = C.CheckResult(C.FAIL, detail="out of band")
    assert C.check_all([p, s, f]).status == C.FAIL
    assert C.check_all([p, s]).status == C.SKIP
    assert C.check_all([p, p]).status == C.PASS
    assert C.check_all([]).status == C.SKIP


# ---------------------------------------------------------------------------
# Runner edge cases: failed cells and bad metrics score SKIP, never crash
# ---------------------------------------------------------------------------
def _claim(check):
    return Claim(
        id="t-claim",
        figure="Figure T",
        claim="test claim",
        experiments=("cellA",),
        check=check,
        tolerance={"lo": C.Band(lo=1.0, what="value")},
    )


def test_failed_cell_scores_skip_with_error_detail():
    claim = _claim(lambda r, t: C.CheckResult(C.PASS))
    scored = evaluate_claim(claim, {"cellA": {"ok": False, "error": "BOOM: kaput"}})
    assert scored["status"] == "SKIP"
    assert "BOOM: kaput" in scored["detail"]


def test_missing_cell_scores_skip():
    claim = _claim(lambda r, t: C.CheckResult(C.PASS))
    scored = evaluate_claim(claim, {})
    assert scored["status"] == "SKIP"
    assert "not run" in scored["detail"]


def test_nan_metric_scores_skip():
    def check(results, tol):
        return tol["lo"](C.metric(results, "cellA", "value"), "value")

    scored = evaluate_claim(
        _claim(check), {"cellA": {"ok": True, "value": {"value": float("nan")}}}
    )
    assert scored["status"] == "SKIP"
    assert "NaN" in scored["detail"]


def test_buggy_check_scores_skip_not_crash():
    def check(results, tol):
        raise RuntimeError("check bug")

    scored = evaluate_claim(_claim(check), {"cellA": {"ok": True, "value": {}}})
    assert scored["status"] == "SKIP"
    assert "check bug" in scored["detail"]


def test_a_declared_band_the_check_never_consults_scores_skip():
    claim = Claim(
        id="t-two-bands",
        figure="Figure T",
        claim="test claim",
        experiments=("cellA",),
        check=lambda r, tol: tol["floor"](r["cellA"]["value"], "value"),
        tolerance={
            "floor": C.Band(lo=1.0, what="value"),
            "ceiling": C.Band(hi=9.0, what="value"),
        },
    )
    assert claim.expected == "value >= 1; value <= 9"
    scored = evaluate_claim(claim, {"cellA": {"ok": True, "value": {"value": 2.0}}})
    assert scored["status"] == "SKIP"
    assert "ceiling" in scored["detail"] and "floor" not in scored["detail"]
    # A FAIL stays a FAIL: the value is out of a band that was checked.
    scored = evaluate_claim(claim, {"cellA": {"ok": True, "value": {"value": 0.5}}})
    assert scored["status"] == "FAIL"


def test_a_band_edge_read_from_the_results_is_an_equality():
    pairs = C.Band(what="pairs", equals="GPUs / 2")
    assert pairs.describe() == "pairs = GPUs / 2"
    assert pairs(8.0, "16-GPU pairs", equal_to=8).status == C.PASS
    assert pairs(7.0, "16-GPU pairs", equal_to=8).status == C.FAIL
    with pytest.raises(TypeError):
        pairs(8.0, "16-GPU pairs")
    with pytest.raises(TypeError):
        C.Band(lo=1.0, what="x")(2.0, "x", equal_to=2.0)


def test_every_claim_states_its_expected_outcome_from_its_bands():
    for claim in evals.get_claims():
        assert claim.tolerance, f"{claim.id} declares no band"
        assert all(isinstance(b, C.Band) and b.what for b in claim.tolerance.values())
        assert claim.expected == "; ".join(b.describe() for b in claim.tolerance.values())


def test_run_cell_contains_experiment_errors():
    payload = run_cell("tables")
    assert payload["ok"] and payload["value"]["table1"]
    broken = run_cell("no-such-experiment")
    assert not broken["ok"] and "KeyError" in broken["error"]


# ---------------------------------------------------------------------------
# Schema: REPLICATION.json round-trips and self-validates
# ---------------------------------------------------------------------------
def _fast_doc(tmp_path, **kwargs):
    return replicate(
        only=["fig02", "tables"],
        jobs=1,
        cache_dir=str(tmp_path / "cache") if kwargs.get("cache") else None,
    )


def test_replication_document_round_trips(tmp_path):
    doc = _fast_doc(tmp_path)
    path = evals.write_replication(doc, tmp_path / "REPLICATION.json")
    loaded = validate_replication(json.loads(path.read_text()))
    assert loaded == json.loads(json.dumps(doc, default=str))
    assert loaded["summary"]["verdict"] in ("PASS", "FAIL")
    assert loaded["summary"]["total"] == len(loaded["claims"]) == 3


def test_a_skipped_claim_fails_the_verdict(tmp_path):
    doc = json.loads(json.dumps(_fast_doc(tmp_path), default=str))
    doc["claims"][0]["status"] = "SKIP"
    doc["summary"].update(
        {"pass": doc["summary"]["pass"] - 1, "skip": doc["summary"]["skip"] + 1}
    )
    with pytest.raises(SchemaError):
        validate_replication(doc)
    doc["summary"]["verdict"] = "FAIL"
    assert validate_replication(doc)["summary"]["verdict"] == "FAIL"


def test_cli_exits_1_when_a_claim_skips(tmp_path, monkeypatch):
    import dataclasses

    from repro.cli import main

    # The tables cell comes back empty, so tables-inventory has nothing
    # to read and scores SKIP.
    broken = dataclasses.replace(EXPERIMENTS["tables"], cell=lambda: {})
    monkeypatch.setitem(EXPERIMENTS, "tables", broken)
    monkeypatch.chdir(tmp_path)
    assert main(["replicate", "--only", "tables-inventory", "--jobs", "1", "--no-cache"]) == 1
    doc = validate_replication(json.loads((tmp_path / "REPLICATION.json").read_text()))
    assert doc["summary"]["skip"] == 1 and doc["summary"]["verdict"] == "FAIL"


def test_validator_rejects_malformed_documents(tmp_path):
    doc = _fast_doc(tmp_path)
    for mutate in (
        lambda d: d.pop("summary"),
        lambda d: d["claims"][0].pop("status"),
        lambda d: d["claims"][0].update(status="MAYBE"),
        lambda d: d["summary"].update({"pass": 99}),
        lambda d: d["summary"].update({"verdict": "FAIL"}),
        lambda d: d.update(schema="other/v9"),
        lambda d: d["claims"].clear(),
        lambda d: d["claims"][0].update(experiments=["ghost-cell"]),
    ):
        broken = json.loads(json.dumps(doc, default=str))
        mutate(broken)
        with pytest.raises(SchemaError):
            validate_replication(broken)


# ---------------------------------------------------------------------------
# End to end: warm cache replays, reports render
# ---------------------------------------------------------------------------
def test_replicate_warm_cache_replays_cells(tmp_path):
    cache_dir = str(tmp_path / "cache")
    cold = replicate(only=["fig02", "tables"], jobs=1, cache_dir=cache_dir)
    warm = replicate(only=["fig02", "tables"], jobs=1, cache_dir=cache_dir)
    assert all(not cell["cached"] for cell in cold["cells"].values())
    assert all(cell["cached"] for cell in warm["cells"].values())
    assert cold["cache"]["misses"] == len(cold["cells"])
    assert warm["cache"]["hits"] == len(warm["cells"])
    # The verdict is unchanged by the replay.
    strip = lambda d: [  # noqa: E731 - tiny local normaliser
        {k: v for k, v in c.items() if k != "detail"} for c in d["claims"]
    ]
    assert strip(cold) == strip(warm)


def test_fast_claims_pass_on_main(tmp_path):
    doc = _fast_doc(tmp_path)
    statuses = {c["id"]: c["status"] for c in doc["claims"]}
    assert statuses == {
        "fig02-producer-headroom": "PASS",
        "fig02-llm-exhaustion": "PASS",
        "tables-inventory": "PASS",
    }
    assert doc["summary"]["verdict"] == "PASS"


def test_reports_render_every_claim(tmp_path):
    doc = _fast_doc(tmp_path)
    text = evals.render_text(doc)
    md = evals.render_markdown(doc)
    for claim in doc["claims"]:
        assert claim["id"] in text and claim["id"] in md
    assert "verdict" in text.lower() and "Verdict" in md


def test_cli_replicate_list_and_run(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    assert main(["replicate", "--list"]) == 0
    out = capsys.readouterr().out
    assert "fig07-speedup" in out and "e2e-placement-coverage" in out

    monkeypatch.chdir(tmp_path)
    rc = main(
        ["replicate", "--only", "tables-inventory", "--jobs", "1", "--no-cache",
         "--report", "verdict.md"]
    )
    assert rc == 0
    assert (tmp_path / "REPLICATION.json").exists()
    assert (tmp_path / "verdict.md").exists()
    written = tmp_path / "REPLICATION.json"
    loaded = validate_replication(json.loads(written.read_text()))
    assert loaded["summary"]["verdict"] == "PASS"
