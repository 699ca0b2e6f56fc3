"""Tests for the experiment harness, report rendering and figure shapes.

These assert the *qualitative* claims of each paper figure on scaled-
down runs; the full-scale regenerations are the experiment cells that
``aqua-repro replicate`` scores (``repro.evals``).
"""

import math
from types import SimpleNamespace

import pytest

from repro.experiments import ablations as A
from repro.experiments import build_consumer_rig, drain, format_table
from repro.experiments import figures as F
from repro.experiments.harness import Seat, build_rig
from repro.experiments.report import summarize_requests
from repro.hardware import Server
from repro.models import CODELLAMA_34B, MISTRAL_7B, OPT_30B, SD_15, SD_XL
from repro.serving import DeepSpeedEngine, Request, UVMEngine
from repro.sim import Environment
from repro.workloads import long_prompt_requests
from repro.workloads.arrivals import submit_all


# ---------------------------------------------------------------------------
# report.py
# ---------------------------------------------------------------------------
def test_format_table_alignment():
    out = format_table(["a", "bb"], [[1, 2.5], ["xyz", 0.001]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert len(lines) == 5


def test_format_table_row_width_mismatch():
    with pytest.raises(ValueError):
        format_table(["a", "b"], [[1]])


def test_summarize_requests():
    reqs = []
    for i in range(4):
        r = Request(arrival_time=0.0, prompt_tokens=10, max_new_tokens=5)
        r.first_token_time = 1.0 + i
        r.finish_time = 2.0 + i
        r.generated_tokens = 5
        reqs.append(r)
    s = summarize_requests(reqs, "x")
    assert s["completed"] == 4
    assert s["ttft_mean"] == 2.5
    assert s["rct_max"] == 5.0


def test_summarize_unfinished_requests():
    r = Request(arrival_time=0.0, prompt_tokens=10, max_new_tokens=5)
    s = summarize_requests([r], "x")
    assert s["completed"] == 0
    assert "ttft_mean" not in s


# ---------------------------------------------------------------------------
# harness.py
# ---------------------------------------------------------------------------
def test_build_rig_vllm_baseline():
    rig = build_consumer_rig("vllm", MISTRAL_7B, use_aqua=False)
    assert rig.producer_engine is None
    assert rig.consumer_lib is None
    rig.start()


def test_build_rig_with_producer_pairs_consumer():
    rig = build_consumer_rig("cfs", CODELLAMA_34B, producer_model=SD_15)
    pairing = rig.coordinator.pairings
    assert pairing[rig.consumer_lib.name] == rig.producer_lib.name


def test_build_rig_by_model_name():
    rig = build_consumer_rig("vllm", "Mistral-7B", producer_model="StableDiffusion-1.5")
    assert rig.consumer_engine.model is MISTRAL_7B


def test_build_rig_unknown_kind():
    with pytest.raises(ValueError):
        build_consumer_rig("orca", MISTRAL_7B)


def test_flexgen_rig_has_lib_even_without_aqua():
    rig = build_consumer_rig("flexgen", OPT_30B, use_aqua=False)
    assert rig.consumer_lib is not None  # DRAM fallback path


@pytest.mark.parametrize("kind, cls", [("uvm", UVMEngine), ("deepspeed", DeepSpeedEngine)])
def test_flexgen_baseline_kinds_build(kind, cls):
    rig = build_consumer_rig(kind, OPT_30B, producer_model=SD_15).start()
    assert type(rig.consumer_engine) is cls
    assert rig.consumer_engine.aqua_lib is rig.consumer_lib


def test_two_consumers_paired_with_one_producer():
    """Explicit pairs put both consumers on one producer, next to an
    unpaired one: the shared-producer ablation's value."""
    consumers = [Seat(f"flexgen-{i}", "flexgen", OPT_30B, gpu=i) for i in range(2)]
    producers = [
        Seat("sd", "producer", SD_15, gpu=2), Seat("sdxl", "producer", SD_XL, gpu=3)
    ]
    server = Server(Environment(), n_gpus=4, topology="nvswitch")
    rig = build_rig(
        [*producers, *consumers], [(c.name, "sd") for c in consumers], server=server
    ).start()
    gpus = [gpu.name for gpu in server.gpus]
    assert rig.coordinator.pairings == {gpus[0]: gpus[2], gpus[1]: gpus[2]}
    rig.warm_up(1.0)
    for c in consumers:
        submit_all(rig.env, rig.engines[c.name], long_prompt_requests(start=1.0))
    rig.env.run(until=61.0)
    tokens = [rig.engines[c.name].metrics.tokens_generated for c in consumers]
    assert tokens == A.shared_producer()["shared"] == [663, 663]


def test_producer_only_rig_has_no_consumer():
    rig = build_rig([Seat("sd", "producer", SD_15, gpu=1)]).start()
    assert rig.consumer_engine is None and rig.producer_engine is rig.engines["sd"]
    assert rig.producer_lib.informer is not None


def test_a_consumer_needs_an_llm():
    with pytest.raises(ValueError, match="cannot run"):
        build_rig([Seat("sd", "cfs", SD_15, gpu=0)])


def test_offload_baselines_match_fig07():
    """The offload baselines and Figure 7 measure one FlexGen: over DRAM
    with AQUA's gather kernel off, and paired with an SD producer."""
    tokens = A.offload_baselines()
    assert tokens["flexgen/pcie"] == F._fig07_cell(None, 60.0)["tokens"] == 126
    assert tokens["aqua"] == F._fig07_cell("StableDiffusion-1.5", 60.0)["tokens"] == 921


def test_drain_returns_when_done():
    rig = build_consumer_rig("vllm", MISTRAL_7B, use_aqua=False).start()
    req = Request(arrival_time=0.0, prompt_tokens=50, max_new_tokens=20)
    submit_all(rig.env, rig.consumer_engine, [req])
    finished = drain(rig.env, [req], timeout=60)
    assert req.done
    assert finished < 60


def test_rig_warm_up_advances_clock():
    rig = build_consumer_rig("flexgen", OPT_30B, producer_model=SD_15).start()
    rig.warm_up(2.0)
    assert rig.env.now == 2.0
    assert rig.producer_lib.donated_bytes > 0


# ---------------------------------------------------------------------------
# Figure shapes (scaled down)
# ---------------------------------------------------------------------------
def test_fig01_shape():
    """CFS improves TTFT; AQUA keeps RCT near vLLM (Figure 1)."""
    result = F.fig01_motivation(rate=2.0, count=40)
    vllm = result["vllm"]["summary"]
    cfs = result["cfs-dram"]["summary"]
    aqua = result["aqua"]["summary"]
    assert cfs["ttft_p95"] < vllm["ttft_p95"] / 2
    assert aqua["ttft_p95"] < vllm["ttft_p95"] / 2
    assert cfs["rct_mean"] > vllm["rct_mean"]
    assert aqua["rct_mean"] < cfs["rct_mean"]


def test_fig02_shape():
    """Audio/vision plateau with free memory; the LLM exhausts it."""
    result = F.fig02_contention()
    for name in ("AudioGen", "StableDiffusion-1.5"):
        rows = result[name]
        assert rows[-1]["free_gib"] > 20
        mid = len(rows) // 2
        assert rows[-1]["throughput"] < 1.2 * rows[mid]["throughput"]
    llm = result["Llama-2-13B"]
    assert llm[-1]["free_gib"] < 10
    assert llm[-1]["free_gib"] < llm[0]["free_gib"]


def test_fig03a_shape():
    rows = F.fig03a_interconnect_bandwidth()["rows"]
    small, large = rows[0], rows[-1]
    assert small["nvlink_gbps"] < 2  # tiny buffers waste NVLink
    assert large["nvlink_gbps"] > 200
    assert large["nvlink_gbps"] / large["pcie_gbps"] > 5


def test_fig03b_shape():
    result = F.fig03b_sharing_impact(duration=120.0)
    assert result["impact_fraction"] < 0.08  # "<5%" in the paper


def test_fig07_shape():
    result = F.fig07_longprompt(duration=30.0)
    assert result["aqua+sd"]["speedup"] > 3
    assert result["aqua+llama"]["speedup"] > 3


def _pool_returns(monkeypatch, values):
    """Make the figures' pool runs return ``values``, in spec order."""
    runs = [SimpleNamespace(value=value) for value in values]
    monkeypatch.setattr(F, "run_specs", lambda specs, jobs=None: runs)


def test_fig07_without_its_flexgen_row_raises(monkeypatch):
    # A missing baseline row is a broken cell, not a column of NaN speedups.
    _pool_returns(monkeypatch, [{"tokens": 921}])
    with pytest.raises(KeyError, match="flexgen-dram"):
        F.fig07_longprompt(producers={"aqua+sd": None})


def test_fig07_zero_baseline_fails_the_ordering_claim(monkeypatch):
    from repro.evals import get_claims

    _pool_returns(monkeypatch, [{"tokens": 0}, {"tokens": 921}])
    out = F.fig07_longprompt(producers={"flexgen-dram": None, "aqua+sd": None})
    assert math.isnan(out["aqua+sd"]["speedup"])
    (claim,) = [c for c in get_claims() if c.id == "fig07-ordering"]
    scored = claim.check({"fig07": out}, claim.tolerance)
    assert scored.status == "FAIL" and "flexgen-dram tokens" in scored.detail


def test_fig12_without_an_rct_mean_raises(monkeypatch):
    # A system that completed no request has no mean RCT to save.
    _pool_returns(monkeypatch, [{"summary": {"rct_mean": 6.5}}, {"summary": {}}])
    with pytest.raises(KeyError, match="rct_mean"):
        F.fig12_tensor_size(adapter_sizes_mb=(160,))


def test_fig08_shape():
    result = F.fig08_lora(count=60, rate=8.0)
    base = result["baseline"]["summary"]["rct_mean"]
    aqua = result["aqua-0"]["summary"]["rct_mean"]
    assert base / aqua > 1.3  # paper: up to 1.8x


def test_fig09_shape():
    result = F.fig09_cfs(rates=(2.0,), count=40)
    systems = result[2.0]
    assert (
        systems["aqua"]["summary"]["ttft_p95"]
        < systems["vllm"]["summary"]["ttft_p95"] / 2
    )


def test_fig10_shape():
    result = F.fig10_elastic(phase1_start=10, phase2_start=40, end=100)
    free = [v for _, v in result["free_memory_gib"]]
    # Memory was donated (low) and reclaimed (high) at some point.
    assert max(free) > 2 * min(free)
    assert result["consumer_tokens_total"] > 100


def test_fig11_shape():
    result = F.fig11_producer_overhead(end=80.0, phase2_start=30.0)
    base, aqua = result["baseline"], result["aqua"]
    assert len(base) > 0 and len(aqua) > 0
    # Donation overhead is small: medians within 25%.
    mid_b = base[len(base) // 2]
    mid_a = aqua[len(aqua) // 2]
    assert mid_a < 1.25 * mid_b


def test_fig12_shape():
    result = F.fig12_tensor_size(count=60)
    assert result["320MB"]["rct_mean_saved"] > result["160MB"]["rct_mean_saved"] > 0


def test_fig13_shape():
    result = F.fig13_chatbot(n_users=20, turns=3)
    vllm = result["vllm"]["summary"]
    aqua = result["aqua"]["summary"]
    assert aqua["ttft_mean"] < vllm["ttft_mean"] / 2
    assert result["aqua"]["turns_completed"] == 60
    times = [finish for finish, _ in result["aqua"]["rct_by_completion"]]
    assert times == sorted(times)


def test_fig14_shape():
    result = F.fig14_placer_convergence(gpu_counts=(16, 32))
    rows = result["rows"]
    assert rows[0]["gpus"] == 16
    for row in rows:
        # Mixed-modality search is the harder instance (paper §A.1).
        assert row["mixed_seconds"] > row["llm5050_seconds"]
        assert row["llm5050_pairs"] == row["gpus"] // 2


def test_fig18_shape():
    result = F.fig18_nvswitch_stress(duration=20.0)
    tokens = result["per_consumer_tokens"]
    assert len(tokens) == 4
    # All four consumers sustain the 2-GPU pair's throughput.
    ref = result["two_gpu_reference_tokens"]
    for t in tokens:
        assert t > 0.8 * ref


def test_tables_inventory():
    assert len(F.table1_deficit_jobs()) == 3
    assert len(F.table2_excess_llm_jobs()) == 2
    assert len(F.table3_producer_jobs()) == 2


def test_sweep_single_point():
    from repro.experiments.sweep import sweep_request_rate, sweep_rows

    points = sweep_request_rate(rates=(2.0,), count=15)
    assert len(points) == 1
    point = points[0]
    assert point.rate == 2.0
    assert set(point.summaries) == {"vllm", "cfs-dram", "aqua"}
    assert point.metric("vllm", "ttft_p95") > 0
    assert point.metric("aqua", "ttft_p95") > 0
    rows = sweep_rows(points)
    assert len(rows) == 1 and rows[0][0] == 2.0


def test_sweep_point_metric_nan_for_missing_system_and_key():
    """Unknown system label and unknown metric key behave the same: NaN.

    Regression test — ``metric()`` used to raise ``KeyError`` for a
    missing system but return NaN for a missing key.
    """
    import math

    from repro.experiments.sweep import SweepPoint

    point = SweepPoint(rate=1.0, summaries={"aqua": {"p50_latency_s": 0.5}})
    assert point.metric("aqua", "p50_latency_s") == 0.5
    assert math.isnan(point.metric("aqua", "no_such_key"))
    assert math.isnan(point.metric("no_such_system", "p50_latency_s"))


def test_e2e_cluster_placement_matches_all_consumers():
    result = F.e2e_cluster_placement()
    assert result["balanced"]["unmatched"] == []
    assert result["llm_heavy"]["unmatched"] == []
    assert len(result["llm_heavy"]["pairs"]) == 8
