"""End-to-end tests of the unified telemetry layer.

These drive real rigs (the Figure 7 FlexGen/NVLink pair) and check the
three pillars together: causal flow tracing across subsystem tracks,
the labeled metrics registry, and latency attribution — plus the
headline guarantee that telemetry is observation-only (audit digests
are identical with it on or off).
"""

import json

import pytest

from repro.experiments.harness import build_consumer_rig
from repro.experiments.observe import observe_experiment
from repro.faults import DmaStall, FaultInjector, FaultSchedule
from repro.hardware import Server
from repro.models import LLAMA2_13B, MISTRAL_7B, OPT_30B
from repro.serving import VLLMEngine
from repro.sim import Environment
from repro.telemetry import Observation, Telemetry, observing, parse_prometheus_text
from repro.telemetry.timeseries import sample_key
from repro.workloads.arrivals import submit_all
from repro.workloads.longprompt import long_prompt_requests
from repro.workloads.sharegpt import sharegpt_requests


@pytest.fixture(scope="module")
def observe_result():
    """One shared telemetered run (the `aqua-repro observe` scenario)."""
    return observe_experiment(duration=25.0)


# ---------------------------------------------------------------------------
# Pillar 1: request-scoped causal tracing
# ---------------------------------------------------------------------------
def test_flow_chain_crosses_subsystem_tracks(observe_result):
    tm = observe_result["telemetry"]
    long_prompt = observe_result["consumer_requests"][0]
    chain = [f for f in tm.tracer.flows if f.flow_id == long_prompt.req_id]
    assert chain, "the long-prompt request left no flow events"

    tracks = {f.track for f in chain}
    assert any(t.startswith("link:") for t in tracks), tracks
    assert any(t.startswith("aqua:") for t in tracks), tracks
    assert any(not t.startswith(("link:", "aqua:")) for t in tracks), tracks

    # Exactly one start; a finish only once the request completed.
    phases = [f.phase for f in sorted(chain, key=lambda f: f.time)]
    assert phases[0] == "s"
    assert phases.count("s") == 1
    if long_prompt.done:
        assert phases[-1] == "f"


def test_critical_path_reconstructs_the_journey(observe_result):
    tm = observe_result["telemetry"]
    long_prompt = observe_result["consumer_requests"][0]
    path = tm.tracer.critical_path(long_prompt.req_id)
    assert len(path) >= 2, "critical path did not chain multiple spans"
    # The journey touches at least the engine and the DMA links.
    path_tracks = {span.track for span in path}
    assert any(t.startswith("link:") for t in path_tracks)
    # No immediate repeats, and causal order holds within each track
    # (concurrent DMA hops on different links may interleave globally).
    assert all(a is not b for a, b in zip(path, path[1:]))
    for track in path_tracks:
        starts = [span.start for span in path if span.track == track]
        assert starts == sorted(starts)


def test_trace_export_has_flow_events(observe_result, tmp_path):
    tm = observe_result["telemetry"]
    path = tmp_path / "trace.json"
    tm.tracer.export_json(str(path))
    events = json.loads(path.read_text())["traceEvents"]
    flows = [e for e in events if e.get("ph") in ("s", "t", "f")]
    assert len(flows) >= 1
    assert all(e["cat"] == "flow" and "id" in e for e in flows)
    # Finish events bind to the enclosing slice.
    assert all(e.get("bp") == "e" for e in flows if e["ph"] == "f")


# ---------------------------------------------------------------------------
# Pillar 2: the metrics registry, fully populated
# ---------------------------------------------------------------------------
def test_prometheus_export_covers_all_families(observe_result):
    samples = parse_prometheus_text(observe_result["prometheus"])
    # engine family
    assert samples["aqua_engine_tokens_generated_total"]
    assert samples["aqua_engine_requests_completed_total"]
    assert samples["aqua_engine_ttft_seconds_count"]
    # pool family (live callback gauges)
    assert samples["aqua_pool_used_bytes"]
    assert samples["aqua_pool_peak_bytes"]
    # link family
    assert samples["aqua_link_bytes_total"]
    assert samples["aqua_link_transfers_total"]
    # AQUA + fault families
    assert samples["aqua_offload_bytes_total"]
    assert samples["aqua_faults_total"]

    faults = {tuple(sorted(labels.items())) for labels, _ in samples["aqua_faults_total"]}
    assert (("kind", "dma-stall"), ("phase", "apply")) in faults


def test_metrics_agree_with_engine_counters(observe_result):
    samples = parse_prometheus_text(observe_result["prometheus"])
    consumer_tokens = sum(
        value
        for labels, value in samples["aqua_engine_tokens_generated_total"]
        if labels["engine"].startswith("flexgen")
    )
    assert consumer_tokens == observe_result["tokens_total"]


def test_pool_gauges_read_live_state(observe_result):
    tm = observe_result["telemetry"]
    used = {
        labels["device"]: value
        for labels, value in parse_prometheus_text(tm.prometheus_text())[
            "aqua_pool_used_bytes"
        ]
    }
    # The producer donated memory: some pool is non-empty right now.
    assert any(v > 0 for v in used.values())


# ---------------------------------------------------------------------------
# The token counter is read from engine metrics, not pushed per token
# ---------------------------------------------------------------------------
def test_scraped_token_counter_equals_engine_metrics_at_every_tick():
    rig = build_consumer_rig(
        "flexgen", OPT_30B, producer_model=LLAMA2_13B, use_aqua=True, scrape_interval=0.5
    )
    tm = rig.telemetry
    engines = (rig.consumer_engine, rig.producer_engine)
    ticks = []

    def check(now):
        text = tm.prometheus_text()
        for engine in engines:
            tokens = engine.metrics.tokens_generated
            labels = (("engine", engine.name),)
            key = sample_key("aqua_engine_tokens_generated_total", labels)
            if tokens == 0:
                # No sample before the engine's first token.
                assert key not in tm.scraper.series
                assert key not in text
            else:
                assert tm.scraper.series[key].last() == (now, float(tokens))
                assert f"{key} {float(tokens)!r}" in text
            ticks.append((engine.name, tokens))

    tm.scraper.observers.append(check)
    rig.start()
    submit_all(rig.env, rig.consumer_engine, long_prompt_requests(start=2.0, max_new_tokens=20))
    submit_all(rig.env, rig.producer_engine, sharegpt_requests(rate=2.0, count=10, start=4.0))
    rig.env.run(until=12.0)
    for engine in engines:  # ticks before and after the first token
        counts = [tokens for name, tokens in ticks if name == engine.name]
        assert counts[0] == 0 and counts[-1] > 0


def test_engines_sharing_a_name_on_one_hub_are_refused():
    env = Environment()
    server = Server(env, n_gpus=2)
    tm = Telemetry(env)
    VLLMEngine(server.gpus[0], server, MISTRAL_7B, name="twin", telemetry=tm)
    with pytest.raises(ValueError, match="'twin' is already attached"):
        VLLMEngine(server.gpus[1], server, MISTRAL_7B, name="twin", telemetry=tm)


# ---------------------------------------------------------------------------
# Pillar 3: latency attribution
# ---------------------------------------------------------------------------
def test_component_sums_equal_end_to_end_latency(observe_result):
    report = observe_result["report"]
    assert report["count"] >= 1
    for entry in report["requests"]:
        total = sum(entry["components"].values())
        assert total == pytest.approx(entry["rct"], abs=1e-9), entry
        assert sum(entry["ttft_components"].values()) == pytest.approx(
            entry["ttft"], abs=1e-9
        )


def test_long_prompt_request_fetches_through_aqua(observe_result):
    report = observe_result["report"]
    long_prompt = observe_result["consumer_requests"][0]
    entry = next(
        e for e in report["requests"] if e["req_id"] == long_prompt.req_id
    )
    # A FlexGen request streams its KV per token: offload time dominates
    # or at least registers.
    assert entry["components"]["offload_fetch"] > 0


# ---------------------------------------------------------------------------
# The observation-only guarantee
# ---------------------------------------------------------------------------
def _digest_of_run(telemetry: bool) -> tuple[str, int]:
    rig = build_consumer_rig(
        "flexgen",
        OPT_30B,
        producer_model=LLAMA2_13B,
        use_aqua=True,
        telemetry=telemetry,
        audit=True,
    )
    injector = FaultInjector(
        rig.server, coordinator=rig.coordinator, telemetry=rig.telemetry
    )
    injector.install(
        FaultSchedule([DmaStall(at=8.0, channel="nvlink:gpu1->gpu0", duration=2.0)])
    )
    rig.start()
    requests = long_prompt_requests(start=2.0, max_new_tokens=30)
    submit_all(rig.env, rig.consumer_engine, requests)
    rig.env.run(until=18.0)
    rig.auditor.check(checkpoint="final")
    report = rig.auditor.report().to_dict()
    assert report["ok"], report["violations"]
    return report["digest"], rig.consumer_engine.metrics.tokens_generated


def test_telemetry_is_observation_only():
    """Audit digests (and token counts) match with telemetry on vs off."""
    digest_off, tokens_off = _digest_of_run(telemetry=False)
    digest_on, tokens_on = _digest_of_run(telemetry=True)
    assert tokens_on == tokens_off
    assert digest_on == digest_off


# ---------------------------------------------------------------------------
# observing() (the uniform CLI --trace path)
# ---------------------------------------------------------------------------
def test_observing_adopts_tracerless_engines():
    with observing(Observation(trace=True), label="cell") as exports:
        rig = build_consumer_rig(
            "flexgen", OPT_30B, producer_model=LLAMA2_13B, use_aqua=True
        ).start()
        tracer = rig.telemetry.tracer
        for component in (rig.consumer_engine, rig.producer_engine,
                          rig.consumer_lib, rig.producer_lib):
            assert component.tracer is tracer
        submit_all(rig.env, rig.consumer_engine, long_prompt_requests(start=1.0))
        rig.env.run(until=8.0)
    assert len(tracer.spans) >= 1
    (export,) = exports
    assert export["name"] == "cell/flexgen-OPT-30B"
    assert any(e["ph"] == "X" for e in export["trace"])


def test_observing_exports_even_on_error():
    with pytest.raises(RuntimeError):
        with observing(Observation(trace=True)) as exports:
            rig = build_consumer_rig("vllm", LLAMA2_13B)
            rig.consumer_engine.tracer.add_span("work", "t", 0.0, 1.0)
            raise RuntimeError("boom")
    assert any(e["ph"] == "X" for e in exports[0]["trace"])


def test_cli_writes_trace_even_when_command_raises(tmp_path, monkeypatch):
    from repro import cli

    def failing(args):
        rig = build_consumer_rig("vllm", LLAMA2_13B)
        rig.consumer_engine.tracer.add_span("work", "t", 0.0, 1.0)
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.COMMANDS, "fig10", failing)
    path = tmp_path / "partial.json"
    with pytest.raises(RuntimeError):
        cli.main(["fig10", "--trace", str(path)])
    assert any(e["ph"] == "X" for e in json.loads(path.read_text())["traceEvents"])
