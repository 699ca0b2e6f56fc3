"""Integration tests for the serving engines on simulated hardware."""

import pytest

from repro.aqua import AquaLib, BatchInformer, Coordinator, LlmInformer
from repro.hardware import Server
from repro.hardware.specs import GiB
from repro.models import CODELLAMA_34B, KANDINSKY, LLAMA2_13B, MISTRAL_7B, OPT_30B, SD_15
from repro.serving import BatchEngine, CFSEngine, FlexGenEngine, Request, VLLMEngine
from repro.workloads import long_prompt_requests, producer_requests, sharegpt_requests
from repro.workloads.arrivals import submit_all


def make_server(n_gpus=2):
    from repro.sim import Environment

    env = Environment()
    return env, Server(env, n_gpus=n_gpus, topology="p2p")


# ---------------------------------------------------------------------------
# VLLMEngine
# ---------------------------------------------------------------------------
def test_vllm_serves_single_request():
    env, server = make_server()
    engine = VLLMEngine(server.gpus[0], server, MISTRAL_7B)
    engine.start()
    req = Request(arrival_time=0.0, prompt_tokens=100, max_new_tokens=50)
    engine.submit(req)
    env.run(until=60)
    assert req.done
    assert req.ttft is not None and req.ttft > 0
    assert req.rct is not None and req.rct > req.ttft
    assert engine.metrics.tokens_generated == 50


def test_vllm_continuous_batching_overlaps_requests():
    env, server = make_server()
    engine = VLLMEngine(server.gpus[0], server, MISTRAL_7B)
    engine.start()
    requests = sharegpt_requests(rate=5, count=20, seed=0)
    submit_all(env, engine, requests)
    env.run(until=300)
    assert all(r.done for r in requests)
    # Batched serving must beat sequential: the run finishes far sooner
    # than the sum of individual completion times.
    last_finish = max(r.finish_time for r in requests)
    assert last_finish <= sum(r.rct for r in requests)


def test_vllm_respects_fifo_admission():
    env, server = make_server()
    engine = VLLMEngine(server.gpus[0], server, MISTRAL_7B, max_batch=1)
    engine.start()
    first = Request(arrival_time=0.0, prompt_tokens=50, max_new_tokens=100)
    second = Request(arrival_time=0.0, prompt_tokens=50, max_new_tokens=10)
    engine.submit(first)
    engine.submit(second)
    env.run(until=120)
    assert first.first_token_time < second.first_token_time


def test_vllm_starves_queued_requests_under_memory_pressure():
    """The Figure 1a/9 behaviour: once KV memory is full, later requests
    wait with zero progress, so their TTFT explodes."""
    env, server = make_server()
    engine = VLLMEngine(server.gpus[0], server, CODELLAMA_34B)
    engine.start()
    requests = [
        Request(arrival_time=i * 0.2, prompt_tokens=1500, max_new_tokens=400)
        for i in range(60)
    ]
    submit_all(env, engine, requests)
    env.run(until=400)
    import statistics

    done = [r for r in requests if r.ttft is not None]
    early = [r.ttft for r in done[:10]]
    late = [r.ttft for r in done[-10:]]
    assert max(early) < min(late)
    assert statistics.median(late) > 10 * statistics.median(early)


def test_vllm_preemption_on_kv_exhaustion():
    env, server = make_server()
    engine = VLLMEngine(server.gpus[0], server, CODELLAMA_34B)
    engine.start()
    # Few requests, each growing large: forces mid-generation OOM.
    requests = [
        Request(arrival_time=0.0, prompt_tokens=2000, max_new_tokens=4000)
        for _ in range(10)
    ]
    submit_all(env, engine, requests)
    env.run(until=1200)
    assert engine.preemptions > 0
    assert all(r.done for r in requests)


def test_vllm_rejects_oversized_prompt():
    env, server = make_server()
    engine = VLLMEngine(server.gpus[0], server, OPT_30B, workspace_tokens=8000)
    engine.start()
    engine.submit(Request(arrival_time=0.0, prompt_tokens=8000, max_new_tokens=10))
    env.run(until=10)
    assert len(engine.rejected) == 1


def test_vllm_invalid_params():
    env, server = make_server()
    with pytest.raises(ValueError):
        VLLMEngine(server.gpus[0], server, MISTRAL_7B, max_batch=0)
    with pytest.raises(ValueError):
        VLLMEngine(server.gpus[1], server, MISTRAL_7B, utilization=0.0)


def test_vllm_double_start_rejected():
    env, server = make_server()
    engine = VLLMEngine(server.gpus[0], server, MISTRAL_7B)
    engine.start()
    with pytest.raises(RuntimeError):
        engine.start()


def test_vllm_as_producer_donates_when_idle():
    env, server = make_server()
    coord = Coordinator()
    lib = AquaLib(server.gpus[0], server, coord, informer=LlmInformer())
    engine = VLLMEngine(
        server.gpus[0], server, LLAMA2_13B, aqua_lib=lib, inform_every=1
    )
    engine.start()
    env.run(until=5)
    assert lib.donated_bytes > 5 * GiB
    assert coord.leases[lib.name].offered == lib.donated_bytes


def test_vllm_producer_reclaims_under_load():
    env, server = make_server()
    coord = Coordinator()
    lib = AquaLib(
        server.gpus[0], server, coord, informer=LlmInformer(queue_high=4, window=1)
    )
    engine = VLLMEngine(
        server.gpus[0], server, LLAMA2_13B, aqua_lib=lib, inform_every=1
    )
    engine.start()
    env.run(until=5)
    donated = lib.donated_bytes
    assert donated > 0
    requests = sharegpt_requests(rate=10, count=150, seed=1, start=5.0)
    submit_all(env, engine, requests)
    low_water = [donated]

    def monitor(env):
        while True:
            yield env.timeout(0.5)
            low_water[0] = min(low_water[0], lib.donated_bytes)

    env.process(monitor(env))
    env.run(until=120)
    # Mid-burst the queue built up and the donation was pulled back...
    assert low_water[0] < donated / 2
    # ...then re-donated once the burst drained (elastic, Figure 10).
    assert lib.donated_bytes > donated / 2
    assert all(r.done for r in requests)


# ---------------------------------------------------------------------------
# CFSEngine
# ---------------------------------------------------------------------------
def burst(n, prompt=1200, gen=300):
    return [
        Request(arrival_time=i * 0.2, prompt_tokens=prompt, max_new_tokens=gen)
        for i in range(n)
    ]


def run_cfs(use_aqua, n_requests=40, until=600.0):
    env, server = make_server()
    coord = Coordinator()
    consumer_lib = AquaLib(server.gpus[0], server, coord)
    producer_lib = AquaLib(server.gpus[1], server, coord, informer=BatchInformer())
    producer = BatchEngine(server.gpus[1], server, KANDINSKY, aqua_lib=producer_lib)
    producer.start()
    coord.pair(consumer_lib.name, producer_lib.name)
    engine = CFSEngine(
        server.gpus[0],
        server,
        CODELLAMA_34B,
        use_aqua=use_aqua,
        aqua_lib=consumer_lib if use_aqua else None,
        slice_tokens=5,
    )
    engine.start()
    requests = burst(n_requests)
    submit_all(env, engine, requests)
    env.run(until=until)
    return engine, requests


def test_cfs_completes_burst():
    engine, requests = run_cfs(use_aqua=True)
    assert all(r.done for r in requests)
    assert engine.slices_run > 0


def test_cfs_fairness_prevents_ttft_explosion():
    """CFS gives every arrival a slice quickly: TTFT stays flat where the
    vLLM batcher starves (Figure 9)."""
    engine, requests = run_cfs(use_aqua=True)
    ttfts = [r.ttft for r in requests]
    assert max(ttfts) < 30  # no starvation cliff


def test_cfs_aqua_switches_faster_than_dram():
    fast, _ = run_cfs(use_aqua=True)
    slow, _ = run_cfs(use_aqua=False)
    assert fast.context_switch_time < slow.context_switch_time / 2


def test_cfs_uses_fast_path_when_producer_available():
    engine, _ = run_cfs(use_aqua=True, n_requests=30)
    # Context tensors were parked on the producer GPU at least sometimes.
    stats = engine.aqua_lib.coordinator.request("GET", "/stats").body
    assert engine.context_switch_time > 0


def test_cfs_validation():
    env, server = make_server()
    with pytest.raises(ValueError):
        CFSEngine(server.gpus[0], server, MISTRAL_7B, slice_tokens=0)
    with pytest.raises(ValueError):
        CFSEngine(server.gpus[1], server, MISTRAL_7B, use_aqua=True)


# ---------------------------------------------------------------------------
# FlexGenEngine
# ---------------------------------------------------------------------------
def run_flexgen(paired, duration=60.0, gather=True):
    env, server = make_server()
    coord = Coordinator()
    consumer_lib = AquaLib(server.gpus[0], server, coord, gather_enabled=gather)
    engine = FlexGenEngine(
        server.gpus[0],
        server,
        OPT_30B,
        aqua_lib=consumer_lib,
        workspace_tokens=8000,
    )
    if paired:
        producer_lib = AquaLib(server.gpus[1], server, coord, informer=BatchInformer())
        producer = BatchEngine(server.gpus[1], server, SD_15, aqua_lib=producer_lib)
        producer.start()
        coord.pair(consumer_lib.name, producer_lib.name)
    engine.start()
    submit_all(env, engine, long_prompt_requests())
    env.run(until=duration)
    return engine


def test_flexgen_baseline_generates_some_tokens():
    engine = run_flexgen(paired=False)
    assert engine.metrics.tokens_generated > 10


def test_flexgen_aqua_speedup_over_dram():
    """Figure 7: NVLink-offloaded context beats DRAM by several x."""
    baseline = run_flexgen(paired=False)
    aqua = run_flexgen(paired=True)
    speedup = aqua.metrics.tokens_generated / baseline.metrics.tokens_generated
    assert speedup > 3


def test_flexgen_requires_aqua_lib():
    env, server = make_server()
    with pytest.raises(ValueError):
        FlexGenEngine(server.gpus[0], server, OPT_30B)


# ---------------------------------------------------------------------------
# BatchEngine
# ---------------------------------------------------------------------------
def test_batch_engine_completes_requests():
    env, server = make_server()
    engine = BatchEngine(server.gpus[0], server, SD_15)
    engine.start()
    requests = producer_requests(rate=2.0, count=10, seed=0)
    submit_all(env, engine, requests)
    env.run(until=120)
    assert all(r.done for r in requests)
    assert engine.batches_run >= 1


def test_batch_engine_batches_up_work():
    env, server = make_server()
    engine = BatchEngine(server.gpus[0], server, SD_15, batch_size=8)
    engine.start()
    for _ in range(8):
        engine.submit(Request(arrival_time=0.0, prompt_tokens=1, max_new_tokens=1))
    env.run(until=60)
    assert engine.batches_run == 1


def test_batch_engine_donates_free_memory():
    env, server = make_server()
    coord = Coordinator()
    lib = AquaLib(server.gpus[0], server, coord, informer=BatchInformer())
    engine = BatchEngine(server.gpus[0], server, SD_15, aqua_lib=lib)
    engine.start()
    env.run(until=2)
    assert lib.donated_bytes > 20 * GiB


def test_batch_engine_invalid_batch():
    env, server = make_server()
    with pytest.raises(ValueError):
        BatchEngine(server.gpus[0], server, SD_15, batch_size=0)


def test_engine_without_kv_budget_raises():
    """A model whose weights and workspace exceed the engine's HBM
    budget has no KV cache to serve from: construction raises instead
    of building an engine with zero blocks."""
    from repro.sim import Environment

    server = Server(Environment(), n_gpus=1)
    with pytest.raises(ValueError, match="no KV budget"):
        VLLMEngine(server.gpus[0], server, MISTRAL_7B, utilization=0.1)
