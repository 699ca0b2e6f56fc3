"""Tests for the Orca-style worst-case-reservation baseline."""

from repro.hardware import Server
from repro.models import CODELLAMA_34B, MISTRAL_7B
from repro.serving import OrcaEngine, Request, VLLMEngine
from repro.sim import Environment
from repro.workloads.arrivals import submit_all


def make_orca(model=MISTRAL_7B):
    env = Environment()
    server = Server(env, n_gpus=1)
    engine = OrcaEngine(server.gpus[0], server, model)
    engine.start()
    return env, server, engine


def test_orca_serves_requests():
    env, server, engine = make_orca()
    req = Request(arrival_time=0.0, prompt_tokens=100, max_new_tokens=50)
    engine.submit(req)
    env.run(until=60)
    assert req.done
    assert engine.allocator.used_blocks == 0


def test_orca_reserves_worst_case():
    env, server, engine = make_orca()
    req = Request(arrival_time=0.0, prompt_tokens=100, max_new_tokens=900)
    engine.submit(req)
    env.run(until=0.1)
    # Blocks for the full 1000 tokens were taken at admission.
    expected = engine.kv.blocks_for(1000)
    assert engine.allocator.used_blocks == expected


def test_orca_never_preempts():
    env, server, engine = make_orca(model=CODELLAMA_34B)
    requests = [
        Request(arrival_time=0.0, prompt_tokens=2000, max_new_tokens=4000)
        for _ in range(10)
    ]
    submit_all(env, engine, requests)
    env.run(until=2500)
    assert engine.preemptions == 0
    assert all(r.done for r in requests)


def test_orca_admits_fewer_concurrent_than_vllm():
    """Worst-case reservation throttles concurrency: the memory story
    behind paged attention (and why AQUA builds on vLLM)."""

    def peak_concurrency(cls):
        env = Environment()
        server = Server(env, n_gpus=1)
        engine = cls(server.gpus[0], server, CODELLAMA_34B)
        engine.start()
        requests = [
            Request(arrival_time=0.0, prompt_tokens=500, max_new_tokens=3000)
            for _ in range(40)
        ]
        submit_all(env, engine, requests)
        peak = [0]

        def watch(env):
            while True:
                peak[0] = max(peak[0], len(engine.running))
                yield env.timeout(0.25)

        env.process(watch(env))
        env.run(until=120)
        return peak[0]

    orca = peak_concurrency(OrcaEngine)
    vllm = peak_concurrency(VLLMEngine)
    assert vllm > 1.5 * orca


def test_orca_worse_ttft_under_burst():
    def ttft_p95(cls):
        from repro.serving.metrics import percentile

        env = Environment()
        server = Server(env, n_gpus=1)
        engine = cls(server.gpus[0], server, CODELLAMA_34B)
        engine.start()
        requests = [
            Request(arrival_time=0.2 * i, prompt_tokens=700, max_new_tokens=2000)
            for i in range(30)
        ]
        submit_all(env, engine, requests)
        env.run(until=900)
        ttfts = [r.ttft for r in requests if r.ttft is not None]
        return percentile(ttfts, 95)

    assert ttft_p95(OrcaEngine) > ttft_p95(VLLMEngine)
