"""Focused tests for the FlexGen-style streaming engine."""

import pytest

from repro.aqua import AquaLib, BatchInformer, Coordinator
from repro.experiments.harness import build_consumer_rig
from repro.hardware import Server
from repro.models import OPT_30B, SD_15
from repro.serving import BatchEngine, FlexGenEngine, Request
from repro.sim import Environment
from repro.workloads.arrivals import submit_all


def make_flexgen(paired=False, **kwargs):
    env = Environment()
    server = Server(env, n_gpus=2)
    coord = Coordinator()
    lib = AquaLib(server.gpus[0], server, coord)
    engine = FlexGenEngine(
        server.gpus[0], server, OPT_30B, aqua_lib=lib, workspace_tokens=8000, **kwargs
    )
    if paired:
        producer_lib = AquaLib(server.gpus[1], server, coord, informer=BatchInformer())
        producer = BatchEngine(server.gpus[1], server, SD_15, aqua_lib=producer_lib)
        producer.start()
        coord.pair(lib.name, producer_lib.name)
    engine.start()
    return env, engine


def test_flexgen_prefill_before_first_token():
    env, engine = make_flexgen()
    req = Request(arrival_time=0.0, prompt_tokens=8000, max_new_tokens=5)
    engine.submit(req)
    env.run(until=120)
    assert req.done
    # TTFT includes a multi-second 8000-token prefill.
    assert req.ttft > 1.0


def test_flexgen_serves_requests_sequentially():
    env, engine = make_flexgen()
    a = Request(arrival_time=0.0, prompt_tokens=4000, max_new_tokens=3)
    b = Request(arrival_time=0.0, prompt_tokens=4000, max_new_tokens=3)
    engine.submit(a)
    engine.submit(b)
    env.run(until=600)
    assert a.done and b.done
    assert b.first_token_time > a.finish_time


def test_flexgen_horizon_truncates_unbounded_generation():
    env, engine = make_flexgen(alloc_horizon_tokens=32)
    req = Request(arrival_time=0.0, prompt_tokens=1000, max_new_tokens=10_000)
    engine.submit(req)
    env.run(until=600)
    assert req.generated_tokens <= 33  # horizon + the prefill token


def test_flexgen_context_tensor_freed_after_request():
    env, engine = make_flexgen()
    req = Request(arrival_time=0.0, prompt_tokens=2000, max_new_tokens=4)
    engine.submit(req)
    env.run(until=300)
    assert req.done
    assert engine.aqua_lib.tensors == {}
    assert engine.server.dram.pool.used == 0


def test_flexgen_token_time_grows_with_context():
    """Later tokens re-read a longer KV cache, so they take longer."""
    env, engine = make_flexgen()
    req = Request(arrival_time=0.0, prompt_tokens=8000, max_new_tokens=40)
    engine.submit(req)
    times = []

    def watcher(env):
        last = 0
        while not req.done:
            if req.generated_tokens > last:
                times.append((req.generated_tokens, env.now))
                last = req.generated_tokens
            yield env.timeout(0.05)

    env.process(watcher(env))
    env.run(until=600)
    assert req.done
    # Compare early vs late inter-token gaps.
    gaps = [t2 - t1 for (_, t1), (_, t2) in zip(times, times[1:])]
    assert sum(gaps[-5:]) >= sum(gaps[1:6])


def test_flexgen_migration_to_producer_mid_request():
    """A producer appearing mid-request upgrades the context via respond()."""
    env, engine = make_flexgen(paired=False)
    # Pair with a producer that only donates after the request started.
    coord = engine.aqua_lib.coordinator
    server = engine.server
    producer_lib = AquaLib(server.gpus[1], server, coord)
    coord.pair(engine.aqua_lib.name, producer_lib.name)

    req = Request(arrival_time=0.0, prompt_tokens=8000, max_new_tokens=400)
    engine.submit(req)
    env.run(until=20)
    slow_tokens = req.generated_tokens
    producer_lib.complete_offer(40 * 1024**3)  # donation appears now
    env.run(until=40)
    nvlink_tokens = req.generated_tokens - slow_tokens
    # The second window, on NVLink, generates far more tokens.
    assert nvlink_tokens > 2 * slow_tokens
    assert engine.aqua_lib.offloaded_fast_bytes > 0


@pytest.mark.parametrize("use_aqua", [False, True])
def test_flexgen_decode_kernel_sees_its_own_fetch(use_aqua):
    """The decode kernel reads its copy dilation after the step's fetch
    has started, not at the launch call.

    Without gather staging (the DRAM baseline) the fetch is on the wire
    when the kernel takes the GPU, so every decode kernel is dilated by
    ``copy_interference``.  AQUA's gather staging runs first, so its
    kernels see no copy and run at their roofline time.
    """
    rig = build_consumer_rig(
        "flexgen", OPT_30B, producer_model=SD_15 if use_aqua else None, use_aqua=use_aqua
    ).start()
    engine, gpu = rig.consumer_engine, rig.consumer_engine.gpu
    req = Request(arrival_time=0.0, prompt_tokens=2000, max_new_tokens=20)
    submit_all(rig.env, engine, [req])
    rig.env.run(until=300)
    assert req.done and req.generated_tokens == 20

    prefill = OPT_30B.prefill_time(gpu.spec, 2000)
    step = OPT_30B.decode_step_time(gpu.spec, 1, 0)
    dilation = 1.0 if use_aqua else 1.0 + gpu.spec.copy_interference
    # The prefill kernel emits the first token; each decode kernel one more.
    assert gpu.busy_time == pytest.approx(prefill + 19 * step * dilation, rel=1e-12)
