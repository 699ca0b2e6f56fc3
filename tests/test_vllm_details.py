"""Focused tests for VLLMEngine scheduling internals."""

import pytest

from repro.aqua import AquaLib, BatchInformer, Coordinator, LlmInformer
from repro.hardware import Server
from repro.hardware.specs import GiB
from repro.models import CODELLAMA_34B, MISTRAL_7B, SD_15, synthesize_adapters
from repro.serving import LoRACache, Request, VLLMEngine
from repro.sim import Environment
from repro.workloads.arrivals import submit_all


def make_vllm(model=MISTRAL_7B, **kwargs):
    env = Environment()
    server = Server(env, n_gpus=2)
    engine = VLLMEngine(server.gpus[0], server, model, **kwargs)
    engine.start()
    return env, server, engine


def test_ttft_includes_queue_and_prefill():
    env, server, engine = make_vllm()
    req = Request(arrival_time=0.0, prompt_tokens=1000, max_new_tokens=5)
    engine.submit(req)
    env.run(until=30)
    prefill = MISTRAL_7B.prefill_time(server.gpus[0].spec, 1000)
    assert req.ttft == pytest.approx(prefill, rel=0.2)


def test_completed_request_releases_kv():
    env, server, engine = make_vllm()
    req = Request(arrival_time=0.0, prompt_tokens=100, max_new_tokens=10)
    engine.submit(req)
    env.run(until=30)
    assert req.done
    assert engine.allocator.used_blocks == 0
    assert engine.kv.sequences == {}


def test_one_token_request_finishes_at_prefill():
    env, server, engine = make_vllm()
    req = Request(arrival_time=0.0, prompt_tokens=64, max_new_tokens=1)
    engine.submit(req)
    env.run(until=10)
    assert req.done
    assert req.ttft == req.rct
    assert req not in engine.running


def test_preempted_request_recomputes_and_finishes():
    env, server, engine = make_vllm(model=CODELLAMA_34B)
    hogs = [
        Request(arrival_time=0.0, prompt_tokens=2000, max_new_tokens=6000)
        for _ in range(8)
    ]
    submit_all(env, engine, hogs)
    env.run(until=2500)
    assert engine.preemptions > 0
    assert all(r.done for r in hogs)
    assert engine.allocator.used_blocks == 0


def test_max_batch_limits_concurrency():
    env, server, engine = make_vllm(max_batch=2)
    requests = [
        Request(arrival_time=0.0, prompt_tokens=100, max_new_tokens=50)
        for _ in range(6)
    ]
    submit_all(env, engine, requests)
    peak = [0]

    def watch(env):
        while True:
            peak[0] = max(peak[0], len(engine.running))
            yield env.timeout(0.05)

    env.process(watch(env))
    env.run(until=120)
    assert all(r.done for r in requests)
    assert peak[0] <= 2


def test_decode_order_is_fifo_completion_for_equal_lengths():
    env, server, engine = make_vllm()
    first = Request(arrival_time=0.0, prompt_tokens=100, max_new_tokens=20)
    second = Request(arrival_time=0.1, prompt_tokens=100, max_new_tokens=20)
    engine.submit(first)
    submit_all(env, engine, [second])
    env.run(until=60)
    assert first.finish_time <= second.finish_time


def test_engine_idles_cleanly_between_bursts():
    env, server, engine = make_vllm()
    a = Request(arrival_time=0.0, prompt_tokens=50, max_new_tokens=5)
    b = Request(arrival_time=20.0, prompt_tokens=50, max_new_tokens=5)
    submit_all(env, engine, [a, b])
    env.run(until=60)
    assert a.done and b.done
    assert b.ttft < 1.0  # the idle engine wakes promptly


def test_producer_keeps_retention_under_light_load():
    env, server, _ = make_vllm()  # occupies gpu0
    coord = Coordinator()
    lib = AquaLib(server.gpus[1], server, coord, informer=LlmInformer())
    producer = VLLMEngine(
        server.gpus[1], server, MISTRAL_7B, aqua_lib=lib, inform_every=1,
        name="producer",
    )
    producer.start()
    env.run(until=5)
    assert lib.donated_bytes > 0
    # The engine retains ~5 GiB of context memory after donating.
    assert producer.kv_capacity_bytes >= 4 * GiB
    # Light traffic is absorbed without reclaiming.
    reqs = [Request(arrival_time=5.0 + i, prompt_tokens=100, max_new_tokens=20) for i in range(5)]
    submit_all(env, producer, reqs)
    env.run(until=30)
    assert all(r.done for r in reqs)
    assert lib.donated_bytes > 0  # still donated


def test_lora_cache_shared_across_requests():
    env = Environment()
    server = Server(env, n_gpus=2)
    coord = Coordinator()
    consumer_lib = AquaLib(server.gpus[0], server, coord)
    producer_lib = AquaLib(server.gpus[1], server, coord, informer=BatchInformer())
    coord.pair(consumer_lib.name, producer_lib.name)
    producer_lib.complete_offer(20 * GiB)
    cache = LoRACache(
        server.gpus[0], server, capacity_bytes=2 * GiB, aqua_lib=consumer_lib
    )
    engine = VLLMEngine(server.gpus[0], server, MISTRAL_7B, lora_cache=cache)
    engine.start()
    (adapter,) = synthesize_adapters(1, 320 * 10**6)
    reqs = [
        Request(arrival_time=float(i), prompt_tokens=50, max_new_tokens=5, adapter=adapter)
        for i in range(4)
    ]
    submit_all(env, engine, reqs)
    env.run(until=60)
    assert all(r.done for r in reqs)
    assert cache.misses == 1  # loaded once, shared by all
    assert cache.hits == 3


def test_rejected_prompt_does_not_block_later_ones():
    env, server, engine = make_vllm(model=CODELLAMA_34B)
    huge = Request(arrival_time=0.0, prompt_tokens=200_000, max_new_tokens=5)
    ok = Request(arrival_time=0.0, prompt_tokens=100, max_new_tokens=5)
    engine.submit(huge)
    engine.submit(ok)
    env.run(until=30)
    assert huge in engine.rejected
    assert ok.done


def test_victim_preempted_earlier_in_the_step_is_not_picked_again():
    """One decode step, two preemptions: the second must choose among
    sequences still running, never the one the first already took."""
    env = Environment()
    server = Server(env, n_gpus=1)
    engine = VLLMEngine(server.gpus[0], server, MISTRAL_7B)
    engine.allocator.shrink_any(engine.allocator.n_blocks - 3)
    old = Request(arrival_time=0.0, prompt_tokens=16, max_new_tokens=50)
    mid = Request(arrival_time=1.0, prompt_tokens=16, max_new_tokens=50)
    young = Request(arrival_time=2.0, prompt_tokens=5, max_new_tokens=50)
    for request in (old, mid, young):
        engine.kv.admit(request.req_id, request.total_tokens)
        engine._join(request)
    assert engine.allocator.free_blocks == 0
    # ``old`` needs a block: ``young`` goes.  ``mid`` then needs one:
    # only ``old`` is left to preempt.  ``young`` is skipped.
    engine._decode_bookkeeping()
    assert engine.preemptions == 2
    assert engine.running == [mid]
    assert list(engine.waiting) == [old, young]
    # ``old`` got its token before ``mid`` preempted it.
    assert old.generated_tokens == mid.generated_tokens == 1
    assert young.generated_tokens == 0
    assert engine.metrics.tokens_generated == 2


def test_recompute_does_not_touch_dram():
    """A preempted sequence's KV is dropped and recomputed, never paged
    to host DRAM."""
    env, server, engine = make_vllm(model=CODELLAMA_34B)
    requests = [
        Request(arrival_time=0.0, prompt_tokens=2000, max_new_tokens=4000)
        for _ in range(10)
    ]
    submit_all(env, engine, requests)
    peak_dram = [0]

    def watch(env):
        while True:
            peak_dram[0] = max(peak_dram[0], server.dram.pool.used)
            yield env.timeout(0.5)

    env.process(watch(env))
    env.run(until=600)
    assert peak_dram[0] == 0
    assert engine.preemptions > 0
