"""Tests for LLMEngineBase machinery shared by all LLM engines."""

import pytest

from repro.aqua import AquaLib, Coordinator, EngineStats, LlmInformer
from repro.hardware import Server
from repro.hardware.specs import GiB
from repro.models import LLAMA2_13B, MISTRAL_7B
from repro.serving import Request, VLLMEngine
from repro.serving.engine import LLMEngineBase
from repro.sim import Environment


def test_base_serve_is_abstract():
    env = Environment()
    server = Server(env, n_gpus=1)
    engine = LLMEngineBase(server.gpus[0], server, MISTRAL_7B)
    with pytest.raises(NotImplementedError):
        next(engine._serve())


def test_utilization_validation():
    env = Environment()
    server = Server(env, n_gpus=1)
    with pytest.raises(ValueError):
        LLMEngineBase(server.gpus[0], server, MISTRAL_7B, utilization=1.5)


def test_memory_reservations_on_init():
    env = Environment()
    server = Server(env, n_gpus=1)
    gpu = server.gpus[0]
    engine = LLMEngineBase(gpu, server, LLAMA2_13B, name="e")
    assert gpu.hbm.held("e:weights") == LLAMA2_13B.weight_bytes
    assert gpu.hbm.held("e:workspace") > 0
    assert engine.kv_capacity_bytes > 10 * GiB
    # Budgeted: total usage stays within the utilization fraction.
    assert gpu.hbm.used <= 0.9 * gpu.spec.hbm_bytes + engine.allocator.block_bytes


def test_engine_stats_fields():
    env = Environment()
    server = Server(env, n_gpus=1)
    engine = VLLMEngine(server.gpus[0], server, MISTRAL_7B)
    engine.submit(Request(arrival_time=0.0, prompt_tokens=10, max_new_tokens=5))
    stats = engine.engine_stats()
    assert isinstance(stats, EngineStats)
    assert stats.pending_requests == 1
    assert stats.arrived_total == 1
    assert stats.kv_capacity_bytes == engine.kv_capacity_bytes
    assert stats.offerable_bytes == engine.kv_free_bytes


def test_producer_tick_shrinks_only_free_blocks():
    """A donation request larger than the free region shrinks to fit."""
    env = Environment()
    server = Server(env, n_gpus=2)
    coord = Coordinator()

    class GreedyInformer:
        def decide(self, stats, donated):
            from repro.aqua.informers import Decision

            if donated:
                return Decision.hold()
            return Decision.offer(10**15)  # absurd: more than exists

    lib = AquaLib(server.gpus[0], server, coord, informer=GreedyInformer())
    engine = VLLMEngine(
        server.gpus[0], server, LLAMA2_13B, aqua_lib=lib, inform_every=1
    )
    engine.start()
    env.run(until=2)
    assert 0 < lib.donated_bytes <= engine.kv_capacity_bytes + lib.donated_bytes
    assert engine.allocator.free_blocks >= 0


def test_producer_tick_grow_after_reclaim():
    env = Environment()
    server = Server(env, n_gpus=2)
    coord = Coordinator()
    lib = AquaLib(
        server.gpus[0], server, coord,
        informer=LlmInformer(queue_high=1, window=1, rate_low=0.4, rate_high=0.5),
    )
    engine = VLLMEngine(
        server.gpus[0], server, LLAMA2_13B, aqua_lib=lib, inform_every=1
    )
    engine.start()
    env.run(until=2)
    donated = lib.donated_bytes
    capacity_small = engine.kv_capacity_bytes
    assert donated > 0
    # Heavy traffic triggers reclaim; the engine's region grows back
    # (and re-shrinks once the burst drains — track the peak).
    for i in range(200):
        engine.submit(
            Request(arrival_time=env.now, prompt_tokens=300, max_new_tokens=150)
        )
    peak = [0]

    def watch(env):
        while True:
            peak[0] = max(peak[0], engine.kv_capacity_bytes)
            yield env.timeout(0.25)

    env.process(watch(env))
    env.run(until=60)
    assert peak[0] > capacity_small


def test_requests_are_identity_equal():
    """Two requests equal in every field are still two requests.

    Value equality made ``running.remove(b)`` take out the first
    *equal* request, which could be a different one.
    """
    env = Environment()
    server = Server(env, n_gpus=1)
    engine = VLLMEngine(server.gpus[0], server, MISTRAL_7B)
    a = Request(arrival_time=0.0, prompt_tokens=10, max_new_tokens=5, req_id=7)
    b = Request(arrival_time=0.0, prompt_tokens=10, max_new_tokens=5, req_id=7)
    engine.running.extend([a, b])
    engine.requeue(b)
    assert len(engine.running) == 1 and engine.running[0] is a
    assert len(engine.waiting) == 1 and engine.waiting[0] is b
    assert a != b
    assert len({a, b}) == 2


def test_wait_for_arrival_times_out():
    env = Environment()
    server = Server(env, n_gpus=1)
    engine = VLLMEngine(server.gpus[0], server, MISTRAL_7B)

    def waiter(env):
        yield from engine._wait_for_arrival(max_wait=0.5)
        return env.now

    p = env.process(waiter(env))
    env.run(until=p)
    assert p.value == pytest.approx(0.5)


def test_wait_for_arrival_returns_immediately_with_backlog():
    env = Environment()
    server = Server(env, n_gpus=1)
    engine = VLLMEngine(server.gpus[0], server, MISTRAL_7B)
    engine.waiting.append(Request(arrival_time=0.0, prompt_tokens=1, max_new_tokens=1))

    def waiter(env):
        yield from engine._wait_for_arrival(max_wait=10.0)
        yield env.timeout(0)  # ensure it is a generator even if empty
        return env.now

    p = env.process(waiter(env))
    env.run(until=p)
    assert p.value == 0.0


def test_requeue_releases_a_running_requests_kv():
    """Requeueing a request mid-decode gives back its KV sequence, so it
    re-prefills on re-admission instead of colliding with its old one."""
    env = Environment()
    server = Server(env, n_gpus=1)
    engine = VLLMEngine(server.gpus[0], server, MISTRAL_7B)
    request = Request(arrival_time=0.0, prompt_tokens=100, max_new_tokens=50)
    engine.submit(request)
    engine.start()
    env.run(until=0.2)
    assert request.generated_tokens == 19 and engine.allocator.used_blocks == 8
    engine.requeue(request)
    assert engine.allocator.used_blocks == 0 and not engine.running
    assert request.generated_tokens == 19  # progress is kept
    env.run(until=5.0)
    assert request.done and request.generated_tokens == 50
    assert engine.allocator.used_blocks == 0
