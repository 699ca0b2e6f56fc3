"""Tests for chat context caching in offloaded memory."""

import pytest

from repro.experiments.harness import build_consumer_rig
from repro.hardware.specs import GiB
from repro.models import CODELLAMA_34B, KANDINSKY
from repro.serving import ChatContextCache, Request
from repro.workloads import ChatbotWorkload


def make_rig(with_cache=True, cache_bytes=20 * GiB):
    rig = build_consumer_rig(
        "cfs", CODELLAMA_34B, producer_model=KANDINSKY, consumer_kwargs={"slice_tokens": 5}
    )
    cache = (
        ChatContextCache(rig.consumer_lib, CODELLAMA_34B, max_bytes=cache_bytes)
        if with_cache
        else None
    )
    rig.consumer_engine.context_cache = cache
    rig.start().warm_up(1.0)
    return rig.env, rig.consumer_engine, cache


def run_process(env, gen):
    proc = env.process(gen)
    env.run(until=proc)
    return proc.value


# ---------------------------------------------------------------------------
# ChatContextCache unit behaviour
# ---------------------------------------------------------------------------
def test_cache_validation():
    env, engine, cache = make_rig()
    with pytest.raises(ValueError):
        ChatContextCache(engine.aqua_lib, CODELLAMA_34B, max_bytes=0)


def test_save_restore_roundtrip():
    env, engine, cache = make_rig()
    run_process(env, cache.save(user=7, tokens=1000))
    assert len(cache) == 1
    assert cache.cached_tokens(7, prompt_tokens=1500) == 1000
    restored = run_process(env, cache.restore(7))
    assert restored == 1000
    assert len(cache) == 0
    assert cache.hits == 1
    assert cache.tokens_restored == 1000


def test_cached_prefix_must_fit_prompt():
    env, engine, cache = make_rig()
    run_process(env, cache.save(user=7, tokens=2000))
    # A shorter prompt cannot reuse a longer context.
    assert cache.cached_tokens(7, prompt_tokens=1500) == 0
    assert cache.cached_tokens(None, prompt_tokens=9999) == 0


def test_restore_unknown_user_is_miss():
    env, engine, cache = make_rig()
    assert run_process(env, cache.restore(99)) == 0
    assert cache.misses == 1


def test_new_turn_supersedes_old_entry():
    env, engine, cache = make_rig()
    run_process(env, cache.save(user=7, tokens=500))
    run_process(env, cache.save(user=7, tokens=900))
    assert len(cache) == 1
    assert cache.cached_tokens(7, 1000) == 900


def test_lru_eviction_under_budget():
    kv_per_1000 = CODELLAMA_34B.kv_bytes(1000)
    env, engine, cache = make_rig(cache_bytes=int(2.5 * kv_per_1000))
    for user in (1, 2, 3):
        run_process(env, cache.save(user=user, tokens=1000))
    assert len(cache) == 2
    assert cache.cached_tokens(1, 2000) == 0  # evicted (LRU)
    assert cache.evictions == 1


def test_oversized_conversation_not_cached():
    env, engine, cache = make_rig(cache_bytes=CODELLAMA_34B.kv_bytes(100))
    run_process(env, cache.save(user=1, tokens=10_000))
    assert len(cache) == 0


def test_clear_frees_tensors():
    env, engine, cache = make_rig()
    run_process(env, cache.save(user=1, tokens=500))
    lib = cache.aqua_lib
    assert lib.tensors
    cache.clear()
    assert not lib.tensors


# ---------------------------------------------------------------------------
# End-to-end: multi-turn chat with and without the cache
# ---------------------------------------------------------------------------
def run_chat(with_cache: bool):
    env, engine, cache = make_rig(with_cache=with_cache)
    workload = ChatbotWorkload(n_users=10, turns=3, seed=0)
    users = workload.attach(env, engine)
    while not all(u.processed for u in users):
        env.run(until=env.now + 5.0)
    return env.now, engine, cache


def test_chat_with_cache_finishes_and_hits():
    finish, engine, cache = run_chat(with_cache=True)
    assert len(engine.metrics.completed) == 30
    # Turns 2 and 3 of every user restore from the cache.
    assert cache.hits >= 15
    assert cache.tokens_restored > 0


def test_cache_cuts_chat_completion_time():
    """Restoring context over NVLink beats re-prefilling it every turn."""
    with_cache, engine_c, _ = run_chat(with_cache=True)
    without, engine_n, _ = run_chat(with_cache=False)
    rct_cached = engine_c.metrics.mean_rct()
    rct_plain = engine_n.metrics.mean_rct()
    assert rct_cached < rct_plain
