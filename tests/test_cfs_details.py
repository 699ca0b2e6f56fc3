"""Focused tests for CFS scheduling internals."""

import pytest

from repro.aqua import AquaLib, BatchInformer, Coordinator
from repro.hardware import Server
from repro.models import CODELLAMA_34B, KANDINSKY, MISTRAL_7B
from repro.serving import BatchEngine, CFSEngine, Request
from repro.sim import Environment
from repro.workloads.arrivals import submit_all


def make_cfs(use_aqua=False, slice_tokens=5, **kwargs):
    env = Environment()
    server = Server(env, n_gpus=2)
    aqua_lib = None
    if use_aqua:
        coord = Coordinator()
        aqua_lib = AquaLib(server.gpus[0], server, coord)
        producer_lib = AquaLib(server.gpus[1], server, coord, informer=BatchInformer())
        producer = BatchEngine(server.gpus[1], server, KANDINSKY, aqua_lib=producer_lib)
        producer.start()
        coord.pair(aqua_lib.name, producer_lib.name)
    engine = CFSEngine(
        server.gpus[0],
        server,
        CODELLAMA_34B,
        use_aqua=use_aqua,
        aqua_lib=aqua_lib,
        slice_tokens=slice_tokens,
        **kwargs,
    )
    engine.start()
    return env, engine


def test_cfs_single_request_no_switching():
    """A lone request that fits never context-switches."""
    env, engine = make_cfs()
    req = Request(arrival_time=0.0, prompt_tokens=100, max_new_tokens=20)
    engine.submit(req)
    env.run(until=60)
    assert req.done
    assert engine.context_switch_time == 0.0


def test_cfs_all_fit_no_switching():
    """When every live prompt fits in KV memory, CFS degenerates to
    continuous batching: zero switch overhead."""
    env, engine = make_cfs()
    requests = [
        Request(arrival_time=0.0, prompt_tokens=200, max_new_tokens=30)
        for _ in range(8)
    ]
    submit_all(env, engine, requests)
    env.run(until=120)
    assert all(r.done for r in requests)
    assert engine.context_switch_time == 0.0


def test_cfs_pressure_triggers_switching():
    env, engine = make_cfs()
    requests = [
        Request(arrival_time=0.0, prompt_tokens=3000, max_new_tokens=50)
        for _ in range(20)
    ]
    submit_all(env, engine, requests)
    env.run(until=600)
    assert all(r.done for r in requests)
    assert engine.context_switch_time > 0
    assert engine.slices_run > 0


def test_cfs_least_progress_first():
    """A late arrival with zero progress preempts long-running prompts."""
    env, engine = make_cfs()
    # Fill memory with big prompts.
    hogs = [
        Request(arrival_time=0.0, prompt_tokens=3500, max_new_tokens=300)
        for _ in range(12)
    ]
    submit_all(env, engine, hogs)
    late = Request(arrival_time=10.0, prompt_tokens=200, max_new_tokens=20)
    submit_all(env, engine, [late])
    env.run(until=600)
    assert late.done
    # The late arrival got service well before the hogs finished.
    assert late.first_token_time < max(h.finish_time for h in hogs if h.done)
    assert late.ttft < 20


def test_cfs_swap_roundtrip_preserves_progress():
    env, engine = make_cfs()
    requests = [
        Request(arrival_time=0.0, prompt_tokens=3000, max_new_tokens=40)
        for _ in range(16)
    ]
    submit_all(env, engine, requests)
    env.run(until=900)
    for r in requests:
        assert r.done
        assert r.generated_tokens == r.max_new_tokens


def test_cfs_dram_bookkeeping_clean_after_run():
    env, engine = make_cfs()
    requests = [
        Request(arrival_time=0.0, prompt_tokens=3000, max_new_tokens=30)
        for _ in range(16)
    ]
    submit_all(env, engine, requests)
    env.run(until=900)
    assert all(r.done for r in requests)
    assert not engine._dram_tags
    assert not engine.swapped
    # No context bytes leaked in host DRAM.
    leftovers = [
        tag for tag in engine.server.dram.pool.reservations if tag.startswith("cfs")
    ]
    assert leftovers == []


def test_cfs_aqua_tensors_freed_after_run():
    env, engine = make_cfs(use_aqua=True)
    requests = [
        Request(arrival_time=0.0, prompt_tokens=3000, max_new_tokens=30)
        for _ in range(16)
    ]
    env.run(until=1)  # producer donates
    submit_all(env, engine, requests)
    env.run(until=900)
    assert all(r.done for r in requests)
    assert engine._swap_tensors == {}
    assert engine.aqua_lib.tensors == {}


def test_cfs_oversized_waiting_request_rejected():
    env, engine = make_cfs()
    huge = Request(arrival_time=0.0, prompt_tokens=100_000, max_new_tokens=10)
    engine.submit(huge)
    env.run(until=10)
    assert not huge.done
    assert huge not in engine.waiting


def test_cfs_slice_length_controls_switch_frequency():
    def switches(slice_tokens):
        env, engine = make_cfs(slice_tokens=slice_tokens)
        requests = [
            Request(arrival_time=0.0, prompt_tokens=3000, max_new_tokens=40)
            for _ in range(16)
        ]
        submit_all(env, engine, requests)
        env.run(until=900)
        return engine.context_switch_time

    assert switches(2) > switches(16)


def test_cfs_interleaves_two_classes_fairly():
    """Short prompts are not starved behind long generations."""
    env, engine = make_cfs()
    long_jobs = [
        Request(arrival_time=0.0, prompt_tokens=3000, max_new_tokens=200)
        for _ in range(10)
    ]
    short_jobs = [
        Request(arrival_time=5.0, prompt_tokens=300, max_new_tokens=10)
        for _ in range(5)
    ]
    submit_all(env, engine, long_jobs)
    submit_all(env, engine, short_jobs)
    env.run(until=900)
    assert all(r.done for r in short_jobs)
    short_done = max(r.finish_time for r in short_jobs)
    long_done = max(r.finish_time for r in long_jobs if r.done)
    assert short_done < long_done


def test_cfs_context_lost_on_swap_out_requeues_once():
    """A context lost while it is swapped out costs the request its KV
    once: the request is requeued, prefills again, and completes."""
    env, engine = make_cfs(use_aqua=True, slice_tokens=2, max_batch=1)
    lib = engine.aqua_lib
    make = lib.to_responsive_tensor

    def lost_tensor(*args, **kwargs):
        tensor = make(*args, **kwargs)
        tensor.lost = True
        return tensor

    lib.to_responsive_tensor = lost_tensor
    reqs = [Request(arrival_time=0.0, prompt_tokens=100, max_new_tokens=6) for _ in range(2)]
    submit_all(env, engine, reqs)
    env.run(until=60)
    assert all(r.done and r.generated_tokens == 6 for r in reqs)
    assert engine.metrics.requeues == 2
    assert engine.allocator.used_blocks == 0 and not engine.kv.sequences
    assert not engine.running and not engine.swapped
