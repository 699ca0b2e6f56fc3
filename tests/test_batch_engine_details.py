"""Focused tests for the compute-bound batch engine (producers)."""

import pytest

from repro.aqua import AquaLib, BatchInformer, Coordinator
from repro.hardware import Server
from repro.models import AUDIOGEN, SD_15
from repro.serving import BatchEngine, Request
from repro.sim import Environment
from repro.workloads import producer_requests
from repro.workloads.arrivals import submit_all


def make_engine(model=SD_15, **kwargs):
    env = Environment()
    server = Server(env, n_gpus=1)
    engine = BatchEngine(server.gpus[0], server, model, **kwargs)
    engine.start()
    return env, server, engine


def test_reserves_weights_and_activations():
    env, server, engine = make_engine(batch_size=8)
    gpu = server.gpus[0]
    assert gpu.hbm.held(f"{engine.name}:weights") == SD_15.weight_bytes
    assert (
        gpu.hbm.held(f"{engine.name}:activations")
        == 8 * SD_15.activation_bytes_per_image
    )


def test_audio_engine_activation_sizing():
    env, server, engine = make_engine(model=AUDIOGEN, batch_size=4)
    gpu = server.gpus[0]
    assert (
        gpu.hbm.held(f"{engine.name}:activations")
        == 4 * AUDIOGEN.activation_bytes_per_sample
    )


def test_partial_batches_run_without_waiting():
    """Requests are served as they arrive (min latency), not held for a
    full batch — matching the paper's description of these engines."""
    env, server, engine = make_engine(batch_size=16)
    req = Request(arrival_time=0.0, prompt_tokens=1, max_new_tokens=1)
    engine.submit(req)
    env.run(until=60)
    assert req.done
    assert engine.batches_run == 1


def test_backlog_batches_fully():
    env, server, engine = make_engine(batch_size=4)
    requests = [
        Request(arrival_time=0.0, prompt_tokens=1, max_new_tokens=1)
        for _ in range(12)
    ]
    submit_all(env, engine, requests)
    env.run(until=120)
    assert all(r.done for r in requests)
    assert engine.batches_run == 3


def test_rct_includes_queue_wait():
    env, server, engine = make_engine(batch_size=2)
    requests = [
        Request(arrival_time=0.0, prompt_tokens=1, max_new_tokens=1)
        for _ in range(4)
    ]
    submit_all(env, engine, requests)
    env.run(until=120)
    first_wave = sorted(r.rct for r in requests)[:2]
    second_wave = sorted(r.rct for r in requests)[2:]
    assert min(second_wave) > max(first_wave)


def test_idle_engine_keeps_donating():
    env = Environment()
    server = Server(env, n_gpus=2)
    coord = Coordinator()
    lib = AquaLib(server.gpus[0], server, coord, informer=BatchInformer())
    engine = BatchEngine(server.gpus[0], server, SD_15, aqua_lib=lib)
    engine.start()
    env.run(until=1)
    donated_idle = lib.donated_bytes
    assert donated_idle > 0
    # Serving traffic does not claw the donation back.
    submit_all(env, engine, producer_requests(rate=1.0, count=20, seed=0, start=1.0))
    env.run(until=40)
    assert lib.donated_bytes == donated_idle


def test_double_start_rejected():
    env, server, engine = make_engine()
    with pytest.raises(RuntimeError):
        engine.start()
