"""Tests for the DeepSpeed-style and UVM-style offloading baselines."""

import pytest

from repro.aqua import AquaLib, BatchInformer, Coordinator
from repro.hardware import Server
from repro.models import OPT_30B, SD_15
from repro.serving import BatchEngine, DeepSpeedEngine, FlexGenEngine, Request, UVMEngine
from repro.serving.baselines import UVM_PAGE_BYTES
from repro.sim import Environment
from repro.workloads import long_prompt_requests
from repro.workloads.arrivals import submit_all


def run_engine(cls, paired=False, duration=30.0, **kwargs):
    env = Environment()
    server = Server(env, n_gpus=2)
    coord = Coordinator()
    lib = AquaLib(server.gpus[0], server, coord)
    engine = cls(
        server.gpus[0], server, OPT_30B, aqua_lib=lib, workspace_tokens=8000, **kwargs
    )
    if paired:
        producer_lib = AquaLib(server.gpus[1], server, coord, informer=BatchInformer())
        producer = BatchEngine(server.gpus[1], server, SD_15, aqua_lib=producer_lib)
        producer.start()
        coord.pair(lib.name, producer_lib.name)
    engine.start()
    env.run(until=1.0)
    submit_all(env, engine, long_prompt_requests(start=1.0))
    env.run(until=1.0 + duration)
    return engine


def test_deepspeed_generates_tokens():
    engine = run_engine(DeepSpeedEngine)
    assert engine.metrics.tokens_generated > 5


def test_deepspeed_slower_than_flexgen():
    """No I/O-compute overlap: DeepSpeed trails FlexGen (FlexGen's own
    evaluation, cited in §9)."""
    deepspeed = run_engine(DeepSpeedEngine)
    flexgen = run_engine(FlexGenEngine)
    assert deepspeed.metrics.tokens_generated < flexgen.metrics.tokens_generated


def test_aqua_improves_deepspeed_too():
    """§9: 'similar benefits can extend to Deepspeed'."""
    dram = run_engine(DeepSpeedEngine, paired=False)
    aqua = run_engine(DeepSpeedEngine, paired=True)
    assert aqua.metrics.tokens_generated > 3 * dram.metrics.tokens_generated


def test_uvm_generates_tokens_and_counts_faults():
    engine = run_engine(UVMEngine)
    assert engine.metrics.tokens_generated > 2
    assert engine.page_faults > 1000  # ~5.5k pages per 11 GB context read


def test_uvm_slower_than_explicit_offload_on_nvlink():
    """Page-granular migration wastes NVLink's large-transfer bandwidth:
    even with a producer GPU backing store, UVM trails AQUA's explicit
    gathered copies (why the paper built AQUA TENSORS instead)."""
    uvm = run_engine(UVMEngine, paired=True)
    aqua = run_engine(FlexGenEngine, paired=True)
    assert aqua.metrics.tokens_generated > 2 * uvm.metrics.tokens_generated


def test_uvm_on_nvlink_still_beats_uvm_on_pcie():
    pcie = run_engine(UVMEngine, paired=False)
    nvlink = run_engine(UVMEngine, paired=True)
    assert nvlink.metrics.tokens_generated > pcie.metrics.tokens_generated


def test_uvm_read_past_tensor_end_raises():
    """An over-long context read is a caller bug: UVM refuses it before
    faulting a page, and a read of exactly the tensor still runs."""
    env = Environment()
    server = Server(env, n_gpus=2)
    lib = AquaLib(server.gpus[0], server, Coordinator())
    engine = UVMEngine(server.gpus[0], server, OPT_30B, aqua_lib=lib, workspace_tokens=8000)
    tensor = lib.to_responsive_tensor(4 * UVM_PAGE_BYTES, tag="uvm-ctx")

    def read(nbytes):
        return env.process(engine._io_step(tensor, nbytes))

    too_long = 4 * UVM_PAGE_BYTES + 1
    with pytest.raises(ValueError, match=rf"uvm-ctx.*{too_long}.*{4 * UVM_PAGE_BYTES}"):
        env.run(until=read(too_long))
    assert engine.page_faults == 0
    assert tensor.fetch_count == 0
    assert env.now == 0.0
    env.run(until=read(4 * UVM_PAGE_BYTES))
    assert engine.page_faults == 4
    assert tensor.fetch_count == 1


def test_baselines_clean_up_tensors():
    env = Environment()
    server = Server(env, n_gpus=2)
    coord = Coordinator()
    lib = AquaLib(server.gpus[0], server, coord)
    engine = DeepSpeedEngine(
        server.gpus[0], server, OPT_30B, aqua_lib=lib, workspace_tokens=8000
    )
    engine.start()
    req = Request(arrival_time=0.0, prompt_tokens=2000, max_new_tokens=3)
    engine.submit(req)
    env.run(until=300)
    assert req.done
    assert lib.tensors == {}
