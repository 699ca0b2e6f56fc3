"""Quickstart: offload a long prompt's context over NVLink with AQUA.

Builds the paper's basic unit — a 2-GPU A100 server hosting a
memory-bound OPT-30B long-prompt job next to a compute-bound
StableDiffusion producer — and shows the headline result: routing the
KV cache to the neighbour GPU's spare HBM over NVLink generates several
times more tokens than offloading to host DRAM over PCIe (Figure 7).

Run:  python examples/quickstart.py
"""

from repro.aqua import AquaLib, BatchInformer, Coordinator
from repro.hardware import Server
from repro.models import OPT_30B, SD_15
from repro.serving import BatchEngine, FlexGenEngine
from repro.sim import Environment
from repro.workloads import long_prompt_requests
from repro.workloads.arrivals import submit_all

DURATION = 60.0  # simulated seconds of generation


def run_long_prompt(use_aqua: bool) -> int:
    """Tokens generated by an 8000-token OPT-30B prompt in DURATION."""
    env = Environment()
    server = Server(env, n_gpus=2, topology="p2p")  # 2x A100-80G, NVLink
    coordinator = Coordinator()

    # GPU 0: the memory consumer.  FlexGen-style inference always goes
    # through AQUA-LIB; without a paired producer (and without AQUA's
    # gather kernel) it falls back to DRAM, which is exactly the FlexGen
    # baseline.
    consumer_lib = AquaLib(server.gpus[0], server, coordinator, gather_enabled=use_aqua)
    consumer = FlexGenEngine(
        server.gpus[0], server, OPT_30B, aqua_lib=consumer_lib, workspace_tokens=8000
    )

    if use_aqua:
        # GPU 1: StableDiffusion at its peak-throughput batch size has
        # tens of GB of HBM to spare; the batch-informer donates it.
        producer_lib = AquaLib(
            server.gpus[1], server, coordinator, informer=BatchInformer()
        )
        producer = BatchEngine(server.gpus[1], server, SD_15, aqua_lib=producer_lib)
        producer.start()
        coordinator.pair(consumer_lib.name, producer_lib.name)

    consumer.start()
    env.run(until=1.0)  # let the producer donate before the prompt lands

    submit_all(env, consumer, long_prompt_requests(start=1.0))
    env.run(until=1.0 + DURATION)
    return consumer.metrics.tokens_generated


def main() -> None:
    baseline = run_long_prompt(use_aqua=False)
    aqua = run_long_prompt(use_aqua=True)
    print(f"OPT-30B, 8000-token prompt, {DURATION:.0f}s of generation:")
    print(f"  FlexGen -> host DRAM over PCIe : {baseline:5d} tokens")
    print(f"  AQUA    -> GPU 1 over NVLink   : {aqua:5d} tokens")
    print(f"  speedup                        : {aqua / baseline:.1f}x  (paper: ~6x)")


if __name__ == "__main__":
    main()
