"""AQUA reproduction: network-accelerated memory offloading for LLMs.

A full-system, simulation-backed reproduction of "Aqua: Network-
Accelerated Memory Offloading for LLMs in Scale-Up GPU Domains"
(ASPLOS 2025).  The package layers:

* :mod:`repro.sim` — a discrete-event simulation kernel;
* :mod:`repro.hardware` — GPUs, NVLink/NVSwitch/PCIe and servers;
* :mod:`repro.models` — analytic performance models of the evaluated
  generative models;
* :mod:`repro.memory` — paged KV-cache memory management;
* :mod:`repro.aqua` — the paper's contribution: AQUA TENSORS, the
  coordinator, AQUA-LIB and AQUA-PLACER;
* :mod:`repro.serving` — vLLM-, FlexGen- and CFS-style serving engines;
* :mod:`repro.workloads` — the evaluation's workload generators;
* :mod:`repro.experiments` — one function per paper figure.

Quickstart::

    from repro.experiments.figures import fig07_longprompt
    result = fig07_longprompt(duration=60.0)
    print(result["aqua+sd"]["speedup"])   # ~6-8x over FlexGen-to-DRAM
"""

__version__ = "1.0.0"
