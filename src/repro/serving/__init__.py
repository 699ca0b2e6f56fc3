"""Inference serving engines.

This package reproduces the serving stacks the paper evaluates on:

* :class:`VLLMEngine` — continuous batching with a paged KV cache.
  Its default scheduler admits a prompt only when KV memory is
  available, which starves late arrivals under load (Figure 1/9); it
  can also act as an AQUA *producer*, donating spare KV memory.
* :class:`CFSEngine` — the completely fair scheduler of §5: prompts get
  token time-slices and their contexts are swapped in/out through AQUA
  TENSORS (fast) or host DRAM (baseline).
* :class:`FlexGenEngine` — offloaded long-prompt inference in the style
  of FlexGen: the whole KV cache lives off-GPU and is streamed through
  the GPU layer-by-layer each step.
* :class:`BatchEngine` — fixed-batch compute-bound serving for image
  and audio generators (the memory producers of Table 3).
* :class:`LoRACache` — an adapter cache whose misses load adapters over
  PCIe (baseline) or NVLink (AQUA), Figures 8 and 12.
"""

from repro.serving.baselines import DeepSpeedEngine, UVMEngine
from repro.serving.batch_engine import BatchEngine
from repro.serving.cfs import CFSEngine
from repro.serving.context_cache import ChatContextCache
from repro.serving.flexgen_engine import FlexGenEngine
from repro.serving.lora_manager import LoRACache
from repro.serving.metrics import MetricsCollector, percentile
from repro.serving.orca_engine import OrcaEngine
from repro.serving.request import Request
from repro.serving.vllm_engine import VLLMEngine
from repro.serving.weighted_cfs import WeightedCFSEngine

__all__ = [
    "BatchEngine",
    "CFSEngine",
    "ChatContextCache",
    "DeepSpeedEngine",
    "FlexGenEngine",
    "UVMEngine",
    "LoRACache",
    "MetricsCollector",
    "OrcaEngine",
    "Request",
    "VLLMEngine",
    "WeightedCFSEngine",
    "percentile",
]
