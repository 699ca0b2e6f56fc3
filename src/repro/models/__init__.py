"""Analytic performance models of the generative models the paper serves.

The paper's experiments (§2.1) classify generative models by the
resource that bottlenecks inference: LLMs are *memory-bound* (their KV
cache grows with every token and competes with the weights for HBM),
while image and audio generators are *compute-bound* (throughput
plateaus with tens of GB of HBM to spare).  This package encodes each
evaluated model as an analytic roofline — weight bytes, KV bytes per
token, prefill and decode-step times on a given GPU — which is all the
serving-engine simulation needs.
"""

from repro.models.audio import AUDIOGEN, MUSICGEN, AudioModelSpec
from repro.models.diffusion import KANDINSKY, SD_15, SD_XL, DiffusionSpec
from repro.models.llm import (
    CODELLAMA_34B,
    LLAMA2_13B,
    LLMSpec,
    MISTRAL_7B,
    OPT_30B,
)
from repro.models.lora import LoRAAdapter, MTEB_ADAPTER, ZEPHYR_ADAPTER, synthesize_adapters
from repro.models.registry import (
    ALL_MODELS,
    BoundKind,
    get_model,
)

__all__ = [
    "ALL_MODELS",
    "AUDIOGEN",
    "AudioModelSpec",
    "BoundKind",
    "CODELLAMA_34B",
    "DiffusionSpec",
    "KANDINSKY",
    "LLAMA2_13B",
    "LLMSpec",
    "LoRAAdapter",
    "MISTRAL_7B",
    "MTEB_ADAPTER",
    "MUSICGEN",
    "OPT_30B",
    "SD_15",
    "SD_XL",
    "ZEPHYR_ADAPTER",
    "get_model",
    "synthesize_adapters",
]
