"""Model registry and resource-contention classification.

The paper's rule of thumb (§2.1, §4): text generators are memory-bound;
image and audio generators are compute-bound.  AQUA-PLACER consumes
this classification (refined by workload-specific memory deficits) to
pair memory consumers with producers.
"""

from __future__ import annotations

from enum import Enum
from typing import Union

from repro.models.audio import AUDIOGEN, MUSICGEN, AudioModelSpec
from repro.models.diffusion import KANDINSKY, SD_15, SD_XL, DiffusionSpec
from repro.models.llm import (
    CODELLAMA_34B,
    LLAMA2_13B,
    LLMSpec,
    MISTRAL_7B,
    OPT_30B,
)

ModelSpec = Union[LLMSpec, DiffusionSpec, AudioModelSpec]


class BoundKind(str, Enum):
    """Which GPU resource bottlenecks a model's inference throughput."""

    MEMORY = "memory-bound"
    COMPUTE = "compute-bound"


#: The eight state-of-the-art generative models hosted in the evaluation.
ALL_MODELS: dict[str, ModelSpec] = {
    spec.name: spec
    for spec in (
        OPT_30B,
        LLAMA2_13B,
        MISTRAL_7B,
        CODELLAMA_34B,
        SD_15,
        SD_XL,
        KANDINSKY,
        AUDIOGEN,
        MUSICGEN,
    )
}


def get_model(name: str) -> ModelSpec:
    """Look up a model preset by name.

    Raises
    ------
    KeyError
        With the list of known models if the name is unknown.
    """
    try:
        return ALL_MODELS[name]
    except KeyError:
        known = ", ".join(sorted(ALL_MODELS))
        raise KeyError(f"unknown model {name!r}; known models: {known}") from None


def classify(model: ModelSpec) -> BoundKind:
    """Default resource classification by modality (§2.1)."""
    if isinstance(model, LLMSpec):
        return BoundKind.MEMORY
    return BoundKind.COMPUTE
