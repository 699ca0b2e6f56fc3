"""LoRA adapters: memory-consuming per-request fine-tuning deltas.

Each inference request may name a LoRA adapter that must be resident in
GPU memory before its prompt can run (§2.2).  Adapters are hundreds of
megabytes (the paper uses Zephyr at ~320 MB and Mteb at ~160 MB) and a
serving engine caches only a few, so misses trigger loads over PCIe —
or over NVLink from a producer GPU with AQUA (Figures 8 and 12).
"""

from __future__ import annotations

from dataclasses import dataclass

MB = 10**6


@dataclass(frozen=True)
class LoRAAdapter:
    """One low-rank adaptation adapter.

    Attributes
    ----------
    name:
        Adapter identifier (unique within a workload).
    nbytes:
        Size of the adapter weights in bytes.
    rank:
        LoRA rank (informational; higher ranks need more bytes).
    """

    name: str
    nbytes: int
    rank: int = 16

    def __post_init__(self) -> None:
        if self.nbytes <= 0:
            raise ValueError(f"adapter size must be positive, got {self.nbytes}")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")

    def __str__(self) -> str:
        return f"{self.name}({self.nbytes / MB:.0f}MB)"


#: The two most-downloaded public Mistral adapters used in §6 (sizes
#: from the paper: Zephyr ~320 MB, Mteb ~160 MB).
ZEPHYR_ADAPTER = LoRAAdapter(name="zephyr", nbytes=320 * MB, rank=64)
MTEB_ADAPTER = LoRAAdapter(name="mteb", nbytes=160 * MB, rank=32)


def synthesize_adapters(
    count: int, nbytes: int, prefix: str = "adapter"
) -> list[LoRAAdapter]:
    """Clone-style adapter synthesis, as the paper does for scale tests.

    The evaluation copies real adapters to reach 30-200 distinct
    adapters of a fixed size (§6, §7).
    """
    if count < 0:
        raise ValueError(f"negative adapter count {count}")
    rank = max(1, round(64 * nbytes / (320 * MB)))
    return [
        LoRAAdapter(name=f"{prefix}-{i}", nbytes=nbytes, rank=rank)
        for i in range(count)
    ]
