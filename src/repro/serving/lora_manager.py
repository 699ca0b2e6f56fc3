"""LoRA adapter caching and loading (§6 "AQUA's effect on LoRA", §7).

A serving engine caches a bounded set of adapters in GPU memory; a
request naming an uncached adapter blocks until the adapter is loaded.
Where the adapter comes from is the experiment:

* **baseline** — host DRAM over PCIe, and vLLM's stock implementation
  loads each per-layer A/B matrix separately ("multiple small data
  transfers", §B.1), wasting link bandwidth;
* **AQUA** — the adapter store lives in a producer GPU's HBM as AQUA
  TENSORS, copied whole over NVLink and only then scattered into the
  per-layer weights locally.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Generator, Optional

from repro.models.lora import LoRAAdapter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.aqua.lib import AquaLib
    from repro.hardware.gpu import GPU
    from repro.hardware.server import Server

#: Scatter granularity of the stock path: each per-layer/per-module A/B
#: matrix is a separate copy (~2 matrices x 7 target modules x 16-32
#: layers in real adapters).
PIECES_PER_ADAPTER = 224

#: The stock loader copies from *pageable* host memory, which reaches
#: only this fraction of PCIe's DMA bandwidth; AQUA's offload store (GPU
#: HBM or pinned staging) pays no such penalty.
HOST_BANDWIDTH_FRACTION = 0.2

#: CPU-side cost (Python dispatch + kernel launch + sync) of each small
#: copy on the stock path, in seconds.
PER_PIECE_OVERHEAD = 0.15e-3


class LoRACache:
    """LRU cache of GPU-resident adapters with simulated load paths.

    Parameters
    ----------
    gpu, server:
        The consumer GPU the adapters are loaded into.
    capacity_bytes:
        GPU memory reserved for cached adapters (the paper uses 10
        adapters in §6 and a 10 GB reservation in §7).
    aqua_lib:
        When given, adapters load from AQUA TENSORS (producer GPU over
        NVLink, DRAM fallback); otherwise from host DRAM over PCIe.
    whole_copy:
        Copy each adapter as one buffer (AQUA's vLLM modification).
        When ``False`` the stock path moves each per-layer/per-module
        A/B matrix separately (:data:`PIECES_PER_ADAPTER` copies).
    """

    def __init__(
        self,
        gpu: "GPU",
        server: "Server",
        capacity_bytes: int,
        aqua_lib: Optional["AquaLib"] = None,
        whole_copy: bool = True,
        name: str = "lora-cache",
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.env = server.env
        self.gpu = gpu
        self.server = server
        self.capacity_bytes = capacity_bytes
        self.aqua_lib = aqua_lib
        self.whole_copy = whole_copy
        self.name = name
        gpu.hbm.reserve(f"{name}:region", capacity_bytes)
        self._resident: OrderedDict[str, int] = OrderedDict()
        self._store: dict[str, object] = {}  # adapter name -> AquaTensor
        self.hits = 0
        self.misses = 0
        self.bytes_loaded = 0

    # ------------------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        return sum(self._resident.values())

    def is_resident(self, adapter: LoRAAdapter) -> bool:
        return adapter.name in self._resident

    def register(self, adapter: LoRAAdapter) -> None:
        """Stage an adapter in the offload store (AQUA mode only).

        In AQUA mode every known adapter is kept as an AQUA TENSOR on
        the paired producer GPU (DRAM when the lease is full), the way
        the paper pre-stages the 30-200 synthesized adapters.
        """
        if self.aqua_lib is None or adapter.name in self._store:
            return
        self._store[adapter.name] = self.aqua_lib.to_responsive_tensor(
            adapter.nbytes, pieces=PIECES_PER_ADAPTER, tag=f"lora-{adapter.name}"
        )

    def ensure(self, adapter: LoRAAdapter) -> Generator:
        """Make ``adapter`` GPU-resident, loading (and evicting) if needed."""
        if adapter.nbytes > self.capacity_bytes:
            raise ValueError(
                f"adapter {adapter.name} ({adapter.nbytes}B) exceeds the "
                f"cache capacity ({self.capacity_bytes}B)"
            )
        if adapter.name in self._resident:
            self._resident.move_to_end(adapter.name)
            self.hits += 1
            return
        self.misses += 1
        while self.used_bytes + adapter.nbytes > self.capacity_bytes:
            self._resident.popitem(last=False)
        yield from self._load(adapter)
        self._resident[adapter.name] = adapter.nbytes
        self.bytes_loaded += adapter.nbytes

    def _load(self, adapter: LoRAAdapter) -> Generator:
        if self.aqua_lib is not None:
            self.register(adapter)
            tensor = self._store[adapter.name]
            pieces = None if self.whole_copy else PIECES_PER_ADAPTER
            if self.whole_copy:
                # One whole-adapter copy, then a local scatter into the
                # per-layer weights (two HBM passes).
                yield from tensor.fetch(pieces=1)
                scatter = 2 * adapter.nbytes / self.gpu.spec.effective_hbm_bandwidth
                yield self.env.timeout(scatter)
            else:
                yield from tensor.fetch(pieces=pieces)
        else:
            pieces = 1 if self.whole_copy else PIECES_PER_ADAPTER
            yield from self.server.transfer(
                self.server.dram, self.gpu, adapter.nbytes, pieces=pieces
            )
            # Pageable-host penalty: the stock loader's source buffers are
            # not pinned, so DMA runs well below PCIe peak...
            peak = self.server.pcie_link.peak_bandwidth
            slowdown = adapter.nbytes / (peak * HOST_BANDWIDTH_FRACTION) - (
                adapter.nbytes / peak
            )
            # ...and each per-module copy pays CPU dispatch overhead.
            slowdown += pieces * PER_PIECE_OVERHEAD
            yield self.env.timeout(slowdown)

    def __repr__(self) -> str:
        return (
            f"<LoRACache {len(self._resident)} resident, "
            f"{self.used_bytes}/{self.capacity_bytes}B, "
            f"hits={self.hits} misses={self.misses}>"
        )
