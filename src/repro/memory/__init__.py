"""GPU memory management substrate.

Serving engines need finer-grained memory management than the raw
byte-pool of a device: vLLM allocates the KV cache in fixed-size token
*blocks* (paged attention).  This package provides those pieces:

* :class:`BlockAllocator` — fixed-size block allocation with a free list.
* :class:`PagedKVCache` — per-sequence block accounting in the style of
  vLLM's paged attention, including swapped-out (offloaded) sequences.
"""

from repro.memory.allocator import AllocationError, BlockAllocator
from repro.memory.kv_cache import PagedKVCache, SequenceState

__all__ = [
    "AllocationError",
    "BlockAllocator",
    "PagedKVCache",
    "SequenceState",
]
