"""Fixed-size block allocation over a device memory pool.

vLLM manages its KV cache as fixed-size blocks (paged attention); this
allocator reproduces that: a region of ``n_blocks * block_bytes`` is
reserved from the device pool up front, and sequences draw and return
whole blocks.  The free list is LIFO, which (like the real system)
keeps recently-freed blocks hot.
"""

from __future__ import annotations

from typing import Optional

from repro.hardware.gpu import MemoryPool


class AllocationError(MemoryError):
    """Raised when an allocation cannot be satisfied."""


class BlockAllocator:
    """Allocates fixed-size blocks from a pre-reserved region.

    Parameters
    ----------
    n_blocks:
        Number of blocks in the region.
    block_bytes:
        Size of each block.
    pool:
        Optional device pool to reserve the backing region from (the
        reservation is released by :meth:`destroy`).
    tag:
        Reservation label in the pool.
    """

    def __init__(
        self,
        n_blocks: int,
        block_bytes: int,
        pool: Optional[MemoryPool] = None,
        tag: str = "kv-region",
    ) -> None:
        if n_blocks < 0:
            raise ValueError(f"n_blocks must be >= 0, got {n_blocks}")
        if block_bytes <= 0:
            raise ValueError(f"block_bytes must be positive, got {block_bytes}")
        self.n_blocks = n_blocks
        self.block_bytes = block_bytes
        self.pool = pool
        self.tag = tag
        self._free: list[int] = list(range(n_blocks - 1, -1, -1))
        self._allocated: set[int] = set()
        if pool is not None:
            pool.reserve(tag, n_blocks * block_bytes)

    # ------------------------------------------------------------------
    @property
    def free_blocks(self) -> int:
        return len(self._free)

    @property
    def used_blocks(self) -> int:
        return len(self._allocated)

    @property
    def capacity_bytes(self) -> int:
        return self.n_blocks * self.block_bytes

    def can_allocate(self, count: int) -> bool:
        return count <= len(self._free)

    def allocate(self, count: int) -> list[int]:
        """Take ``count`` blocks off the free list.

        Raises
        ------
        AllocationError
            If fewer than ``count`` blocks are free.
        """
        if count < 0:
            raise ValueError(f"negative block count {count}")
        if count > len(self._free):
            raise AllocationError(
                f"need {count} blocks, only {len(self._free)} free "
                f"of {self.n_blocks}"
            )
        if not count:
            return []
        free = self._free
        taken = free[-count:]
        del free[-count:]
        taken.reverse()
        self._allocated.update(taken)
        return taken

    def free(self, blocks: list[int]) -> None:
        """Return blocks to the free list.

        Raises
        ------
        AllocationError
            If any block is not currently allocated, or appears twice
            (double free); nothing changes then.
        """
        returned = set(blocks)
        held = self._allocated
        if len(returned) != len(blocks) or not returned <= held:
            seen = set()
            for block in blocks:
                if block in seen or block not in held:
                    raise AllocationError(f"double free of block {block}")
                seen.add(block)
        held -= returned
        self._free.extend(blocks)

    def resize(self, n_blocks: int) -> None:
        """Grow or shrink the region (AQUA donates/reclaims KV memory).

        Shrinking requires the removed blocks to be free; the backing
        pool reservation is adjusted to match.
        """
        if n_blocks < 0:
            raise ValueError(f"n_blocks must be >= 0, got {n_blocks}")
        if n_blocks == self.n_blocks:
            return
        if n_blocks > self.n_blocks:
            added = range(self.n_blocks, n_blocks)
            if self.pool is not None:
                self.pool.reserve(self.tag, (n_blocks - self.n_blocks) * self.block_bytes)
            self._free.extend(reversed(added))
            self.n_blocks = n_blocks
            return
        # Shrink: drop every block above the new boundary; all of them
        # must be free (the engine compacts/offloads first, §B.1).
        to_remove = self.n_blocks - n_blocks
        if any(b >= n_blocks for b in self._allocated):
            raise AllocationError(
                f"cannot shrink to {n_blocks} blocks: blocks above the new "
                "boundary are still allocated"
            )
        self._free = [b for b in self._free if b < n_blocks]
        if self.pool is not None:
            self.pool.release(self.tag, to_remove * self.block_bytes)
        self.n_blocks = n_blocks

    def shrink_any(self, count: int) -> int:
        """Remove up to ``count`` *free* blocks, wherever they are.

        Unlike :meth:`resize`, this does not require the high-numbered
        blocks to be free — the engine is assumed to have compacted the
        region (the paper's vLLM integration copies scattered blocks to
        a temporary location before donating, §B.1).  Returns the number
        of blocks actually removed.
        """
        if count < 0:
            raise ValueError(f"negative block count {count}")
        removed = min(count, len(self._free))
        for _ in range(removed):
            self._free.pop()
        self.n_blocks -= removed
        if self.pool is not None and removed:
            self.pool.release(self.tag, removed * self.block_bytes)
        return removed

    def grow(self, count: int) -> None:
        """Add ``count`` fresh blocks (reclaimed memory coming back)."""
        if count < 0:
            raise ValueError(f"negative block count {count}")
        if count == 0:
            return
        if self.pool is not None:
            self.pool.reserve(self.tag, count * self.block_bytes)
        start = max([*self._free, *self._allocated], default=-1) + 1
        self._free.extend(range(start, start + count))
        self.n_blocks += count

    def destroy(self) -> None:
        """Release the whole backing region."""
        if self.pool is not None:
            self.pool.release(self.tag)
        self._free.clear()
        self._allocated.clear()
        self.n_blocks = 0

    def __repr__(self) -> str:
        return (
            f"<BlockAllocator {self.used_blocks}/{self.n_blocks} used, "
            f"{self.block_bytes}B blocks>"
        )
