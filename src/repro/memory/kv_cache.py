"""Paged KV-cache accounting in the style of vLLM's paged attention.

Sequences own lists of fixed-size token blocks.  A sequence can be
*resident* (blocks on the GPU) or *swapped out* (its KV bytes live in an
offload target — host DRAM for baseline vLLM, a producer GPU's HBM for
AQUA).  The cache tracks only placement and sizes; byte movement is the
serving engine's job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.memory.allocator import AllocationError, BlockAllocator
from repro.models.llm import LLMSpec


class Residency(str, Enum):
    RESIDENT = "resident"
    SWAPPED = "swapped"


@dataclass
class SequenceState:
    """KV bookkeeping for one sequence."""

    seq_id: int
    tokens: int
    blocks: list[int] = field(default_factory=list)
    residency: Residency = Residency.RESIDENT

    @property
    def is_resident(self) -> bool:
        return self.residency is Residency.RESIDENT


class PagedKVCache:
    """Block-granular KV cache for one model on one GPU.

    Parameters
    ----------
    model:
        The LLM whose KV geometry sizes the blocks.
    allocator:
        Backing block allocator (its ``block_bytes`` must equal
        ``model.kv_bytes_per_token * block_tokens``).
    block_tokens:
        Tokens per block (vLLM's default is 16).
    """

    def __init__(
        self,
        model: LLMSpec,
        allocator: BlockAllocator,
        block_tokens: int = 16,
    ) -> None:
        if block_tokens < 1:
            raise ValueError(f"block_tokens must be >= 1, got {block_tokens}")
        expected = model.kv_bytes_per_token * block_tokens
        if allocator.block_bytes != expected:
            raise ValueError(
                f"allocator block size {allocator.block_bytes} != "
                f"model block size {expected}"
            )
        self.model = model
        self.allocator = allocator
        self.block_tokens = block_tokens
        self.sequences: dict[int, SequenceState] = {}

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def blocks_for(self, tokens: int) -> int:
        """Blocks needed to hold ``tokens`` tokens of KV."""
        if tokens < 0:
            raise ValueError(f"negative token count {tokens}")
        return -(-tokens // self.block_tokens)  # ceil division

    def kv_bytes(self, seq: SequenceState) -> int:
        """Exact KV bytes of a sequence (token granularity)."""
        return self.model.kv_bytes(seq.tokens)

    # ------------------------------------------------------------------
    # Sequence lifecycle
    # ------------------------------------------------------------------
    def can_admit(self, tokens: int) -> bool:
        """Whether a new sequence of ``tokens`` tokens fits right now."""
        return self.allocator.can_allocate(self.blocks_for(tokens))

    def admit(self, seq_id: int, tokens: int) -> SequenceState:
        """Create a resident sequence with ``tokens`` tokens of KV."""
        if seq_id in self.sequences:
            raise ValueError(f"sequence {seq_id} already exists")
        blocks = self.allocator.allocate(self.blocks_for(tokens))
        state = SequenceState(seq_id=seq_id, tokens=tokens, blocks=blocks)
        self.sequences[seq_id] = state
        return state

    def append_tokens(self, seq_ids, last=()) -> int:
        """Grow resident sequences by one generated token each, in order.

        At a block boundary a sequence takes one more block.  A sequence
        in ``last`` is released right after its token, so a later
        sequence in the same call can reuse its blocks, exactly as with
        one call per sequence.  Stops at the first sequence that needs a
        block when none is free, leaving it and every later one
        untouched, and returns how many sequences grew.

        Raises
        ------
        AllocationError
            If a sequence reached before the stop is swapped out.
        """
        sequences = self.sequences
        block_tokens = self.block_tokens
        allocator = self.allocator
        resident = Residency.RESIDENT
        grown = 0
        for seq_id in seq_ids:
            seq = sequences[seq_id]
            if seq.residency is not resident:
                raise AllocationError(f"sequence {seq_id} is swapped out")
            if seq.tokens % block_tokens == 0:
                if not allocator.can_allocate(1):
                    return grown
                seq.blocks.extend(allocator.allocate(1))
            seq.tokens += 1
            grown += 1
            if seq_id in last:
                self.release(seq_id)
        return grown

    def steps_fit(self, seq_ids, steps: int) -> int:
        """How many of ``steps`` successive one-token appends to every
        sequence in ``seq_ids`` the free blocks cover."""
        free = self.allocator.free_blocks
        block_tokens = self.block_tokens
        if len(seq_ids) * -(-steps // block_tokens) <= free:
            return steps  # even if every sequence crossed at every chance
        need = [0] * steps
        for seq_id in seq_ids:
            tokens = self.sequences[seq_id].tokens
            for step in range(-tokens % block_tokens, steps, block_tokens):
                need[step] += 1
        for step, count in enumerate(need):
            free -= count
            if free < 0:
                return step
        return steps

    def append_steps(self, seq_ids, steps: int) -> None:
        """Grow resident sequences by ``steps`` tokens each, exactly as
        ``steps`` successive :meth:`append_tokens` calls that complete
        nothing would: new blocks are taken in (step, sequence) order.

        Raises
        ------
        AllocationError
            If a sequence is swapped out or the blocks do not fit (see
            :meth:`steps_fit`); nothing changes then.
        """
        sequences = self.sequences
        block_tokens = self.block_tokens
        resident = Residency.RESIDENT
        states = [sequences[seq_id] for seq_id in seq_ids]
        by_step = [[] for _ in range(steps)]
        need = 0
        for seq in states:
            if seq.residency is not resident:
                raise AllocationError(f"sequence {seq.seq_id} is swapped out")
            first = -seq.tokens % block_tokens
            if first < steps:
                for step in range(first, steps, block_tokens):
                    by_step[step].append(seq)
                    need += 1
        if need > self.allocator.free_blocks:
            raise AllocationError(f"{steps} decode steps need {need} blocks")
        for seq in states:
            seq.tokens += steps
        allocate = self.allocator.allocate
        for crossing in by_step:
            if crossing:
                for seq, block in zip(crossing, allocate(len(crossing))):
                    seq.blocks.append(block)

    def release(self, seq_id: int) -> None:
        """Finish a sequence and free its blocks (if resident)."""
        seq = self.sequences.pop(seq_id)
        if seq.is_resident:
            self.allocator.free(seq.blocks)
        seq.blocks = []

    # ------------------------------------------------------------------
    # Swapping (context switching)
    # ------------------------------------------------------------------
    def swap_out(self, seq_id: int) -> int:
        """Mark a sequence's KV as offloaded; returns bytes to move.

        The freed blocks become available for other sequences; the
        engine is responsible for actually copying the bytes to the
        offload target before reusing them.
        """
        seq = self._resident(seq_id)
        self.allocator.free(seq.blocks)
        seq.blocks = []
        seq.residency = Residency.SWAPPED
        return self.kv_bytes(seq)

    def can_swap_in(self, seq_id: int) -> bool:
        seq = self._swapped(seq_id)
        return self.allocator.can_allocate(self.blocks_for(seq.tokens))

    def swap_in(self, seq_id: int) -> int:
        """Bring a swapped sequence back; returns bytes to move."""
        seq = self._swapped(seq_id)
        seq.blocks = self.allocator.allocate(self.blocks_for(seq.tokens))
        seq.residency = Residency.RESIDENT
        return self.kv_bytes(seq)

    # ------------------------------------------------------------------
    def _resident(self, seq_id: int) -> SequenceState:
        seq = self.sequences[seq_id]
        if not seq.is_resident:
            raise AllocationError(f"sequence {seq_id} is swapped out")
        return seq

    def _swapped(self, seq_id: int) -> SequenceState:
        seq = self.sequences[seq_id]
        if seq.is_resident:
            raise AllocationError(f"sequence {seq_id} is resident")
        return seq

    def __repr__(self) -> str:
        return (
            f"<PagedKVCache seqs={len(self.sequences)} "
            f"blocks={self.allocator.used_blocks}/{self.allocator.n_blocks}>"
        )
