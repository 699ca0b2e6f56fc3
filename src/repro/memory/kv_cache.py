"""Paged KV-cache accounting in the style of vLLM's paged attention.

Sequences own lists of fixed-size token blocks.  A sequence can be
*resident* (blocks on the GPU) or *swapped out* by a CFS context switch
(its KV bytes live in an offload target — host DRAM for the baseline, a
producer GPU's HBM for AQUA).  The cache tracks only placement and sizes; byte movement is the
serving engine's job.
"""

from __future__ import annotations

from bisect import bisect_right
from enum import Enum
from itertools import count
from operator import attrgetter
from typing import Optional

from repro.memory.allocator import AllocationError, BlockAllocator
from repro.models.llm import LLMSpec


_POSITION = attrgetter("position")


class Residency(str, Enum):
    RESIDENT = "resident"
    SWAPPED = "swapped"


class StepClock:
    """Decode steps a batch has run, read by the batch's members.

    A member stores a base and reads its count as ``base + steps``, so
    one step advances every member at once without visiting any.  A
    step that stops part-way -- at a sequence that found no free block,
    or paused after a given one -- stays *open*: ``cursor`` is then the
    batch position of the first member it has not reached, and members
    at or after it read one less until the step resumes.  The clock
    hands out the positions, so a member that holds no growing KV still
    has its place in batch order.
    """

    __slots__ = ("steps", "cursor", "_positions")

    def __init__(self) -> None:
        self.steps = 0
        self.cursor: Optional[int] = None
        self._positions = count()

    def next_position(self) -> int:
        """The batch position of a new member, after every earlier one."""
        return next(self._positions)

    def count(self, base: int, position: int) -> int:
        """The count of the member at batch ``position`` storing ``base``."""
        cursor = self.cursor
        return base + self.steps - (cursor is not None and position >= cursor)


class SequenceState:
    """KV bookkeeping for one sequence.

    ``tokens`` is exact at any time.  While the sequence grows with the
    decode batch (see :meth:`PagedKVCache.join`) it is read off the
    cache's step clock, and a step visits the sequence only when it
    crosses a block boundary.
    """

    __slots__ = ("seq_id", "blocks", "residency", "position", "crossing", "_base", "_clock")

    def __init__(self, seq_id: int, tokens: int, blocks: list[int]) -> None:
        self.seq_id = seq_id
        self.blocks = blocks
        self.residency = Residency.RESIDENT
        #: Batch position while growing with the batch, else ``None``.
        self.position: Optional[int] = None
        #: The batch step on which it takes its next block (while growing).
        self.crossing = 0
        self._base = tokens
        self._clock: Optional[StepClock] = None

    @property
    def tokens(self) -> int:
        """Tokens of KV the sequence holds."""
        clock = self._clock
        if clock is None:
            return self._base
        return clock.count(self._base, self.position)

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
        #: Decode steps of the batch: sequences that :meth:`join` it
        #: grow by one token per :meth:`step`.
        self.clock = StepClock()
        #: Batch step -> the batch sequences that take a block on it, in
        #: batch order.
        self._crossings: dict[int, list[SequenceState]] = {}

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

    def join(self, seq_id: int) -> int:
        """Grow a resident sequence with the decode batch from now on.

        It goes after every member of the batch (batch order is join
        order) and gains one token per :meth:`step`; it leaves the batch
        when released or swapped out.  Only the steps on which it
        crosses a block boundary, one in every ``block_tokens``, visit
        it.  Returns its batch position.
        """
        seq = self._resident(seq_id)
        if seq.position is not None:
            raise ValueError(f"sequence {seq_id} already grows with the batch")
        clock = self.clock
        if clock.cursor is not None:
            raise RuntimeError(f"sequence {seq_id} cannot join an open step")
        tokens = seq.tokens
        seq.position = clock.next_position()
        seq._clock = clock
        seq._base = tokens - clock.steps
        crossing = clock.steps + 1 + -tokens % self.block_tokens
        seq.crossing = crossing
        self._crossings.setdefault(crossing, []).append(seq)
        return seq.position

    def blocks_due(self, ahead: int) -> int:
        """Blocks the batch takes on its ``ahead``-th next step, if no
        sequence leaves before it.

        Every sequence's next crossing lies within ``block_tokens``
        steps, and it crosses again every ``block_tokens`` steps.
        """
        step = self.clock.steps + 1 + (ahead - 1) % self.block_tokens
        return len(self._crossings.get(step, ()))

    def step(self, last=(), through: Optional[int] = None) -> Optional[int]:
        """Grow every sequence in the batch by one token, in batch order.

        Only the sequences crossing a block boundary are visited: each
        takes one block.  A sequence in ``last`` (ids, in batch order) is
        released right after its token, so a later sequence can reuse
        its blocks; one outside the batch (a reservation that never
        grows) is released after every crossing.  With ``through`` the
        step pauses after that sequence.  A crossing that finds no free
        block stops the step there and its id is returned.  A paused or
        stopped step stays open: the sequences it has not reached are
        untouched (their ``tokens`` do not count it yet) and the next
        call resumes it.  Returns ``None`` unless the step stopped.
        """
        clock = self.clock
        if clock.cursor is None:
            clock.steps += 1
        clock.cursor = None
        step = clock.steps
        crossings = self._crossings
        due = crossings.pop(step, [])
        sequences = self.sequences
        bounds = [(sequences[seq_id].position, seq_id) for seq_id in last]
        stop = None if through is None else sequences[through].position
        bounds.append((stop, None))
        allocator = self.allocator
        later = step + self.block_tokens
        done = 0
        for bound, seq_id in bounds:
            if bound is None:
                reach = len(due)
            else:
                reach = bisect_right(due, bound, done, key=_POSITION)
            grown = min(reach - done, allocator.free_blocks)
            if grown:
                grow = due[done : done + grown]
                for seq, block in zip(grow, allocator.allocate(grown)):
                    seq.blocks.append(block)
                    seq.crossing = later
                crossings.setdefault(later, []).extend(grow)
                done += grown
            if done < reach:
                needy = due[done]
                crossings[step] = due[done:]
                clock.cursor = needy.position
                return needy.seq_id
            if seq_id is not None:
                self.release(seq_id)
        if stop is not None:
            if done < len(due):
                crossings[step] = due[done:]
            clock.cursor = stop + 1
        return None

    def release(self, seq_id: int) -> None:
        """Finish a sequence and free its blocks (if resident)."""
        seq = self.sequences.pop(seq_id)
        if seq.position is not None:
            self._leave(seq)
        if seq.is_resident:
            self.allocator.free(seq.blocks)
        seq.blocks = []

    def _leave(self, seq: SequenceState) -> None:
        """Take a sequence out of the batch, keeping its token count."""
        seq._base = seq.tokens
        seq._clock = seq.position = None
        bucket = self._crossings[seq.crossing]
        bucket.remove(seq)
        if not bucket:
            del self._crossings[seq.crossing]

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
        if seq.position is not None:
            self._leave(seq)
        self.allocator.free(seq.blocks)
        seq.blocks = []
        seq.residency = Residency.SWAPPED
        return self.kv_bytes(seq)

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
