"""Stateful property testing of the paged KV cache.

Hypothesis drives random admit/join/step/swap/release sequences against
``Reference``, a plain model of the same cache that grows every batch
sequence one token at a time, and checks after every rule that the two
agree exactly: token counts, block ids, the free list's order, and where
each step stops.  Steps may stop on a shortfall or pause after a chosen
sequence, and sequences may be released or swapped out while a step is
open: the vLLM engine releases its preemption victims that way.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.memory import BlockAllocator, PagedKVCache
from repro.models import MISTRAL_7B

N_BLOCKS = 32
BLOCK_TOKENS = 4

#: Programs per run; ``--hypothesis-profile=ci`` raises it.
EXAMPLES = (
    settings.default.max_examples
    if settings.get_current_profile_name() == "ci"
    else 50
)


class Reference:
    """The cache, one token at a time: ``tokens`` and ``blocks`` per
    sequence, a LIFO free list, the batch in join order and, while a
    step is open, the batch sequences it has not reached."""

    def __init__(self):
        self.free = list(range(N_BLOCKS - 1, -1, -1))
        self.tokens: dict[int, int] = {}
        self.blocks: dict[int, list[int]] = {}
        self.batch: list[int] = []
        self.pending = None

    def admit(self, seq_id, tokens):
        self.tokens[seq_id] = tokens
        self.blocks[seq_id] = [self.free.pop() for _ in range(-(-tokens // BLOCK_TOKENS))]

    def drop(self, seq_id):
        """Free the blocks and leave the batch (and an open step)."""
        self.free.extend(self.blocks[seq_id])
        self.blocks[seq_id] = []
        if seq_id in self.batch:
            self.batch.remove(seq_id)
        if self.pending is not None and seq_id in self.pending:
            self.pending.remove(seq_id)

    def release(self, seq_id):
        self.drop(seq_id)
        del self.tokens[seq_id], self.blocks[seq_id]

    def step(self, last, through):
        if self.pending is None:
            self.pending = list(self.batch)
        while self.pending:
            seq_id = self.pending[0]
            if self.tokens[seq_id] % BLOCK_TOKENS == 0:
                if not self.free:
                    return seq_id
                self.blocks[seq_id].append(self.free.pop())
            self.tokens[seq_id] += 1
            self.pending.pop(0)
            if seq_id in last:
                self.release(seq_id)
            if seq_id == through:
                return None
        self.pending = None
        return None


class KVCacheMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        allocator = BlockAllocator(
            n_blocks=N_BLOCKS,
            block_bytes=MISTRAL_7B.kv_bytes_per_token * BLOCK_TOKENS,
        )
        self.cache = PagedKVCache(MISTRAL_7B, allocator, block_tokens=BLOCK_TOKENS)
        self.ref = Reference()
        self.next_id = 0
        self.swapped: set[int] = set()

    def resident(self):
        return sorted(s for s in self.ref.tokens if s not in self.swapped)

    # ------------------------------------------------------------------
    @rule(
        sizes=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=8),
        join=st.booleans(),
    )
    def admit(self, sizes, join):
        """Admit a few sequences, as one prefill would, and maybe start
        growing them with the batch."""
        for tokens in sizes:
            seq_id = self.next_id
            self.next_id += 1
            if not self.cache.can_admit(tokens):
                return
            self.cache.admit(seq_id, tokens)
            self.ref.admit(seq_id, tokens)
            if join and self.ref.pending is None:
                self.cache.join(seq_id)
                self.ref.batch.append(seq_id)

    @rule(data=st.data())
    def join(self, data):
        outside = [s for s in self.resident() if s not in self.ref.batch]
        if not outside or self.ref.pending is not None:
            return
        seq_id = data.draw(st.sampled_from(outside))
        self.cache.join(seq_id)
        self.ref.batch.append(seq_id)

    @rule(data=st.data())
    def step(self, data):
        """One call: releases ``last`` after their tokens, may pause
        after ``through``, stops where a crossing finds no block."""
        reach = self.ref.pending if self.ref.pending is not None else self.ref.batch
        through = None
        if reach and data.draw(st.booleans()):
            through = data.draw(st.sampled_from(reach))
            reach = reach[: reach.index(through) + 1]
        last = [s for s in reach if data.draw(st.booleans())]
        expected = self.ref.step(set(last), through)
        assert self.cache.step(last, through) == expected

    @rule(steps=st.integers(min_value=1, max_value=2 * BLOCK_TOKENS))
    def quiet_steps(self, steps):
        """Whole steps that complete nothing, as a decode window runs."""
        for _ in range(steps):
            expected = self.ref.step(set(), None)
            assert self.cache.step() == expected
            if expected is not None:
                return

    @rule()
    def step_into_full_cache(self):
        """A sequence at a block boundary with no free block left stops
        the step untouched, however far the batch is from the cache's
        capacity."""
        allocator = self.cache.allocator
        if not allocator.free_blocks or self.ref.pending is not None:
            return
        seq_id = self.next_id
        self.next_id += 1
        tokens = allocator.free_blocks * BLOCK_TOKENS
        self.cache.admit(seq_id, tokens)
        self.ref.admit(seq_id, tokens)
        self.cache.join(seq_id)
        self.ref.batch.append(seq_id)
        assert allocator.free_blocks == 0
        seq = self.cache.sequences[seq_id]
        blocks = list(seq.blocks)
        expected = self.ref.step(set(), None)
        assert self.cache.step() == expected
        if expected == seq_id:
            assert seq.tokens == tokens and seq.blocks == blocks

    @rule(data=st.data())
    def swap_out(self, data):
        resident = self.resident()
        if not resident:
            return
        seq_id = data.draw(st.sampled_from(resident))
        nbytes = self.cache.swap_out(seq_id)
        assert nbytes == MISTRAL_7B.kv_bytes(self.ref.tokens[seq_id])
        self.ref.drop(seq_id)
        self.swapped.add(seq_id)

    @rule(data=st.data())
    def swap_in(self, data):
        if not self.swapped:
            return
        seq_id = data.draw(st.sampled_from(sorted(self.swapped)))
        if -(-self.ref.tokens[seq_id] // BLOCK_TOKENS) <= len(self.ref.free):
            self.cache.swap_in(seq_id)
            self.ref.admit(seq_id, self.ref.tokens[seq_id])
            self.swapped.discard(seq_id)

    @rule(data=st.data())
    def release(self, data):
        if not self.ref.tokens:
            return
        seq_id = data.draw(st.sampled_from(sorted(self.ref.tokens)))
        self.cache.release(seq_id)
        if seq_id in self.swapped:
            del self.ref.tokens[seq_id], self.ref.blocks[seq_id]
        else:
            self.ref.release(seq_id)
        self.swapped.discard(seq_id)

    # ------------------------------------------------------------------
    @invariant()
    def matches_reference(self):
        assert self.cache.allocator._free == self.ref.free
        assert {
            s: (q.tokens, q.blocks) for s, q in self.cache.sequences.items()
        } == {s: (self.ref.tokens[s], self.ref.blocks[s]) for s in self.ref.tokens}

    @invariant()
    def blocks_due_counts_the_crossings(self):
        if self.ref.pending is not None:
            return
        for ahead in range(1, 2 * BLOCK_TOKENS + 1):
            crossing = [
                s for s in self.ref.batch
                if (self.ref.tokens[s] + ahead - 1) % BLOCK_TOKENS == 0
            ]
            assert self.cache.blocks_due(ahead) == len(crossing)

    @invariant()
    def resident_blocks_match_token_counts(self):
        for seq_id, seq in self.cache.sequences.items():
            if seq.is_resident:
                assert len(seq.blocks) == self.cache.blocks_for(seq.tokens)
            else:
                assert seq.blocks == []

    @invariant()
    def allocator_accounting_consistent(self):
        allocator = self.cache.allocator
        held = sum(
            len(s.blocks) for s in self.cache.sequences.values() if s.is_resident
        )
        assert allocator.used_blocks == held
        assert allocator.used_blocks + allocator.free_blocks == N_BLOCKS

    @invariant()
    def no_block_shared_between_sequences(self):
        seen = set()
        for seq in self.cache.sequences.values():
            for block in seq.blocks:
                assert block not in seen
                seen.add(block)

    @invariant()
    def swapped_set_matches_cache(self):
        swapped = {
            s.seq_id for s in self.cache.sequences.values() if not s.is_resident
        }
        assert swapped == self.swapped


KVCacheMachine.TestCase.settings = settings(
    max_examples=EXAMPLES, stateful_step_count=50, deadline=None
)
TestKVCacheStateMachine = KVCacheMachine.TestCase
