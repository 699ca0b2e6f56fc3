"""Stateful property testing of the paged KV cache.

Hypothesis drives random admit/append/swap/release sequences and checks
the block-accounting invariants that the serving engines rely on.
"""

import copy

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.memory import BlockAllocator, PagedKVCache
from repro.models import MISTRAL_7B

N_BLOCKS = 64
BLOCK_TOKENS = 16


class KVCacheMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        allocator = BlockAllocator(
            n_blocks=N_BLOCKS,
            block_bytes=MISTRAL_7B.kv_bytes_per_token * BLOCK_TOKENS,
        )
        self.cache = PagedKVCache(MISTRAL_7B, allocator, block_tokens=BLOCK_TOKENS)
        self.next_id = 0
        self.model_tokens: dict[int, int] = {}  # oracle: seq -> tokens
        self.swapped: set[int] = set()

    # ------------------------------------------------------------------
    @rule(tokens=st.integers(min_value=1, max_value=200))
    def admit(self, tokens):
        seq_id = self.next_id
        self.next_id += 1
        if self.cache.can_admit(tokens):
            self.cache.admit(seq_id, tokens)
            self.model_tokens[seq_id] = tokens

    @rule(data=st.data())
    def append(self, data):
        resident = [s for s in self.model_tokens if s not in self.swapped]
        if not resident:
            return
        seq_id = data.draw(st.sampled_from(sorted(resident)))
        if self.cache.append_tokens([seq_id]):
            self.model_tokens[seq_id] += 1

    @rule(data=st.data())
    def append_batch(self, data):
        """One append_tokens call equals per-sequence appends and releases."""
        resident = sorted(s for s in self.model_tokens if s not in self.swapped)
        if not resident:
            return
        seq_ids = data.draw(st.lists(st.sampled_from(resident), unique=True))
        last = data.draw(st.sets(st.sampled_from(seq_ids))) if seq_ids else set()
        reference = copy.deepcopy(self.cache)
        expected = 0
        for seq_id in seq_ids:
            if not reference.append_tokens([seq_id]):
                break
            expected += 1
            if seq_id in last:
                reference.release(seq_id)
        grown = self.cache.append_tokens(seq_ids, last)
        assert grown == expected
        for seq_id in seq_ids[:grown]:
            if seq_id in last:
                del self.model_tokens[seq_id]
            else:
                self.model_tokens[seq_id] += 1
        assert self.cache.allocator._free == reference.allocator._free
        assert {
            s: (q.tokens, q.blocks) for s, q in self.cache.sequences.items()
        } == {s: (q.tokens, q.blocks) for s, q in reference.sequences.items()}

    @rule(data=st.data(), steps=st.integers(min_value=0, max_value=40))
    def append_window(self, data, steps):
        """``steps_fit`` counts the whole steps of ``append_tokens``
        calls that fit, and ``append_steps`` equals that many calls."""
        resident = sorted(s for s in self.model_tokens if s not in self.swapped)
        seq_ids = data.draw(st.lists(st.sampled_from(resident), unique=True)) if resident else []
        reference = copy.deepcopy(self.cache)
        fit = 0
        while fit < steps and reference.append_tokens(seq_ids) == len(seq_ids):
            fit += 1
        assert self.cache.steps_fit(seq_ids, steps) == fit
        reference = copy.deepcopy(self.cache)
        for _ in range(fit):
            reference.append_tokens(seq_ids)
        self.cache.append_steps(seq_ids, fit)
        for seq_id in seq_ids:
            self.model_tokens[seq_id] += fit
        assert self.cache.allocator._free == reference.allocator._free
        assert {
            s: (q.tokens, q.blocks) for s, q in self.cache.sequences.items()
        } == {s: (q.tokens, q.blocks) for s, q in reference.sequences.items()}

    @rule()
    def append_into_full_cache(self):
        """With no free block, a boundary append is refused untouched."""
        allocator = self.cache.allocator
        if not allocator.free_blocks:
            return
        seq_id = self.next_id
        self.next_id += 1
        # Exactly fill the free blocks, ending on a block boundary.
        tokens = allocator.free_blocks * BLOCK_TOKENS
        self.cache.admit(seq_id, tokens)
        self.model_tokens[seq_id] = tokens
        assert allocator.free_blocks == 0
        seq = self.cache.sequences[seq_id]
        blocks = list(seq.blocks)
        assert self.cache.append_tokens([seq_id]) == 0
        assert seq.tokens == tokens and seq.blocks == blocks

    @rule(data=st.data())
    def swap_out(self, data):
        resident = [s for s in self.model_tokens if s not in self.swapped]
        if not resident:
            return
        seq_id = data.draw(st.sampled_from(sorted(resident)))
        nbytes = self.cache.swap_out(seq_id)
        assert nbytes == MISTRAL_7B.kv_bytes(self.model_tokens[seq_id])
        self.swapped.add(seq_id)

    @rule(data=st.data())
    def swap_in(self, data):
        if not self.swapped:
            return
        seq_id = data.draw(st.sampled_from(sorted(self.swapped)))
        if self.cache.can_swap_in(seq_id):
            self.cache.swap_in(seq_id)
            self.swapped.discard(seq_id)

    @rule(data=st.data())
    def release(self, data):
        if not self.model_tokens:
            return
        seq_id = data.draw(st.sampled_from(sorted(self.model_tokens)))
        self.cache.release(seq_id)
        del self.model_tokens[seq_id]
        self.swapped.discard(seq_id)

    # ------------------------------------------------------------------
    @invariant()
    def token_counts_match_oracle(self):
        for seq_id, tokens in self.model_tokens.items():
            assert self.cache.sequences[seq_id].tokens == tokens

    @invariant()
    def resident_blocks_match_token_counts(self):
        for seq_id, tokens in self.model_tokens.items():
            seq = self.cache.sequences[seq_id]
            if seq.is_resident:
                assert len(seq.blocks) == self.cache.blocks_for(tokens)
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
    max_examples=50, stateful_step_count=50, deadline=None
)
TestKVCacheStateMachine = KVCacheMachine.TestCase
