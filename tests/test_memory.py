"""Tests for the block allocator and the paged KV cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import MemoryPool
from repro.memory import AllocationError, BlockAllocator, PagedKVCache
from repro.models import LLAMA2_13B, MISTRAL_7B


# ---------------------------------------------------------------------------
# BlockAllocator
# ---------------------------------------------------------------------------
def test_allocator_basic_cycle():
    alloc = BlockAllocator(n_blocks=10, block_bytes=100)
    blocks = alloc.allocate(4)
    assert len(blocks) == 4
    assert alloc.free_blocks == 6
    alloc.free(blocks)
    assert alloc.free_blocks == 10


def test_allocator_exhaustion():
    alloc = BlockAllocator(n_blocks=2, block_bytes=100)
    alloc.allocate(2)
    assert not alloc.can_allocate(1)
    with pytest.raises(AllocationError):
        alloc.allocate(1)


def test_allocator_double_free_rejected():
    alloc = BlockAllocator(n_blocks=4, block_bytes=100)
    blocks = alloc.allocate(2)
    alloc.free(blocks)
    with pytest.raises(AllocationError):
        alloc.free(blocks)


def test_allocator_repeated_block_in_one_free_changes_nothing():
    alloc = BlockAllocator(n_blocks=4, block_bytes=100)
    assert alloc.allocate(2) == [0, 1]
    with pytest.raises(AllocationError, match="block 0"):
        alloc.free([0, 0])
    assert alloc._free == [3, 2]
    assert alloc.used_blocks == 2
    alloc.free([1, 0])
    assert alloc._free == [3, 2, 1, 0]


def test_allocator_takes_and_returns_blocks_lifo():
    alloc = BlockAllocator(n_blocks=5, block_bytes=100)
    assert alloc.allocate(0) == []
    assert alloc.allocate(3) == [0, 1, 2]
    alloc.free([2, 0])
    assert alloc._free == [4, 3, 2, 0]
    assert alloc.allocate(2) == [0, 2]
    with pytest.raises(AllocationError, match="block 7"):
        alloc.free([1, 7])
    assert alloc.used_blocks == 3


def test_allocator_reserves_pool():
    pool = MemoryPool(capacity=1000)
    alloc = BlockAllocator(n_blocks=5, block_bytes=100, pool=pool)
    assert pool.used == 500
    alloc.destroy()
    assert pool.used == 0


def test_allocator_grow():
    pool = MemoryPool(capacity=1000)
    alloc = BlockAllocator(n_blocks=2, block_bytes=100, pool=pool)
    alloc.resize(8)
    assert alloc.free_blocks == 8
    assert pool.used == 800


def test_allocator_shrink_requires_free_blocks():
    alloc = BlockAllocator(n_blocks=4, block_bytes=100)
    held = alloc.allocate(4)
    with pytest.raises(AllocationError):
        alloc.resize(2)
    alloc.free(held)
    alloc.resize(2)
    assert alloc.n_blocks == 2
    assert alloc.free_blocks == 2


def test_allocator_shrink_releases_pool_bytes():
    pool = MemoryPool(capacity=1000)
    alloc = BlockAllocator(n_blocks=8, block_bytes=100, pool=pool)
    alloc.resize(3)
    assert pool.used == 300


def test_allocator_resize_noop():
    alloc = BlockAllocator(n_blocks=4, block_bytes=100)
    alloc.resize(4)
    assert alloc.n_blocks == 4


def test_allocator_validation():
    with pytest.raises(ValueError):
        BlockAllocator(n_blocks=-1, block_bytes=100)
    with pytest.raises(ValueError):
        BlockAllocator(n_blocks=1, block_bytes=0)
    alloc = BlockAllocator(n_blocks=1, block_bytes=1)
    with pytest.raises(ValueError):
        alloc.allocate(-1)
    with pytest.raises(ValueError):
        alloc.resize(-1)


@given(
    ops=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=30),
)
@settings(max_examples=100, deadline=None)
def test_allocator_never_hands_out_duplicate_blocks(ops):
    """Property: live blocks are always distinct, counts always consistent."""
    alloc = BlockAllocator(n_blocks=12, block_bytes=1)
    live: list[list[int]] = []
    for want in ops:
        if alloc.can_allocate(want):
            live.append(alloc.allocate(want))
        elif live:
            alloc.free(live.pop(0))
        flattened = [b for group in live for b in group]
        assert len(flattened) == len(set(flattened))
        assert alloc.used_blocks + alloc.free_blocks == alloc.n_blocks
        assert alloc.used_blocks == len(flattened)


# ---------------------------------------------------------------------------
# PagedKVCache
# ---------------------------------------------------------------------------
def make_cache(n_blocks=64, block_tokens=16, model=LLAMA2_13B):
    alloc = BlockAllocator(
        n_blocks=n_blocks, block_bytes=model.kv_bytes_per_token * block_tokens
    )
    return PagedKVCache(model, alloc, block_tokens=block_tokens)


def test_cache_block_size_must_match():
    alloc = BlockAllocator(n_blocks=4, block_bytes=123)
    with pytest.raises(ValueError):
        PagedKVCache(LLAMA2_13B, alloc, block_tokens=16)


def test_cache_admit_and_release():
    cache = make_cache()
    seq = cache.admit(1, tokens=40)
    assert len(seq.blocks) == 3  # ceil(40/16)
    cache.release(1)
    assert cache.allocator.free_blocks == 64


def test_cache_admit_duplicate_rejected():
    cache = make_cache()
    cache.admit(1, tokens=10)
    with pytest.raises(ValueError):
        cache.admit(1, tokens=10)


def test_cache_append_allocates_at_block_boundary():
    cache = make_cache()
    cache.admit(1, tokens=16)
    cache.join(1)
    assert len(cache.sequences[1].blocks) == 1
    assert cache.step() is None  # 17th token needs a second block
    assert len(cache.sequences[1].blocks) == 2
    assert cache.step() is None  # 18th token does not
    assert len(cache.sequences[1].blocks) == 2
    assert cache.sequences[1].tokens == 18


def test_step_stops_at_first_sequence_without_a_block():
    cache = make_cache(n_blocks=4)
    cache.admit(1, tokens=16)  # at a block boundary
    cache.admit(2, tokens=16)  # at a block boundary
    cache.admit(3, tokens=7)
    cache.admit(4, tokens=16)  # fills the last free block
    for seq_id in (1, 2, 3, 4):
        cache.join(seq_id)
    cache.release(4)  # one block free: sequence 1 takes it
    needy = cache.sequences[2]
    blocks = list(needy.blocks)
    assert cache.step() == 2
    assert cache.sequences[1].tokens == 17
    assert needy.tokens == 16 and needy.blocks == blocks  # untouched
    assert cache.sequences[3].tokens == 7  # not reached
    cache.release(1)  # frees two blocks; the step resumes at 2
    assert cache.step() is None
    assert needy.tokens == 17 and len(needy.blocks) == 2
    assert cache.sequences[3].tokens == 8


def test_step_releases_last_and_reuses_its_block():
    cache = make_cache(n_blocks=2)
    cache.admit(1, tokens=10)
    cache.admit(2, tokens=16)  # its next token needs a block
    cache.join(1)
    cache.join(2)
    freed = cache.sequences[1].blocks[0]
    assert cache.allocator.free_blocks == 0
    assert cache.step(last=[1]) is None
    assert 1 not in cache.sequences
    assert cache.sequences[2].blocks[-1] == freed
    assert cache.sequences[2].tokens == 17


def test_step_pauses_through_a_sequence():
    cache = make_cache(n_blocks=8)
    for seq_id in (1, 2, 3):
        cache.admit(seq_id, tokens=16)
        cache.join(seq_id)
    assert cache.step(through=2) is None
    assert [cache.sequences[s].tokens for s in (1, 2, 3)] == [17, 17, 16]
    cache.admit(4, tokens=1)
    with pytest.raises(RuntimeError):
        cache.join(4)  # no joining an open step
    assert cache.step() is None
    assert [cache.sequences[s].tokens for s in (1, 2, 3)] == [17, 17, 17]
    assert [len(cache.sequences[s].blocks) for s in (1, 2, 3)] == [2, 2, 2]


def test_join_rejects_a_swapped_sequence():
    cache = make_cache()
    cache.admit(1, tokens=4)
    cache.admit(2, tokens=4)
    cache.join(1)
    cache.join(2)
    assert cache.step() is None
    assert cache.swap_out(2) == LLAMA2_13B.kv_bytes(5)  # leaves the batch
    with pytest.raises(AllocationError):
        cache.join(2)
    assert cache.step() is None
    assert cache.sequences[1].tokens == 6
    assert cache.sequences[2].tokens == 5  # swapped: not grown
    with pytest.raises(ValueError):
        cache.join(1)  # already in the batch


def test_cache_can_admit_respects_capacity():
    cache = make_cache(n_blocks=4)
    assert cache.can_admit(64)
    assert not cache.can_admit(65)


def test_cache_swap_out_frees_blocks():
    cache = make_cache(n_blocks=4)
    cache.admit(1, tokens=64)
    assert cache.allocator.free_blocks == 0
    nbytes = cache.swap_out(1)
    assert nbytes == LLAMA2_13B.kv_bytes(64)
    assert cache.allocator.free_blocks == 4
    assert cache.sequences[1].residency.value == "swapped"


def test_cache_swap_in_restores():
    cache = make_cache()
    cache.admit(1, tokens=32)
    cache.swap_out(1)
    nbytes = cache.swap_in(1)
    assert nbytes == LLAMA2_13B.kv_bytes(32)
    assert cache.sequences[1].is_resident
    assert len(cache.sequences[1].blocks) == 2


def test_cache_swapped_sequence_operations_rejected():
    cache = make_cache()
    cache.admit(1, tokens=16)
    cache.swap_out(1)
    with pytest.raises(AllocationError):
        cache.join(1)
    with pytest.raises(AllocationError):
        cache.swap_out(1)
    cache.swap_in(1)
    with pytest.raises(AllocationError):
        cache.swap_in(1)


def test_cache_release_swapped_sequence():
    cache = make_cache()
    cache.admit(1, tokens=16)
    cache.swap_out(1)
    cache.release(1)
    assert 1 not in cache.sequences
    assert cache.allocator.free_blocks == 64


def test_cache_resident_tokens():
    cache = make_cache()
    cache.admit(1, tokens=10)
    cache.admit(2, tokens=20)
    cache.swap_out(2)
    resident = [s for s in cache.sequences.values() if s.is_resident]
    assert [s.seq_id for s in resident] == [1]
    assert sum(s.tokens for s in resident) == 10
    assert not cache.sequences[2].is_resident


def test_blocks_for_rounding():
    cache = make_cache()
    assert cache.blocks_for(0) == 0
    assert cache.blocks_for(1) == 1
    assert cache.blocks_for(16) == 1
    assert cache.blocks_for(17) == 2
    with pytest.raises(ValueError):
        cache.blocks_for(-1)


@given(
    seqs=st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=20)
)
@settings(max_examples=50, deadline=None)
def test_cache_swap_roundtrip_preserves_tokens(seqs):
    """Property: swap out + swap in preserves every sequence's token count."""
    cache = make_cache(n_blocks=1000, model=MISTRAL_7B)
    for i, tokens in enumerate(seqs):
        cache.admit(i, tokens=tokens)
    for i in range(len(seqs)):
        cache.swap_out(i)
    for i, tokens in enumerate(seqs):
        cache.swap_in(i)
        assert cache.sequences[i].tokens == tokens
    assert all(s.is_resident for s in cache.sequences.values())
    assert sum(s.tokens for s in cache.sequences.values()) == sum(seqs)
