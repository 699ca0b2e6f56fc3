"""Tests for AQUA-PLACER: the MILP, stable matching and greedy fallback."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aqua import AquaPlacer, ModelInstance, PlacementError, stable_match
from repro.hardware.specs import GiB


def producer(name, gib):
    return ModelInstance(name=name, model=name, memory_bytes=int(gib * GiB))


def consumer(name, gib):
    return ModelInstance(name=name, model=name, memory_bytes=-int(gib * GiB))


# ---------------------------------------------------------------------------
# The motivating example (Figure 4)
# ---------------------------------------------------------------------------
def test_fig4_colocation():
    """Two LLMs + two vision models on two 2-GPU servers must be split
    one consumer + one producer per server, never two LLMs together."""
    instances = [
        consumer("llm-0", 20),
        consumer("llm-1", 20),
        producer("vision-0", 30),
        producer("vision-1", 30),
    ]
    placer = AquaPlacer(n_servers=2, gpus_per_server=2)
    placement = placer.place(instances)
    for s in (0, 1):
        here = placement.models_on_server(s)
        assert len(here) == 2
        kinds = {name.split("-")[0] for name in here}
        assert kinds == {"llm", "vision"}
    assert len(placement.pairs) == 2
    assert not placement.unmatched_consumers(instances)


def test_every_consumer_matched_when_enough_producers():
    instances = [
        consumer("c0", 15),
        consumer("c1", 25),
        consumer("c2", 10),
        producer("p0", 30),
        producer("p1", 40),
        producer("p2", 20),
    ]
    placer = AquaPlacer(n_servers=3, gpus_per_server=2)
    placement = placer.place(instances)
    assert not placement.unmatched_consumers(instances)
    # One producer is paired with at most one consumer by design (§4).
    producers_used = [p for _, p in placement.pairs]
    assert len(producers_used) == len(set(producers_used))


def test_gpu_slots_unique():
    instances = [consumer(f"c{i}", 10) for i in range(4)] + [
        producer(f"p{i}", 20) for i in range(4)
    ]
    placer = AquaPlacer(n_servers=4, gpus_per_server=2)
    placement = placer.place(instances)
    slots = list(placement.gpu_of.values())
    assert len(slots) == len(set(slots))
    for server, gpu in slots:
        assert 0 <= server < 4
        assert 0 <= gpu < 2


def test_memory_balance_objective():
    """The MILP balances memory: big producers spread across servers."""
    instances = [
        producer("p-big", 60),
        producer("p-small", 20),
        consumer("c-big", 50),
        consumer("c-small", 15),
    ]
    placer = AquaPlacer(n_servers=2, gpus_per_server=2)
    placement = placer.place(instances)
    # The big consumer should sit with the big producer.
    assert placement.server_of["c-big"] == placement.server_of["p-big"]
    assert placement.server_of["c-small"] == placement.server_of["p-small"]


def test_too_many_models_rejected():
    placer = AquaPlacer(n_servers=1, gpus_per_server=2)
    with pytest.raises(PlacementError):
        placer.place([consumer(f"c{i}", 10) for i in range(3)])


def test_duplicate_names_rejected():
    placer = AquaPlacer(n_servers=2, gpus_per_server=2)
    with pytest.raises(PlacementError):
        placer.place([consumer("x", 10), producer("x", 10)])


def test_empty_input():
    placer = AquaPlacer(n_servers=2, gpus_per_server=2)
    placement = placer.place([])
    assert placement.server_of == {}
    assert placement.pairs == []


def test_invalid_cluster_dimensions():
    with pytest.raises(ValueError):
        AquaPlacer(n_servers=0, gpus_per_server=2)
    with pytest.raises(ValueError):
        AquaPlacer(n_servers=1, gpus_per_server=2, solver="quantum")


def test_solve_time_recorded():
    placer = AquaPlacer(n_servers=2, gpus_per_server=2)
    placement = placer.place([consumer("c0", 10), producer("p0", 20)])
    assert placement.solve_seconds > 0


def test_placement_names_the_solver_that_produced_it():
    """A MILP whose time budget expires with no incumbent falls back to
    the greedy solver, and the placement says so."""
    from types import SimpleNamespace
    from unittest import mock

    instances = [consumer("c0", 10), producer("p0", 20)]
    placer = AquaPlacer(n_servers=2, gpus_per_server=2)
    assert placer.place(instances).solver == "milp"
    expired = SimpleNamespace(success=False, x=None, fun=None, message="Time limit reached")
    with mock.patch("scipy.optimize.milp", return_value=expired):
        placement = placer.place(instances)
    assert placement.solver == "greedy"
    assert placement.pairs == [("c0", "p0")]


# ---------------------------------------------------------------------------
# Greedy solver
# ---------------------------------------------------------------------------
def test_greedy_matches_milp_on_easy_case():
    instances = [
        consumer("llm-0", 20),
        consumer("llm-1", 20),
        producer("vision-0", 30),
        producer("vision-1", 30),
    ]
    greedy = AquaPlacer(n_servers=2, gpus_per_server=2, solver="greedy").place(instances)
    for s in (0, 1):
        kinds = {name.split("-")[0] for name in greedy.models_on_server(s)}
        assert kinds == {"llm", "vision"}
    assert len(greedy.pairs) == 2


def test_greedy_capacity_respected():
    instances = [consumer(f"c{i}", 10) for i in range(3)] + [
        producer(f"p{i}", 20) for i in range(3)
    ]
    placement = AquaPlacer(n_servers=3, gpus_per_server=2, solver="greedy").place(
        instances
    )
    for s in range(3):
        assert len(placement.models_on_server(s)) <= 2


# ---------------------------------------------------------------------------
# Stable matching
# ---------------------------------------------------------------------------
def test_stable_match_best_fit():
    consumers = [consumer("c0", 10)]
    producers = [producer("p-big", 50), producer("p-fit", 12)]
    pairs = stable_match(consumers, producers)
    assert pairs == [("c0", "p-fit")]


def test_stable_match_prefers_largest_deficit():
    consumers = [consumer("c-small", 5), consumer("c-big", 40)]
    producers = [producer("p0", 45)]
    pairs = stable_match(consumers, producers)
    assert ("c-big", "p0") in pairs
    assert len(pairs) == 1


def test_stable_match_insufficient_producer_still_matched():
    """A producer short of the full deficit still beats DRAM-only."""
    consumers = [consumer("c0", 40)]
    producers = [producer("p0", 10)]
    assert stable_match(consumers, producers) == [("c0", "p0")]


def test_stable_match_empty_inputs():
    assert stable_match([], [producer("p0", 10)]) == []
    assert stable_match([consumer("c0", 10)], []) == []


def test_stable_match_no_producer_reuse():
    consumers = [consumer(f"c{i}", 10 + i) for i in range(4)]
    producers = [producer(f"p{i}", 20) for i in range(2)]
    pairs = stable_match(consumers, producers)
    assert len(pairs) == 2
    used = [p for _, p in pairs]
    assert len(used) == len(set(used))


@given(
    n_consumers=st.integers(min_value=0, max_value=6),
    n_producers=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=999),
)
@settings(max_examples=60, deadline=None)
def test_stable_match_is_stable(n_consumers, n_producers, seed):
    """Property: no blocking pair exists in the produced matching."""
    import random

    rng = random.Random(seed)
    consumers = [consumer(f"c{i}", rng.randint(1, 60)) for i in range(n_consumers)]
    producers = [producer(f"p{i}", rng.randint(1, 60)) for i in range(n_producers)]
    pairs = stable_match(consumers, producers)
    matched_c = {c for c, _ in pairs}
    matched_p = {p for _, p in pairs}
    # Everyone who can be matched is matched (the market clears):
    assert len(pairs) == min(n_consumers, n_producers)
    # All names valid and unique:
    assert matched_c <= {c.name for c in consumers}
    assert matched_p <= {p.name for p in producers}
    assert len(matched_c) == len(pairs)
    assert len(matched_p) == len(pairs)


@given(
    n_pairs=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=999),
)
@settings(max_examples=30, deadline=None)
def test_milp_placement_constraints_hold(n_pairs, seed):
    """Property: MILP output satisfies Algorithm 1's hard constraints."""
    import random

    rng = random.Random(seed)
    instances = []
    for i in range(n_pairs):
        instances.append(consumer(f"c{i}", rng.randint(5, 40)))
        instances.append(producer(f"p{i}", rng.randint(5, 40)))
    placer = AquaPlacer(n_servers=n_pairs, gpus_per_server=2)
    placement = placer.place(instances)
    # (1) every model placed exactly once
    assert set(placement.server_of) == {m.name for m in instances}
    # (2) at most G models per server
    for s in range(n_pairs):
        assert len(placement.models_on_server(s)) <= 2
    # pairs are intra-server
    for c, p in placement.pairs:
        assert placement.server_of[c] == placement.server_of[p]
