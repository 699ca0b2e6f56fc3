"""Unit and property tests for simulation resources."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Resource


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    granted = []

    def user(env, name):
        with res.request() as req:
            yield req
            granted.append((name, env.now))
            yield env.timeout(10)

    for name in "abc":
        env.process(user(env, name))
    env.run()
    assert granted == [("a", 0), ("b", 0), ("c", 10)]


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_count_tracks_usage():
    env = Environment()
    res = Resource(env, capacity=3)

    def user(env):
        with res.request() as req:
            yield req
            yield env.timeout(5)

    for _ in range(2):
        env.process(user(env))
    env.run(until=1)
    assert res.count == 2
    env.run()
    assert res.count == 0


def test_resource_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(env, name, start):
        yield env.timeout(start)
        with res.request() as req:
            yield req
            order.append(name)
            yield env.timeout(100)

    env.process(user(env, "first", 0))
    env.process(user(env, "second", 1))
    env.process(user(env, "third", 2))
    env.run()
    assert order == ["first", "second", "third"]


def test_release_unknown_request_is_noop():
    env = Environment()
    res = Resource(env, capacity=1)
    req = res.request()
    env.run()
    res.release(req)
    res.release(req)  # double release must not corrupt state
    assert res.count == 0


def test_cancel_queued_request():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder(env):
        with res.request() as req:
            yield req
            yield env.timeout(10)

    env.process(holder(env))
    env.run(until=1)
    queued = res.request()
    assert not queued.triggered
    queued.cancel()
    env.run()
    assert res.count == 0
    assert not queued.triggered


def test_request_holds_a_free_slot_without_an_event():
    env = Environment()
    res = Resource(env, capacity=1)
    before = env.events_processed
    req = res.request()
    assert res.users == [req]
    assert req.processed and req.ok
    assert env.peek() == float("inf")  # no grant event on the heap
    env.run()
    assert env.events_processed == before


def test_request_queues_fifo_behind_a_holder():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(env, name):
        req = res.request()
        yield req
        order.append((name, env.now))
        yield env.timeout(10)
        res.release(req)

    env.process(user(env, "first"))
    env.process(user(env, "second"))
    env.run(until=1)
    # The first claim holds the slot; the second queued behind it.
    queued = res.queue[0]
    assert not queued.triggered
    env.run()
    assert order == [("first", 0), ("second", 10)]
    assert queued.processed


def test_request_granted_by_release_with_one_event():
    env = Environment()
    res = Resource(env, capacity=1)
    held = res.request()
    queued = res.request()
    assert not queued.triggered and res.queue == [queued]
    res.release(held)
    assert res.users == [queued]
    assert queued.triggered and not queued.processed  # the grant is an event
    before = env.events_processed
    env.run()
    assert queued.processed
    assert env.events_processed == before + 1


def test_queued_request_released_before_grant_is_cancelled():
    env = Environment()
    res = Resource(env, capacity=1)
    held = res.request()
    queued = res.request()
    res.release(queued)
    assert res.queue == []
    res.release(held)
    env.run()
    assert res.count == 0
    assert not queued.triggered


def test_fifo_hand_over_across_staggered_claims():
    """Slots pass in claim order when each claim comes while the one
    before still holds or waits."""
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(env, name, start):
        yield env.timeout(start)
        req = res.request()
        yield req
        order.append(name)
        yield env.timeout(5)
        res.release(req)

    for i in range(5):
        env.process(user(env, i, 0.5 * i))
    env.run()
    assert order == [0, 1, 2, 3, 4]
    assert res.count == 0 and res.queue == []


@given(
    holds=st.lists(st.floats(min_value=0.01, max_value=10), min_size=1, max_size=20),
    capacity=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=50, deadline=None)
def test_resource_never_exceeds_capacity(holds, capacity):
    """Property: at no point do more than `capacity` users hold the resource."""
    env = Environment()
    res = Resource(env, capacity=capacity)
    max_seen = [0]

    def user(env, hold):
        with res.request() as req:
            yield req
            max_seen[0] = max(max_seen[0], res.count)
            yield env.timeout(hold)

    for hold in holds:
        env.process(user(env, hold))
    env.run()
    assert max_seen[0] <= capacity
    assert res.count == 0


@given(
    delays=st.lists(
        st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=30
    )
)
@settings(max_examples=50, deadline=None)
def test_clock_is_monotonic(delays):
    """Property: observed simulation times never decrease."""
    env = Environment()
    observed = []

    def proc(env, delay):
        yield env.timeout(delay)
        observed.append(env.now)

    def chained(env):
        for delay in delays:
            yield env.timeout(delay)
            observed.append(env.now)

    for delay in delays:
        env.process(proc(env, delay))
    env.process(chained(env))
    env.run()
    assert observed == sorted(observed)
