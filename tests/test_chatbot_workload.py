"""Direct unit tests of the chatbot closed-loop workload."""

import pytest

from repro.sim import Environment
from repro.workloads import ChatbotWorkload
from repro.workloads.arrivals import closed_loop_user
from repro.serving.request import Request


class InstantEngine:
    """A stub engine that completes every request after a fixed delay."""

    def __init__(self, env, delay=1.0):
        self.env = env
        self.delay = delay
        self.received: list[Request] = []

    def submit(self, request: Request) -> None:
        self.received.append(request)

        def finish(env):
            yield env.timeout(self.delay)
            request.generated_tokens = request.max_new_tokens - 1
            request.record_token(env.now)

        self.env.process(finish(self.env))


def test_workload_validation():
    with pytest.raises(ValueError):
        ChatbotWorkload(n_users=0)
    with pytest.raises(ValueError):
        ChatbotWorkload(n_users=1, turns=0)


def test_each_user_issues_each_turn():
    env = Environment()
    engine = InstantEngine(env)
    workload = ChatbotWorkload(n_users=5, turns=3, seed=0)
    users = workload.attach(env, engine)
    env.run()
    assert all(u.processed for u in users)
    assert len(engine.received) == 15
    per_user = {}
    for r in engine.received:
        per_user.setdefault(r.user, []).append(r)
    assert set(per_user) == set(range(5))
    assert all(len(reqs) == 3 for reqs in per_user.values())


def test_turns_are_sequential_per_user():
    env = Environment()
    engine = InstantEngine(env, delay=2.0)
    workload = ChatbotWorkload(n_users=2, turns=3, seed=1)
    workload.attach(env, engine)
    env.run()
    per_user = {}
    for r in engine.received:
        per_user.setdefault(r.user, []).append(r)
    for reqs in per_user.values():
        arrivals = [r.arrival_time for r in reqs]
        assert arrivals == sorted(arrivals)
        # Each turn waits for the previous response (>= 2s apart).
        for a, b in zip(arrivals, arrivals[1:]):
            assert b - a >= 2.0


def test_context_accumulates_across_turns():
    env = Environment()
    engine = InstantEngine(env)
    workload = ChatbotWorkload(n_users=1, turns=4, seed=2)
    workload.attach(env, engine)
    env.run()
    prompts = [r.prompt_tokens for r in engine.received]
    # Each turn embeds the whole prior conversation: strictly growing.
    assert prompts == sorted(prompts)
    assert prompts[-1] > prompts[0]
    # Turn t's prompt exceeds turn t-1's prompt + response.
    for prev, nxt in zip(engine.received, engine.received[1:]):
        assert nxt.prompt_tokens >= prev.prompt_tokens + prev.max_new_tokens


def test_closed_loop_user_validation():
    env = Environment()
    engine = InstantEngine(env)
    with pytest.raises(ValueError):
        env.process(
            closed_loop_user(
                env,
                engine,
                lambda turn: Request(0.0, 10, 10),
                turns=0,
                think_time=lambda: 1.0,
            )
        )
        env.run()


@pytest.mark.parametrize("think", [-0.5, float("nan")])
def test_closed_loop_user_rejects_a_bad_think_time(think):
    """A negative or NaN think time raises, naming the value, instead
    of becoming no pause at all."""
    env = Environment()
    engine = InstantEngine(env)
    env.process(
        closed_loop_user(
            env,
            engine,
            lambda turn: Request(0.0, 10, 10),
            turns=2,
            think_time=lambda: think,
        )
    )
    with pytest.raises(ValueError, match=f"got {think}"):
        env.run()
    assert len(engine.received) == 1


def test_workload_deterministic_by_seed():
    def trace(seed):
        env = Environment()
        engine = InstantEngine(env)
        ChatbotWorkload(n_users=3, turns=2, seed=seed).attach(env, engine)
        env.run()
        return [
            (r.user, r.prompt_tokens, r.max_new_tokens) for r in engine.received
        ]

    assert trace(7) == trace(7)
    assert trace(7) != trace(8)
