"""Multi-turn chatbot workload (§8, Figure 13).

The paper simulates 25 chatbot users: each issues one prompt, waits for
the full response, then re-issues after a Poisson-distributed pause.
Run for several turns this produces the saw-tooth load pattern of
Figure 13 — a synchronized burst at the start of every turn.
"""

from __future__ import annotations

import numpy as np

from repro.serving.request import Request
from repro.sim import Environment
from repro.workloads.arrivals import closed_loop_user
from repro.workloads.codesummary import CODE_PROMPT, CODE_RESPONSE
from repro.workloads.sharegpt import ShareGPTSampler


class ChatbotWorkload:
    """Closed-loop chat users driving one engine.

    Parameters
    ----------
    n_users:
        Concurrent chatbot users (the paper uses 25).
    turns:
        Prompts per user (Figure 13 shows 4).
    think_time_mean:
        Mean of the exponential pause between a response and the user's
        next message.
    """

    def __init__(
        self,
        n_users: int = 25,
        turns: int = 4,
        think_time_mean: float = 2.0,
        seed: int = 0,
    ) -> None:
        if n_users < 1 or turns < 1:
            raise ValueError("n_users and turns must be >= 1")
        self.n_users = n_users
        self.turns = turns
        self.think_time_mean = think_time_mean
        self.seed = seed

    def attach(self, env: Environment, engine) -> list:
        """Spawn one closed-loop process per user; returns the processes."""
        processes = []
        for user in range(self.n_users):
            # The paper's chatbot runs on CodeLlama-34B: turns carry code
            # context, so prompts are long enough to pressure KV memory.
            sampler = ShareGPTSampler(
                seed=self.seed * 10_000 + user,
                prompt=CODE_PROMPT,
                response=CODE_RESPONSE,
            )
            rng = np.random.default_rng(self.seed * 20_000 + user)
            state: dict = {"last": None}

            def make_request(turn: int, sampler=sampler, state=state) -> Request:
                prompt_tokens, response_tokens = sampler.sample()
                # Each turn re-sends the whole conversation so far (chat
                # context accumulates), which is what makes later turns
                # heavy on KV memory.
                last = state["last"]
                if last is not None:
                    prompt_tokens += last.total_tokens
                request = Request(
                    arrival_time=0.0,  # overwritten at submission
                    prompt_tokens=prompt_tokens,
                    max_new_tokens=response_tokens,
                )
                state["last"] = request
                return request

            processes.append(
                env.process(
                    closed_loop_user(
                        env,
                        engine,
                        make_request,
                        turns=self.turns,
                        think_time=lambda rng=rng: float(
                            rng.exponential(self.think_time_mean)
                        ),
                        user=user,
                    )
                )
            )
        return processes
