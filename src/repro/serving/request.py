"""Inference requests and their per-request metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from operator import attrgetter
from typing import Optional

from repro.models.lora import LoRAAdapter

_REQUEST_IDS = count()


@dataclass(eq=False)
class Request:
    """One inference query against a hosted model.

    Requests compare and hash by identity: two requests with equal
    fields are still two requests, so ``running.remove(r)`` and
    ``r in batch`` always mean *this* request.

    Attributes
    ----------
    arrival_time:
        Simulation time the request was submitted.
    prompt_tokens:
        Length of the prompt (drives prefill time and KV size).
    max_new_tokens:
        Tokens to generate before the request completes (taken from the
        dataset's reference response length, as vLLM's benchmarks do).
    adapter:
        Optional LoRA adapter that must be GPU-resident before inference.
    user:
        Optional user identifier (multi-turn chat workloads).
    weight:
        Scheduling weight for weighted-fair scheduling (like a Linux
        nice level): a weight-2 request accrues virtual progress at
        half speed, so it receives roughly twice the service under
        contention.  Plain CFS ignores it.
    """

    arrival_time: float
    prompt_tokens: int
    max_new_tokens: int
    adapter: Optional[LoRAAdapter] = None
    user: Optional[int] = None
    weight: float = 1.0
    req_id: int = field(default_factory=lambda: next(_REQUEST_IDS))

    # Runtime state, owned by the serving engine.
    generated_tokens: int = 0
    first_token_time: Optional[float] = None
    finish_time: Optional[float] = None
    #: Optional simulation event triggered on completion (closed-loop
    #: workloads wait on this to send their next turn).
    on_finish: Optional[object] = None

    def __post_init__(self) -> None:
        if self.prompt_tokens < 1:
            raise ValueError(f"prompt must have >= 1 token, got {self.prompt_tokens}")
        if self.max_new_tokens < 1:
            raise ValueError(
                f"must generate >= 1 token, got {self.max_new_tokens}"
            )
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")

    # ------------------------------------------------------------------
    @property
    def total_tokens(self) -> int:
        """Prompt plus generated tokens (the KV-cache footprint)."""
        return self.prompt_tokens + self.generated_tokens

    @property
    def done(self) -> bool:
        return self.generated_tokens >= self.max_new_tokens

    @property
    def ttft(self) -> Optional[float]:
        """Time to first token: responsiveness (Figure 1a)."""
        if self.first_token_time is None:
            return None
        return self.first_token_time - self.arrival_time

    @property
    def rct(self) -> Optional[float]:
        """Request completion time: throughput (Figure 1b)."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.arrival_time

    def record_token(self, now: float) -> bool:
        """Account one generated token at simulation time ``now``.

        Returns whether this token completed the request.
        """
        if self.first_token_time is None:
            self.first_token_time = now
        self.generated_tokens += 1
        if (
            self.generated_tokens < self.max_new_tokens
            or self.finish_time is not None
        ):
            return False
        self.finish_time = now
        if self.on_finish is not None and not self.on_finish.triggered:
            self.on_finish.succeed(self)
        return True

    def __repr__(self) -> str:
        return (
            f"<Request #{self.req_id} prompt={self.prompt_tokens} "
            f"gen={self.generated_tokens}/{self.max_new_tokens}>"
        )


_PROMPT_TOKENS = attrgetter("prompt_tokens")
_GENERATED_TOKENS = attrgetter("generated_tokens")


def context_tokens(requests) -> int:
    """Summed :attr:`Request.total_tokens` of ``requests`` (a decode
    step's context), without one property call per request."""
    return sum(map(_PROMPT_TOKENS, requests)) + sum(map(_GENERATED_TOKENS, requests))
