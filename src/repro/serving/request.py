"""Inference requests and their per-request metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Optional

from repro.models.lora import LoRAAdapter

_REQUEST_IDS = count()


@dataclass(eq=False, slots=True)
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
    generated_tokens:
        Tokens generated so far, exact for any reader at any time.  A
        request seated in an engine's running batch (vLLM, Orca or CFS)
        is *clocked in* (:meth:`clock_in`): its count is read off the
        step clock of the engine's KV cache
        (:class:`~repro.memory.kv_cache.StepClock`), so a decode step
        counts every running request's token without visiting it.  The
        count is folded back into a plain field when the request leaves
        the batch (:meth:`clock_out`).
    """

    arrival_time: float
    prompt_tokens: int
    max_new_tokens: int
    adapter: Optional[LoRAAdapter] = None
    user: Optional[int] = None
    weight: float = 1.0
    req_id: int = field(default_factory=lambda: next(_REQUEST_IDS))

    # Runtime state, owned by the serving engine.
    first_token_time: Optional[float] = None
    finish_time: Optional[float] = None
    #: Optional simulation event triggered on completion (closed-loop
    #: workloads wait on this to send their next turn).
    on_finish: Optional[object] = None
    #: Position in the engine's running batch while clocked in.
    seat: Optional[int] = field(default=None, init=False)
    #: Tokens generated; while clocked in, the base the clock adds to.
    _generated: int = field(default=0, init=False, repr=False)
    _clock: Optional[object] = field(default=None, init=False, repr=False)

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
    def generated_tokens(self) -> int:
        clock = self._clock
        if clock is None:
            return self._generated
        return clock.count(self._generated, self.seat)

    @generated_tokens.setter
    def generated_tokens(self, value: int) -> None:
        clock = self._clock
        self._generated = value if clock is None else value - clock.count(0, self.seat)

    def clock_in(self, clock, seat: int) -> None:
        """Count this request's tokens off ``clock`` from now on, one
        per step, as the member of its batch at position ``seat``."""
        generated = self.generated_tokens
        self._clock, self.seat = clock, seat
        self.generated_tokens = generated

    def clock_out(self) -> None:
        """Leave the clock, keeping the count reached."""
        self._generated = self.generated_tokens
        self._clock = self.seat = None

    @property
    def total_tokens(self) -> int:
        """Prompt plus generated tokens (the KV-cache footprint)."""
        # Off a clock, read the field directly: every engine reads this
        # and ``done`` per token.
        if self._clock is None:
            return self.prompt_tokens + self._generated
        return self.prompt_tokens + self.generated_tokens

    @property
    def done(self) -> bool:
        if self._clock is None:
            return self._generated >= self.max_new_tokens
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
        self._generated += 1  # one more, on or off a clock
        if self.generated_tokens < self.max_new_tokens or self.finish_time is not None:
            return False
        self.finish(now)
        return True

    def record_tokens(self, times) -> None:
        """Account one generated token at each of ``times``, none of
        which may complete the request (a decode window stamps its last
        token one at a time)."""
        n = len(times)
        if not n:
            return
        if self.finish_time is None and self.generated_tokens + n >= self.max_new_tokens:
            raise ValueError(
                f"request {self.req_id}: {n} tokens from {self.generated_tokens} "
                f"would complete it at or before t={times[-1]}"
            )
        if self.first_token_time is None:
            self.first_token_time = times[0]
        self._generated += n

    def finish(self, now: float) -> None:
        """Complete the request at ``now``, its last token's time."""
        self.finish_time = now
        if self.on_finish is not None and not self.on_finish.triggered:
            self.on_finish.succeed(self)

    def __repr__(self) -> str:
        return (
            f"<Request #{self.req_id} prompt={self.prompt_tokens} "
            f"gen={self.generated_tokens}/{self.max_new_tokens}>"
        )
