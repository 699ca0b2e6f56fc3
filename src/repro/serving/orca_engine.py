"""Orca-style serving: iteration-level batching without paged KV (§9).

Orca introduced batching new prompts into ongoing iterations; vLLM kept
that scheduler and added paged attention.  The operative difference is
memory: Orca-era engines reserve each sequence's KV for its *maximum
possible length* up front (contiguous allocation), so memory admission
is gated by worst-case sizes and most of the reservation sits unused.
This engine reproduces that: the same continuous-batching loop,
running batch and windowed decode step as :class:`VLLMEngine`, but
admission charges ``prompt + max_new_tokens`` immediately and
generation never allocates again.  Its requests take their seats from
the KV cache's step clock without joining the KV batch, so no step
crosses a block (every window runs to its completion or horizon) and a
step only releases the reservations its token completes.

Comparing it with vLLM on the same burst shows paged attention's
concurrency win — and why AQUA builds on the paged engine.
"""

from __future__ import annotations

from repro.serving.request import Request
from repro.serving.vllm_engine import VLLMEngine


class OrcaEngine(VLLMEngine):
    """Continuous batching with worst-case (max-length) KV reservations."""

    def __init__(self, gpu, server, model, name: str = "orca", **kwargs) -> None:
        super().__init__(gpu, server, model, name=name, **kwargs)

    def _admit_tokens(self, request: Request) -> int:
        # Reserve for the worst case; blocks never grow afterwards.
        return request.prompt_tokens + request.max_new_tokens

    def _join(self, request: Request) -> None:
        # The reservation already covers every token: the KV never grows.
        self._seat(request, self.kv.clock.next_position())
