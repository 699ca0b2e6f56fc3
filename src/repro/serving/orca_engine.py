"""Orca-style serving: iteration-level batching without paged KV (§9).

Orca introduced batching new prompts into ongoing iterations; vLLM kept
that scheduler and added paged attention.  The operative difference is
memory: Orca-era engines reserve each sequence's KV for its *maximum
possible length* up front (contiguous allocation), so memory admission
is gated by worst-case sizes and most of the reservation sits unused.
This engine reproduces that: same continuous-batching loop as
:class:`VLLMEngine`, but admission charges ``prompt + max_new_tokens``
immediately and generation never allocates again.

Comparing it with vLLM on the same burst shows paged attention's
concurrency win — and why AQUA builds on the paged engine.
"""

from __future__ import annotations

from typing import Generator

from repro.serving.request import Request
from repro.serving.vllm_engine import VLLMEngine


class OrcaEngine(VLLMEngine):
    """Continuous batching with worst-case (max-length) KV reservations."""

    def __init__(self, gpu, server, model, name: str = "orca", **kwargs) -> None:
        # Memory is reserved up front, so there is nothing to preempt,
        # and a prefill chunk's fused decode would grow KV past the
        # reservation: refuse both options rather than drop them.
        if kwargs.pop("preemption_mode", "recompute") != "recompute":
            raise ValueError("OrcaEngine reserves KV up front and never preempts")
        if kwargs.pop("chunked_prefill_tokens", None) is not None:
            raise ValueError("OrcaEngine does not support chunked prefill")
        super().__init__(gpu, server, model, name=name, **kwargs)

    def _admit_tokens(self, request: Request) -> int:
        # Reserve for the worst case; blocks never grow afterwards.
        return request.prompt_tokens + request.max_new_tokens

    def _join(self, request: Request) -> None:
        # The reservation already covers every token: the KV never grows.
        self._seat(request)

    def _decode_step(self) -> Generator:
        running = self.running
        n = len(running)
        step = self.model.decode_step_time(self.gpu.spec, n, self._context)
        started = self.env.now
        yield from self.gpu.compute_op(step)
        self.trace_span("decode", started, batch=n)
        if self.telemetry is not None:
            self.telemetry.decode_batch(self.name, n)
            self.attr_mark(running, "decode_hbm")
        # No allocation, no possibility of mid-generation OOM (that is
        # the one thing worst-case reservation buys).
        self.clock.steps += 1
        done = self._finishing()
        self._grant(n, done)
        for request in done:
            self.kv.release(request.req_id)
