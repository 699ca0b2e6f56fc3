"""FlexGen-style offloaded long-prompt inference.

FlexGen targets throughput on prompts whose inference context exceeds
GPU memory: the KV cache lives *off* the GPU and is streamed through it
layer-by-layer at every decode step, overlapping I/O with compute via
double buffering.  Each generated token therefore re-reads the entire
KV cache over the offload path, which makes the engine bandwidth-bound:
over PCIe to host DRAM it crawls, over NVLink to a producer GPU's HBM
(AQUA TENSORS) it speeds up by roughly the bandwidth ratio — the 6x of
Figure 7.

The engine always allocates its context through AQUA-LIB; without a
paired producer the library falls back to DRAM, which *is* the FlexGen
baseline ("just like previous work", §3).
"""

from __future__ import annotations

from typing import Generator

from repro.aqua.tensor import TensorLostError
from repro.serving.engine import LLMEngineBase
from repro.serving.request import Request


class FlexGenEngine(LLMEngineBase):
    """Sequential long-prompt engine with streamed, offloaded KV.

    Parameters (beyond :class:`LLMEngineBase`)
    ----------
    respond_every:
        Generated tokens between ``aqua.respond()`` calls — the control
        loop boundary where AQUA may migrate the context (§B).
    """

    def __init__(
        self,
        gpu,
        server,
        model,
        respond_every: int = 16,
        alloc_horizon_tokens: int = 16384,
        name: str = "flexgen",
        **kwargs,
    ) -> None:
        super().__init__(gpu, server, model, name=name, **kwargs)
        if self.aqua_lib is None:
            raise ValueError("FlexGenEngine requires an aqua_lib (DRAM fallback is automatic)")
        if alloc_horizon_tokens < 1:
            raise ValueError(f"alloc_horizon_tokens must be >= 1, got {alloc_horizon_tokens}")
        self.respond_every = respond_every
        #: KV buffers are sized for at most this many generated tokens
        #: (FlexGen pre-allocates per-layer KV buffers of bounded length);
        #: open-ended duration-measured jobs stop here.
        self.alloc_horizon_tokens = alloc_horizon_tokens

    # ------------------------------------------------------------------
    def _stream_pieces(self) -> int:
        """FlexGen stores per-layer K and V tensors: 2 per layer."""
        return 2 * self.model.n_layers

    # A decode step overlaps two legs.  The compute leg is a kernel
    # launched first (``GPU.launch``, no process); the io leg runs
    # inline in the engine process, which then waits for the kernel's
    # end.  Each leg yields its finish time, so the step can be
    # attributed to whichever bound it.  Streaming the weights through
    # HBM dominates single-sequence decode compute; attention math runs
    # against the KV window that is being DMA'd in concurrently.
    def _io_step(self, tensor, nbytes: int) -> Generator:
        yield from tensor.fetch(nbytes=nbytes, pieces=self._stream_pieces())
        return self.env.now

    def _mark_bound(self, request: Request, io_done: float, compute_done: float) -> None:
        """Attribute the overlapped step to whichever leg finished last:
        the fetch stream, or the GPU."""
        bound = "offload_fetch" if io_done >= compute_done else "decode_hbm"
        self.attr_mark([request], bound)

    def _infer(self, request: Request) -> Generator:
        budget = min(request.max_new_tokens, self.alloc_horizon_tokens)
        max_total = request.prompt_tokens + budget
        self.attr_mark([request], "queueing")
        tensor = self.aqua_lib.to_responsive_tensor(
            self.model.kv_bytes(max_total),
            pieces=self._stream_pieces(),
            tag=f"flexgen-ctx-{request.req_id}",
            ctx=request.req_id,
        )
        try:
            # Prefill: compute the context, stream its KV out to the tensor.
            # On a first run the context is just the prompt; a re-queued
            # request (fault recovery) recomputes everything generated so
            # far — progress is kept, the lost KV is re-derived.
            context_tokens = min(request.total_tokens, max_total - 1)
            prefill = self.model.prefill_time(self.gpu.spec, context_tokens)
            started = self.env.now
            yield self.gpu.launch(prefill)
            self.trace_span("prefill", started, tokens=context_tokens)
            self.attr_mark([request], "prefill_compute")
            self.flow_step([request], time=started)
            yield from tensor.flush(
                nbytes=self.model.kv_bytes(context_tokens),
                pieces=self._stream_pieces(),
            )
            self.attr_mark([request], "offload_fetch")
            self._finish_tokens([request])

            # Decode: every token re-reads the whole context (plus writes
            # one token of fresh KV, folded into the same stream).
            step = self.model.decode_step_time(self.gpu.spec, 1, 0)
            while not request.done and request.total_tokens < max_total:
                io_bytes = self.model.kv_bytes(request.total_tokens + 1)
                compute = self.gpu.launch(step)
                io_done = yield from self._io_step(tensor, io_bytes)
                compute_done = yield compute
                self._mark_bound(request, io_done, compute_done)
                self._finish_tokens([request])
                if request.generated_tokens % self.respond_every == 0:
                    yield from self.aqua_lib.respond()
                    self.attr_mark([request], "offload_fetch")
        finally:
            tensor.free()

    def _serve(self) -> Generator:
        while True:
            if not self.waiting:
                yield from self._wait_for_arrival()
                yield from self.aqua_lib.respond()
                continue
            request = self.waiting.popleft()
            self.running = [request]
            try:
                yield from self._infer(request)
            except TensorLostError:
                # The device holding this request's context failed: the
                # KV is gone, the request is not.  Re-queue it; the next
                # run recomputes the context at whatever location the
                # coordinator now assigns (DRAM while the GPU is down).
                self.requeue(request)
            self.running = []
            self.iteration += 1
