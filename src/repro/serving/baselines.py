"""Additional offloading baselines from the paper's related work (§9).

* :class:`DeepSpeedEngine` — DeepSpeed ZeRO-Inference-style offloading.
  FlexGen's evaluation found DeepSpeed slower because of its less
  efficient offloading strategy; the operative difference for a
  single-stream long prompt is that its context I/O is *synchronous*
  (no double buffering), so token time is I/O **plus** compute instead
  of their max.  The paper argues AQUA's benefits "can extend to
  Deepspeed" — pairing this engine with a producer shows exactly that.

* :class:`UVMEngine` — CUDA Unified Virtual Memory as the offload
  mechanism.  The paper notes UVM's page-fault handler is "another
  abstraction AQUA can rely on", but it is a tight closed-source
  driver integration; mechanically, oversubscribed memory migrates on
  demand in small pages, so every context read pays per-page fault
  overheads instead of one large explicit copy.  This engine models
  that: 2 MiB pages, a fault service cost per page, and page-sized
  transfers that never reach the link's large-transfer bandwidth.
"""

from __future__ import annotations

import math
from typing import Generator

from repro.serving.flexgen_engine import FlexGenEngine

#: UVM migrates in 2 MiB large pages on modern drivers.
UVM_PAGE_BYTES = 2 * 1024 * 1024

#: CPU-side cost to service one GPU page fault (driver round trip).
UVM_FAULT_SECONDS = 25e-6


class DeepSpeedEngine(FlexGenEngine):
    """ZeRO-Inference-style long-prompt engine: synchronous context I/O."""

    def __init__(self, gpu, server, model, name: str = "deepspeed", **kwargs) -> None:
        super().__init__(gpu, server, model, name=name, **kwargs)

    def _infer(self, request) -> Generator:
        # Identical to FlexGen except decode does not overlap the KV
        # stream with compute: the fetch completes, then the kernels run.
        budget = min(request.max_new_tokens, self.alloc_horizon_tokens)
        max_total = request.prompt_tokens + budget
        tensor = self.aqua_lib.to_responsive_tensor(
            self.model.kv_bytes(max_total),
            pieces=self._stream_pieces(),
            tag=f"deepspeed-ctx-{request.req_id}",
        )
        try:
            prefill = self.model.prefill_time(self.gpu.spec, request.prompt_tokens)
            yield self.gpu.launch(prefill)
            yield from tensor.flush(
                nbytes=self.model.kv_bytes(request.prompt_tokens),
                pieces=self._stream_pieces(),
            )
            self._finish_tokens([request])
            step = self.model.decode_step_time(self.gpu.spec, 1, 0)
            while not request.done and request.total_tokens < max_total:
                io_bytes = self.model.kv_bytes(request.total_tokens + 1)
                yield from self._io_step(tensor, io_bytes)
                yield self.gpu.launch(step)
                self._finish_tokens([request])
                if request.generated_tokens % self.respond_every == 0:
                    yield from self.aqua_lib.respond()
        finally:
            tensor.free()


class UVMEngine(FlexGenEngine):
    """Long-prompt engine whose context lives in UVM-managed memory.

    The KV cache is oversubscribed: each decode step's context reads
    fault pages in on demand, paying a driver round trip per 2 MiB page
    plus a page-sized transfer — which is why UVM never sees NVLink's
    large-transfer bandwidth even when the backing store is a peer GPU.
    """

    def __init__(self, gpu, server, model, name: str = "uvm", **kwargs) -> None:
        super().__init__(gpu, server, model, name=name, **kwargs)
        self.page_faults = 0

    def _io_step(self, tensor, nbytes: int) -> Generator:
        if nbytes > tensor.nbytes:
            raise ValueError(
                f"tensor {tensor.tag}: read of {nbytes} bytes exceeds "
                f"its {tensor.nbytes} bytes"
            )
        pages = max(1, math.ceil(nbytes / UVM_PAGE_BYTES))
        self.page_faults += pages
        # Driver fault servicing (serialized on the CPU)...
        yield self.env.timeout(pages * UVM_FAULT_SECONDS)
        # ...then page-granular migrations: one piece per page, so the
        # per-transfer link latency is paid thousands of times.  The
        # page granularity is fixed by the driver — AQUA's gather
        # kernels cannot help here, so this bypasses the AQUA data path
        # and issues the raw page-sized transfers.
        yield from self.server.transfer(tensor.device, self.gpu, nbytes, pieces=pages)
        tensor.fetch_count += 1
        return self.env.now
