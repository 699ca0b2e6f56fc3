"""Fixed-batch serving for compute-bound image and audio generators.

These engines (HuggingFace diffusers for StableDiffusion/SD-XL/
Kandinsky, a PyTorch engine for AudioGen/MusicGen) serve at the batch
size where throughput plateaus (Figure 2) and never need more memory —
they are the natural AQUA memory *producers* of Table 3.  After each
batch the ``batch-informer`` donates whatever HBM is free; donating
costs them almost nothing because transfers barely touch their compute
(Figure 3b).
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Optional, Union

from repro.aqua.informers import EngineStats
from repro.models.audio import AudioModelSpec
from repro.models.diffusion import DiffusionSpec
from repro.serving.metrics import MetricsCollector
from repro.serving.request import Request
from repro.sim import AnyOf

ProducerModel = Union[DiffusionSpec, AudioModelSpec]


class BatchEngine:
    """Serves image/audio requests in fixed-size batches.

    Parameters
    ----------
    gpu, server:
        Placement.
    model:
        A :class:`DiffusionSpec` or :class:`AudioModelSpec`.
    batch_size:
        Samples per batch; defaults to the model's peak-throughput
        batch on this GPU.
    aqua_lib:
        Optional producer-side AQUA-LIB (attach a
        :class:`~repro.aqua.informers.BatchInformer` to it).
    """

    def __init__(
        self,
        gpu,
        server,
        model: ProducerModel,
        batch_size: Optional[int] = None,
        aqua_lib=None,
        name: str = "batch-engine",
    ) -> None:
        self.env = server.env
        self.gpu = gpu
        self.server = server
        self.model = model
        self.aqua_lib = aqua_lib
        self.name = name
        self.batch_size = (
            batch_size
            if batch_size is not None
            else model.peak_throughput_batch(gpu.spec)
        )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        gpu.hbm.reserve(f"{name}:weights", model.weight_bytes)
        gpu.hbm.reserve(
            f"{name}:activations",
            self.batch_size * self._activation_bytes_per_sample(),
        )
        self.metrics = MetricsCollector(name)
        self.waiting: deque[Request] = deque()
        self.batches_run = 0
        self._arrival_event = self.env.event()
        self._process = None

    def _activation_bytes_per_sample(self) -> int:
        if isinstance(self.model, DiffusionSpec):
            return self.model.activation_bytes_per_image
        return self.model.activation_bytes_per_sample

    # ------------------------------------------------------------------
    def submit(self, request: Request) -> None:
        self.waiting.append(request)
        if not self._arrival_event.triggered:
            self._arrival_event.succeed()

    def start(self) -> None:
        if self._process is not None:
            raise RuntimeError(f"{self.name} already started")
        self._process = self.env.process(self._serve())

    # ------------------------------------------------------------------
    def _inform(self) -> None:
        """Producer duty: report free memory after a batch (§B.1)."""
        if self.aqua_lib is None:
            return
        stats = EngineStats(
            now=self.env.now,
            pending_requests=len(self.waiting),
            offerable_bytes=self.gpu.hbm.free,
        )
        delta = self.aqua_lib.inform_stats(stats)
        if delta < 0:
            # The memory is genuinely free HBM: lease it immediately.
            self.aqua_lib.complete_offer(-delta)

    def _serve(self) -> Generator:
        while True:
            if not self.waiting:
                if self._arrival_event.triggered:
                    self._arrival_event = self.env.event()
                yield AnyOf(
                    self.env, [self._arrival_event, self.env.timeout(0.25)]
                )
                self._inform()
                continue
            batch = [
                self.waiting.popleft()
                for _ in range(min(self.batch_size, len(self.waiting)))
            ]
            duration = self.model.batch_time(self.gpu.spec, len(batch))
            yield self.gpu.launch(duration)
            self._complete_batch(batch)

    def _complete_batch(self, batch: list[Request]) -> None:
        """Account a finished batch: one sample per request, then inform."""
        now = self.env.now
        for request in batch:
            request.record_token(now)
            self.metrics.record_completion(request)
        self.metrics.record_token(now, len(batch))
        self.batches_run += 1
        self._inform()

    def __repr__(self) -> str:
        return (
            f"<BatchEngine {self.name} model={self.model.name} "
            f"batch={self.batch_size} waiting={len(self.waiting)}>"
        )
