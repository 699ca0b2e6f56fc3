"""Fixed-batch serving for compute-bound image and audio generators.

These engines (HuggingFace diffusers for StableDiffusion/SD-XL/
Kandinsky, a PyTorch engine for AudioGen/MusicGen) serve at the batch
size where throughput plateaus (Figure 2) and never need more memory —
they are the natural AQUA memory *producers* of Table 3.  After each
batch the ``batch-informer`` donates whatever HBM is free; donating
costs them almost nothing because transfers barely touch their compute
(Figure 3b).

An idle engine informs every :data:`INFORM_PERIOD` seconds, but only
while that inform could change something.  Once its last one held and
the next would provably hold again, it sleeps until a request arrives
or a release of its GPU's memory could turn the hold into an offer;
then it rejoins the poll at the tick where the loop would have seen the
change.  The order of events at every instant stays the loop's, and
where the engine cannot prove that order it raises
:class:`UnplaceableWake` instead of guessing.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Optional, Union

from repro.aqua.informers import Action, BatchInformer, EngineStats
from repro.models.audio import AudioModelSpec
from repro.models.diffusion import DiffusionSpec
from repro.serving.engine import watch
from repro.serving.metrics import MetricsCollector
from repro.serving.request import Request
from repro.sim import AnyOf

ProducerModel = Union[DiffusionSpec, AudioModelSpec]

#: Seconds between the informs of an idle engine that is not asleep.
INFORM_PERIOD = 0.25


class UnplaceableWake(RuntimeError):
    """A sleeping engine cannot tell where its poll's timer would sort
    among the other events due at a tick (see
    :meth:`BatchEngine._check_tick_order`)."""


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
        #: As :attr:`LLMEngineBase.domain`.
        self.domain = gpu.domain
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
        #: While asleep: the instant it fell asleep, the event counter
        #: then, the first poll tick not yet passed, and the event that
        #: wakes it at a tick once triggered.
        self._asleep_since: Optional[float] = None
        self._asleep_scheduled = 0
        self._tick = 0.0
        self._wake = None
        if aqua_lib is not None:
            gpu.hbm.on_release.append(self._memory_released)

    def _activation_bytes_per_sample(self) -> int:
        if isinstance(self.model, DiffusionSpec):
            return self.model.activation_bytes_per_image
        return self.model.activation_bytes_per_sample

    # ------------------------------------------------------------------
    def submit(self, request: Request) -> None:
        if request.on_finish is not None:
            watch(self)
        self.waiting.append(request)
        if not self._arrival_event.triggered:
            now = self.env.now
            if (
                self._asleep_since is not None
                and not self._wake.triggered
                and self._next_tick(now) == now
            ):
                self._check_tick_order(now)
            self._arrival_event.succeed()

    def start(self) -> None:
        if self._process is not None:
            raise RuntimeError(f"{self.name} already started")
        self._process = self.env.process(self._serve())
        self._process.domain = self.domain

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

    def _holds(self) -> bool:
        """Whether an inform now would hold.

        Only called for a :class:`BatchInformer`, whose decision is a
        pure function of the GPU's free memory.
        """
        stats = EngineStats(now=self.env.now, offerable_bytes=self.gpu.hbm.free)
        decision = self.aqua_lib.informer.decide(stats, self.aqua_lib.donated_bytes)
        return decision.action is Action.HOLD

    def _settled(self) -> bool:
        """Whether the next idle inform would provably repeat a hold.

        A plain :class:`BatchInformer` decides from the GPU's free
        memory alone, and only a release raises it.  The donation and a
        pending reclaim change only inside this engine's own inform.
        Any other informer keeps the poll.
        """
        lib = self.aqua_lib
        if lib is None:
            return True
        return (
            type(lib.informer) is BatchInformer
            and not lib.reclaim_pending
            and self._holds()
        )

    def _next_tick(self, when: float) -> float:
        """The first poll tick at or after ``when``.  Ticks are summed
        one period at a time, as the loop's timers are."""
        tick = self._tick
        while tick < when:
            tick += INFORM_PERIOD
        self._tick = tick
        return tick

    def _check_tick_order(self, tick: float) -> None:
        """Raise unless a wake scheduled now sorts where the poll's
        timer for ``tick`` would.

        The loop creates that timer one tick earlier, after everything
        scheduled before this engine fell asleep, so events due at
        ``tick`` and scheduled since then may sort either side of it.
        On the tick itself the timer may already have fired: only an
        event due now and scheduled before the sleep, still pending,
        proves it has not.
        """
        since = self._asleep_scheduled
        pending = self.env.scheduled_at(tick)
        before = any(eid <= since for eid in pending)
        if any(eid > since for eid in pending) or (tick == self.env.now and not before):
            raise UnplaceableWake(
                f"{self.name} asleep since t={self._asleep_since} cannot place "
                f"its poll tick at t={tick} among the events due then"
            )

    def _memory_released(self) -> None:
        """GPU memory was released: rejoin the poll if an inform would
        no longer hold."""
        if self._asleep_since is None or self._wake.triggered or self._holds():
            return
        tick = self._next_tick(self.env.now)
        self._check_tick_order(tick)
        self.env.succeed_at(self._wake, tick)

    def _serve(self) -> Generator:
        env = self.env
        while True:
            if not self.waiting:
                if self._arrival_event.triggered:
                    self._arrival_event = env.event()
                if self._settled():
                    self._asleep_since = env.now
                    self._asleep_scheduled = env.scheduled
                    self._tick = env.now + INFORM_PERIOD
                    self._wake = env.event()
                    yield AnyOf(env, [self._arrival_event, self._wake])
                    self._asleep_since = None
                else:
                    yield AnyOf(env, [self._arrival_event, env.timeout(INFORM_PERIOD)])
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
