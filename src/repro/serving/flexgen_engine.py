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

The decode steps up to the next ``respond()`` that nothing else could
touch or see run as one window with one wake (see
:meth:`FlexGenEngine._window`).
"""

from __future__ import annotations

from typing import Generator, Sequence

from repro.aqua.tensor import Location, TensorLostError
from repro.hardware.interconnect import add_in_order
from repro.serving.engine import LLMEngineBase
from repro.serving.request import Request
from repro.sim import Wake


#: The most steps :func:`_steps` computes in one run.  Runs start at
#: ``_FIRST_RUN`` steps and double up to it, so a near horizon wastes
#: little and a long window's scratch arrays stay small.
_RUN_CAP = 1024
_FIRST_RUN = 16


def _steps(
    t: float,
    payloads: range,
    kernel: float,
    rate: float,
    latency: float,
    bandwidth: float,
    horizon: float,
    steps_due: Sequence[float],
) -> tuple:
    """The end times, as a list of Python floats, and the copy end
    times, as a float64 array, of the decode steps of a window from
    ``t``: step ``s`` copies ``payloads[s]`` bytes and the window stops
    before the first step that ends at or after ``horizon`` or has a
    copy start, copy end or kernel end in ``steps_due`` (ascending
    times of other domains' entries).

    A step ends at its copy end if that is strictly later than its
    kernel end, else at its kernel end; the next step starts there.
    The steps are computed in runs in which the same leg binds, each by
    one ``np.add.accumulate``: over ``[t, staging, wire, staging, wire,
    …]`` when the copy binds (each element is a copy start or a copy
    end), over ``[t, kernel, kernel, …]`` when the kernel does.
    numpy adds left to right with the same IEEE additions as a scalar
    loop over the steps, so every time is bit for bit that loop's.  A
    run stops at the first step that fails the leg it assumed, which
    the next run recomputes with the other leg.
    """
    import numpy as np

    # No step starting after the last of ``steps_due`` can tie one.
    due_until = steps_due[-1] if steps_due else -1.0
    steps_due = set(steps_due)
    ends, copy_ends = [], []
    done, size = 0, _FIRST_RUN
    while done < len(payloads):
        part = payloads[done : done + size]
        size = min(2 * size, _RUN_CAP)
        nbytes = np.arange(part.start, part.stop, part.step)
        staging = nbytes / rate
        wire = latency + nbytes / bandwidth
        if t + staging[0] + wire[0] > t + kernel:
            column = np.empty(2 * len(part) + 1)
            column[0] = t
            column[1::2] = staging
            column[2::2] = wire
            column = np.add.accumulate(column)
            starts, copy_starts = column[0:-1:2], column[1::2]
            run_copy_ends = run_ends = column[2::2]
            kernel_ends = starts + kernel
            bound = run_copy_ends > kernel_ends
        else:
            column = np.full(len(part) + 1, kernel)
            column[0] = t
            column = np.add.accumulate(column)
            starts, run_ends = column[:-1], column[1:]
            copy_starts = starts + staging
            run_copy_ends = copy_starts + wire
            kernel_ends = run_ends
            bound = ~(run_copy_ends > kernel_ends)
        # The steps the run's leg binds, then those before the horizon.
        legs = len(part) if bound.all() else int(bound.argmin())
        k = min(legs, int(run_ends.searchsorted(horizon, "left")))
        if t <= due_until:
            due = min(k, int(starts.searchsorted(due_until, "right")))
            for i, times in enumerate(zip(
                copy_starts[:due].tolist(),
                run_copy_ends[:due].tolist(),
                kernel_ends[:due].tolist(),
            )):
                if not steps_due.isdisjoint(times):
                    k = i
                    break
        if k:
            ends += run_ends[:k].tolist()
            copy_ends.append(run_copy_ends[:k])
            t = ends[-1]
            done += k
        if k < legs:
            break
    return ends, np.concatenate(copy_ends) if copy_ends else np.empty(0)


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
        #: The running request's context tensor.
        self._tensor = None
        #: Decode windows need FlexGen's own io leg, gathered so that
        #: each step's copy starts after its kernel has read dilation().
        self._windowed = (
            type(self)._io_step is FlexGenEngine._io_step
            and self.aqua_lib.gather_enabled
            and self._stream_pieces() > 1
        )

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
        tensor = self._tensor = self.aqua_lib.to_responsive_tensor(
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
                windowed = self._windowed and (
                    yield from self._window(request, tensor, step, max_total)
                )
                if not windowed:
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
            self._tensor = None
            tensor.free()

    # ------------------------------------------------------------------
    # Decode windows
    # ------------------------------------------------------------------
    def _window(self, request: Request, tensor, step: float, max_total: int) -> Generator:
        """Run decode steps ``1 … k`` as one window with one wake at
        ``t_k``, leaving step ``k``'s token to the caller; return
        whether it did (``k >= 2``).

        Step ``s`` starts at ``t_{s-1}``, as on the per-step path: its
        kernel ends at ``t_{s-1} + step·dilation``, its copy starts
        after the gather staging and ends ``Route.wire_time`` later,
        and the step ends at the later of the two.  Step ``k`` is the
        first of:

        * the step at the next ``respond()`` boundary, if the
          coordinator owes this engine a move now (or counts its REST
          calls).  Otherwise no boundary before the horizon owes one:
          what could change the answer (a producer's reclaim or lease,
          a fault report, a peer paired to the same producer) is an
          event the horizon stops before, so those ``respond()`` calls
          would move and record nothing;
        * the step that completes the request or reaches ``max_total``;
        * the last step that ends strictly before the horizon of this
          engine's domain (:meth:`~repro.sim.Environment.horizon`): the
          stop time of the current ``run(until=...)``, now under a
          per-event monitor, or else the next scheduled event of this
          domain or of a global actor;
        * the last step before one whose copy start, copy end or kernel
          end ties with a pending event of another domain that the
          horizon skipped, but for a window's wake.  That event's
          engine resumed first at the instant both steps began, so its
          copies come first among those ending with this window's; a
          deferred record at a tie goes first.

        A window opens only where nothing could tell it from stepping:
        the context sits on a producer GPU, both GPUs' streams and the
        fetch route's channels are free and unqueued, no copy runs on
        this GPU, no channel is stalled, and the server has no hub and
        no transfer listener (their span order and chained digest
        record how the engines' steps interleave).  Each step's kernel
        busy time, channel ledgers, ``fetch_count`` and token stamp
        (but step ``k``'s) are accounted at once, at their own times
        and in step order; the transfer records are deferred to their
        end times as one ledger entry (:meth:`TransferStats.defer`).
        Until the wake the window holds its GPUs and channels: anyone
        else who touches them raises :class:`~repro.sim.WindowConflict`.
        """
        server = self.server
        stats = server.transfer_stats
        gpu, device, lib = self.gpu, tensor.device, self.aqua_lib
        if (
            server.telemetry is not None
            or stats.listeners
            or tensor.location is not Location.PRODUCER
            or tensor.lost
            or gpu.failed
            or device.failed
        ):
            return False
        generated = request.generated_tokens
        limit = min(
            request.max_new_tokens - generated,
            max_total - request.total_tokens,
        )
        every = self.respond_every
        boundary = every - generated % every
        if boundary < limit and (
            lib.coordinator.telemetry is not None or lib.get_tensors_to_move()
        ):
            limit = boundary
        if limit < 2:
            return False
        route = server.interconnect.route(device, gpu)
        held = [gpu.compute, device.compute, *(ch.engine for ch in route.channels)]
        if gpu.active_copies or any(ch.stalled for ch in route.channels) or any(
            r.users or r.queue or r.window is not None for r in held
        ):
            return False

        env = self.env
        horizon, steps_due = env.horizon(self.domain)
        # The terms every step shares: a copy of ``payload`` bytes, one
        # gathered piece, starts after ``payload / rate`` of staging and
        # takes ``latency + payload / bandwidth`` on the wire.
        kernel = step * gpu.dilation()
        latency, bandwidth = route.wire_terms()
        per_token = self.model.kv_bytes_per_token
        payloads = range(
            self.model.kv_bytes(request.total_tokens) + per_token,
            self.model.kv_bytes(request.total_tokens + limit) + per_token,
            per_token,
        )
        ends, copy_ends = _steps(
            env.now, payloads, kernel, lib.staging_rate, latency, bandwidth,
            horizon, steps_due,
        )
        n = len(ends)
        if n < 2:
            return False

        # The ledgers, summed in step order as the steps would have.
        gpu.busy_time = add_in_order(gpu.busy_time, [kernel] * n)
        payloads = payloads[:n]
        channels = route.sorted_channels
        for channel in channels:
            channel.record_all(payloads)
        stats.defer(env, copy_ends, latency, bandwidth, payloads, route.label, channels)
        tensor.fetch_count += n
        last = ends.pop()
        request.record_tokens(ends)
        self.metrics.record_tokens(ends)
        del ends  # the metrics hold the stamps; a long window need not
        for resource in held:
            resource.window = self
        wake = Wake(env)
        env.succeed_at(wake, last)
        yield wake
        for resource in held:
            resource.window = None
        stats.settle()
        return True

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
