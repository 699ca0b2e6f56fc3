"""AQUA-LIB: the per-GPU memory-management library (§3, §B).

One :class:`AquaLib` instance runs on every GPU of a multi-GPU server.
It exposes:

* a **northbound interface** to the serving engine —
  :meth:`to_responsive_tensor` / :meth:`respond` on consumers, and
  :meth:`inform_stats` / :meth:`complete_offer` on producers;
* a **southbound interface** to the central coordinator — REST calls
  that register memory offers, allocation requests and reclaims.

The library is deliberately engine-agnostic: engines report load via
``inform_stats(...)`` and call ``respond()`` at inference-iteration
boundaries; AQUA-LIB does everything else (placement, migration,
accounting), which is what makes the integration with vLLM and FlexGen
require no surgical changes (§B.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Hashable, Optional

from repro.aqua.coordinator import DRAM, Coordinator
from repro.aqua.informers import Action, EngineStats
from repro.aqua.tensor import AquaTensor, Location, TensorLostError
from repro.faults.retry import RetryPolicy
from repro.hardware.dma import GpuFailedError, TransferStalled

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.gpu import GPU
    from repro.hardware.server import Server

#: Pool reservation tag for memory a producer has donated to AQUA.
AQUA_OFFER_TAG = "aqua-offer"


class AquaLib:
    """Per-GPU AQUA library instance.

    Parameters
    ----------
    gpu:
        The GPU this instance manages.
    server:
        The multi-GPU server (provides the interconnect and host DRAM).
        Its hub, if any, gets this GPU's AQUA metrics, spans and retries.
    coordinator:
        The central coordinator shared by all instances.
    informer:
        Donate/reclaim policy for producer GPUs (``None`` for pure
        consumers).
    gather_enabled:
        Whether scattered tensors are coalesced into one large copy via
        AQUA's gather/scatter kernels (§5).  Disable to reproduce the
        naive-offload ablation.
    retry_policy:
        Backoff used when a transfer hits a stalled DMA engine
        (default: :class:`~repro.faults.RetryPolicy` defaults).
    """

    def __init__(
        self,
        gpu: "GPU",
        server: "Server",
        coordinator: Coordinator,
        informer=None,
        gather_enabled: bool = True,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.gpu = gpu
        self.server = server
        self.env = server.env
        self.coordinator = coordinator
        self.informer = informer
        self.gather_enabled = gather_enabled
        self.retry_policy = retry_policy or RetryPolicy()
        self.name = gpu.name
        self.telemetry = telemetry = server.hub_for(f"AQUA-LIB {self.name}")
        self.tracer = telemetry.tracer if telemetry is not None else None
        #: This GPU's ``aqua_offload_bytes_total`` children, by op.
        self._offload_bytes = None
        if telemetry is not None:
            from repro.telemetry.registry import LabelIndex

            self._offload_bytes = LabelIndex(telemetry.offload_bytes, gpu=self.name)
        self.donated_bytes = 0
        self.reclaim_pending = False
        self.tensors: dict[int, AquaTensor] = {}
        #: Cumulative time this consumer spent blocked in respond().
        self.respond_blocked_time = 0.0
        #: Transfer retries performed after DMA stalls (fault handling).
        self.retries = 0
        #: Tensors whose bytes were lost to a GPU failure.
        self.lost_tensors = 0
        coordinator.devices[self.name] = gpu
        coordinator.libs[self.name] = self

    # ==================================================================
    # Southbound helpers
    # ==================================================================
    def _post(self, path: str, payload: dict) -> dict:
        resp = self.coordinator.request("POST", path, payload)
        if not resp.ok:
            raise RuntimeError(f"coordinator POST {path} failed: {resp.body}")
        return resp.body

    def _get(self, path: str, payload: dict) -> dict:
        resp = self.coordinator.request("GET", path, payload)
        if not resp.ok:
            raise RuntimeError(f"coordinator GET {path} failed: {resp.body}")
        return resp.body

    # ==================================================================
    # Consumer northbound interface
    # ==================================================================
    def to_responsive_tensor(
        self,
        nbytes: int,
        pieces: int = 1,
        tag: str = "aqua",
        ctx: Optional[int] = None,
    ) -> AquaTensor:
        """Allocate an offloaded tensor (the paper's
        ``to_responsive_tensor(torch_tensor)``).

        The coordinator picks the location: the paired producer GPU when
        its lease has room, host DRAM otherwise — the model never learns
        which (§3).

        ``ctx`` is the owning request's trace ID: data-plane moves of
        this tensor (fetch/flush/migrate) propagate it down to the DMA
        layer so the request's causal trace spans every hop.
        """
        tensor = AquaTensor(self, nbytes, pieces=pieces, tag=tag)
        tensor.ctx = ctx
        location = self.allocate_aqua_tensor(tensor)
        if self.telemetry is not None:
            self.telemetry.tensor_allocations.labels(location=location).inc()
        return tensor

    def respond(self) -> Generator:
        """Perform pending tensor migrations at an iteration boundary.

        The paper's ``aqua.respond()``: the serving engine invokes this
        between inference iterations, which is the only point where
        offloaded tensors may safely change location.  Migrations to
        DRAM (reclaims) and opportunistic upgrades onto the producer
        both happen here; the engine blocks for the duration.
        """
        started = self.env.now
        for tensor_id, target in self.get_tensors_to_move().items():
            tensor = self.tensors.get(tensor_id)
            if tensor is None or tensor.freed or tensor.lost:
                continue
            yield from self._migrate(tensor, target)
        self.respond_blocked_time += self.env.now - started

    # ------------------------------------------------------------------
    # The consumer control-loop interface, exactly as named in §B.1.
    # respond() composes these three calls; they are also exposed
    # directly so alternative policies can drive migrations themselves.
    # ------------------------------------------------------------------
    def allocate_aqua_tensor(self, tensor: AquaTensor) -> str:
        """Decide the location of a newly created tensor (§B.1).

        Returns the location name (a producer GPU or ``"dram"``) and
        performs the placement accounting.  Prefer
        :meth:`to_responsive_tensor`, which builds the tensor and calls
        this for you.
        """
        body = self._post(
            "/allocate",
            {"consumer": self.name, "tensor_id": tensor.id, "nbytes": tensor.nbytes},
        )
        self._account_placement(tensor, body["location"])
        self.tensors[tensor.id] = tensor
        return body["location"]

    def get_tensors_to_move(self) -> dict[int, str]:
        """Pending migrations at this iteration boundary (§B.1).

        Maps tensor id to target location; forced reclaims first, then
        opportunistic upgrades onto the paired producer.  The wire
        payload carries *string* tensor-id keys (JSON objects cannot key
        on ints); this client converts them back to ints.
        """
        migrations = self._get("/respond", {"consumer": self.name})["migrations"]
        return {int(tensor_id): target for tensor_id, target in migrations.items()}

    def done_moving_tensors(self, moves: dict[int, str]) -> None:
        """Confirm completed migrations to the coordinator (§B.1).

        :meth:`respond` performs the byte movement itself; callers
        driving their own data plane use this to publish the outcome.
        """
        for tensor_id, location in moves.items():
            self._post("/moved", {"tensor_id": tensor_id, "location": location})

    @property
    def offloaded_fast_bytes(self) -> int:
        """Bytes of this consumer's tensors on the NVLink fast path."""
        return sum(t.nbytes for t in self.tensors.values() if t.on_fast_path)

    @property
    def offloaded_dram_bytes(self) -> int:
        return sum(
            t.nbytes
            for t in self.tensors.values()
            if not t.freed and not t.on_fast_path
        )

    # ==================================================================
    # Producer northbound interface
    # ==================================================================
    def inform_stats(self, stats: EngineStats) -> int:
        """Report engine load; returns the memory delta for the engine.

        Mirrors the paper's ``inform_stats(...)`` contract: the return
        value is *positive* when the engine may take memory back (grow
        its inference-context region), *negative* when the engine should
        release that many bytes and donate them (followed by
        :meth:`complete_offer`), and zero otherwise.
        """
        if self.reclaim_pending:
            body = self._get("/reclaim_status", {"producer": self.name})
            if body["done"]:
                return self._finish_reclaim()
            return 0
        if self.informer is None:
            return 0
        decision = self.informer.decide(stats, self.donated_bytes)
        if decision.action is Action.OFFER:
            return -decision.nbytes
        if decision.action is Action.RECLAIM and self.donated_bytes > 0:
            body = self._post("/reclaim_request", {"producer": self.name})
            if body["done"]:
                return self._finish_reclaim()
            self.reclaim_pending = True
            return 0
        return 0

    def complete_offer(self, nbytes: int) -> int:
        """The engine released ``nbytes`` of HBM; lease them to AQUA.

        Returns the bytes actually leased: ``nbytes`` on success, ``0``
        when the coordinator refuses the offer (a reclaim in flight, or
        this GPU quarantined as failed) — the engine should then take
        the memory back rather than strand it.
        """
        if nbytes <= 0:
            raise ValueError(f"offer must be positive, got {nbytes}")
        resp = self.coordinator.request(
            "POST", "/lease", {"producer": self.name, "nbytes": nbytes}
        )
        if not resp.ok:
            return 0
        self.gpu.hbm.reserve(AQUA_OFFER_TAG, nbytes)
        self.donated_bytes += nbytes
        return nbytes

    def _finish_reclaim(self) -> int:
        """All consumer tensors evacuated: take the donation back."""
        reclaimed = self.donated_bytes
        if reclaimed > 0:
            self.gpu.hbm.release(AQUA_OFFER_TAG)
        self.donated_bytes = 0
        self.reclaim_pending = False
        return reclaimed

    # ==================================================================
    # Placement accounting and data-plane moves
    # ==================================================================
    def _account_placement(self, tensor: AquaTensor, location: str) -> None:
        """Point a tensor at its (new) location and fix pool accounting."""
        if location == DRAM:
            self.server.dram.pool.reserve(tensor.tag, tensor.nbytes)
            tensor.location = Location.DRAM
            tensor._device = self.server.dram
        else:
            producer_gpu = self.coordinator.devices[location]
            # The bytes come out of the producer's standing donation.
            producer_gpu.hbm.retag(AQUA_OFFER_TAG, tensor.tag, tensor.nbytes)
            tensor.location = Location.PRODUCER
            tensor._device = producer_gpu

    def _release_placement(self, tensor: AquaTensor) -> None:
        if tensor.location is Location.DRAM:
            self.server.dram.pool.release(tensor.tag)
        elif tensor.location is Location.PRODUCER:
            tensor._device.hbm.retag(tensor.tag, AQUA_OFFER_TAG, tensor.nbytes)

    def _free_tensor(self, tensor: AquaTensor) -> None:
        self._release_placement(tensor)
        self._post("/free", {"tensor_id": tensor.id})
        self.tensors.pop(tensor.id, None)

    def _migrate(self, tensor: AquaTensor, target: str) -> Generator:
        """Move a tensor's bytes to ``target`` and update all books."""
        current = DRAM if tensor.location is Location.DRAM else tensor._device.name
        if current == target:
            return
        # Reserve the destination with the coordinator first; a 409 means
        # the lease vanished between /respond and now — stay put.
        resp = self.coordinator.request(
            "POST", "/moved", {"tensor_id": tensor.id, "location": target}
        )
        if not resp.ok:
            return
        src_device = tensor._device
        self._release_placement(tensor)
        self._account_placement(tensor, target)
        try:
            # Offloaded payloads are stored gathered, so migration moves
            # one contiguous buffer.
            moved = yield from self._resilient_copy(
                src_device, tensor._device, tensor.nbytes, ctx=tensor.ctx
            )
        except TransferStalled:
            # Retries exhausted with the route still stalled: the bytes
            # never left the source.  Roll the optimistic accounting back
            # so every ledger points at where the payload actually is,
            # and un-post the move — the coordinator re-queues it for a
            # later boundary.  The engine keeps running; no exception
            # escapes an iteration boundary for a transient fault.
            self._release_placement(tensor)
            self._account_placement(tensor, current)
            self._post(
                "/move_failed", {"tensor_id": tensor.id, "location": current}
            )
            return
        if not moved:
            # The source GPU failed with the bytes on it.  The books
            # already point at the new location; mark the payload lost
            # so the owner recomputes on its next access.
            tensor.lost = True
            self.lost_tensors += 1
            if self.telemetry is not None:
                self.telemetry.lost_tensors.labels(gpu=self.name).inc()
        elif self.telemetry is not None:
            self.telemetry.tensor_migrations.labels(target=target).inc()

    def _resilient_copy(
        self,
        src: Hashable,
        dst: Hashable,
        nbytes: float,
        pieces: int = 1,
        ctx: Optional[int] = None,
    ) -> Generator:
        """One fault-tolerant transfer; returns whether the bytes moved.

        Stalled DMA engines (:class:`~repro.hardware.dma.TransferStalled`)
        are retried with the instance's capped-exponential-backoff
        :class:`~repro.faults.RetryPolicy`, re-raising only once the
        policy's attempts are exhausted.  A failed endpoint GPU
        (:class:`~repro.hardware.dma.GpuFailedError`) is not retryable:
        the copy returns ``False`` and the caller decides what the loss
        means (usually :class:`~repro.aqua.tensor.TensorLostError`).
        """
        delays = None  # the backoff schedule, built at the first stall
        attempt = 1
        while True:
            try:
                yield from self.server.transfer(src, dst, nbytes, pieces=pieces, ctx=ctx)
                return True
            except GpuFailedError:
                return False
            except TransferStalled:
                if delays is None:
                    delays = self.retry_policy.delays()
                delay = next(delays, None)
                if delay is None:
                    raise
                self.retries += 1
                if self.telemetry is not None:
                    self.telemetry.transfer_retries.labels(gpu=self.name).inc()
                    self.tracer.add_instant(
                        "aqua-retry",
                        self.name,
                        time=self.env.now,
                        attempt=attempt,
                        backoff_s=delay,
                    )
                yield self.env.timeout(delay)
                attempt += 1

    def _move_payload(
        self,
        tensor: AquaTensor,
        src: Hashable,
        dst: Hashable,
        nbytes: Optional[int] = None,
        pieces: Optional[int] = None,
    ) -> Generator:
        """Data-plane copy used by ``AquaTensor.fetch``/``flush``.

        Raises
        ------
        ValueError
            When ``nbytes`` exceeds the tensor: a read or write past its
            end is a caller bug, not something to clamp.
        TensorLostError
            When the offloaded endpoint has failed: the tensor's bytes
            are unrecoverable and the owner must recompute.
        """
        if nbytes is None:
            payload = tensor.nbytes
        elif nbytes > tensor.nbytes:
            raise ValueError(
                f"tensor {tensor.tag}: move of {nbytes} bytes exceeds "
                f"its {tensor.nbytes} bytes"
            )
        else:
            payload = nbytes
        if payload <= 0:
            return
        started = self.env.now
        scatter = tensor.pieces if pieces is None else pieces
        effective_pieces = 1 if self.gather_enabled else scatter
        if self.gather_enabled and scatter > 1:
            # Gather/scatter staging: one read + one write of the payload
            # through the consumer GPU's HBM (the custom CUDA kernels of §5).
            # Bare-delay yield: same ordering as env.timeout(staging)
            # without a Timeout allocation per move.
            staging = 2 * payload / self.gpu.spec.effective_hbm_bandwidth
            yield staging
        moved = yield from self._resilient_copy(
            src, dst, payload, pieces=effective_pieces, ctx=tensor.ctx
        )
        if not moved:
            tensor.lost = True
            self.lost_tensors += 1
            if self.telemetry is not None:
                self.telemetry.lost_tensors.labels(gpu=self.name).inc()
            raise TensorLostError(tensor)
        if self.telemetry is not None:
            op = "flush" if src is self.gpu else "fetch"
            self._offload_bytes[op].inc(payload)
            if tensor.ctx is not None:
                track = f"aqua:{self.name}"
                self.telemetry.tracer.add_span(
                    op, track, started, self.env.now,
                    request=tensor.ctx, nbytes=payload, tensor=tensor.tag,
                )
                self.telemetry.flow(tensor.ctx, track, time=started)

    def __repr__(self) -> str:
        return (
            f"<AquaLib {self.name} donated={self.donated_bytes / 2**30:.1f}GiB "
            f"tensors={len(self.tensors)}>"
        )
