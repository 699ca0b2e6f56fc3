"""Devices: GPUs with HBM accounting and compute, and host DRAM."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.hardware.specs import GPUSpec
from repro.sim import Domain, Environment, Event, Resource
from repro.sim.core import URGENT
from repro.sim.events import TRIGGERED
from repro.sim.resources import ensure_unheld

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.server import Server


class OutOfDeviceMemory(MemoryError):
    """Raised when a reservation exceeds the free capacity of a pool."""


@dataclass
class MemoryPool:
    """Byte-granularity accounting for a device memory.

    The pool tracks named reservations so tests and reports can see who
    holds memory; fine-grained (block) allocation for KV caches is
    layered on top in :mod:`repro.memory`.
    """

    capacity: int
    reservations: dict[str, int] = field(default_factory=dict)
    #: High-water mark of :attr:`used` over the pool's lifetime —
    #: exported as ``aqua_pool_peak_bytes`` by the telemetry layer.
    peak: int = 0
    #: Called after every :meth:`release`, the only call that raises
    #: :attr:`free`.  An idle producer whose decision only more free
    #: memory could change sleeps on it (see
    #: :class:`~repro.serving.BatchEngine`).
    on_release: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")
        self.peak = max(self.peak, self.used)

    @property
    def used(self) -> int:
        return sum(self.reservations.values())

    @property
    def free(self) -> int:
        return self.capacity - self.used

    def reserve(self, tag: str, nbytes: int) -> None:
        """Reserve ``nbytes`` under ``tag`` (tags accumulate)."""
        if nbytes < 0:
            raise ValueError(f"negative reservation {nbytes}")
        if nbytes > self.free:
            raise OutOfDeviceMemory(
                f"cannot reserve {nbytes} bytes under {tag!r}: "
                f"only {self.free} of {self.capacity} free"
            )
        self.reservations[tag] = self.reservations.get(tag, 0) + nbytes
        if self.used > self.peak:
            self.peak = self.used

    def release(self, tag: str, nbytes: Optional[int] = None) -> int:
        """Release ``nbytes`` (default: all) held under ``tag``.

        Returns the number of bytes actually released.
        """
        held = self.reservations.get(tag, 0)
        if nbytes is None:
            nbytes = held
        if nbytes < 0:
            raise ValueError(f"negative release {nbytes}")
        if nbytes > held:
            raise ValueError(
                f"cannot release {nbytes} bytes from {tag!r}: only {held} held"
            )
        remaining = held - nbytes
        if remaining:
            self.reservations[tag] = remaining
        else:
            self.reservations.pop(tag, None)
        for callback in self.on_release:
            callback()
        return nbytes

    def retag(self, src: str, dst: str, nbytes: int) -> None:
        """Move ``nbytes`` held under ``src`` to ``dst``.

        The table ends as ``release(src, nbytes)`` then ``reserve(dst,
        nbytes)`` would leave it, but :attr:`free` never moves, so no
        :attr:`on_release` callback runs.
        """
        held = self.reservations.get(src, 0)
        if nbytes < 0:
            raise ValueError(f"negative retag {nbytes}")
        if nbytes > held:
            raise ValueError(
                f"cannot retag {nbytes} bytes from {src!r}: only {held} held"
            )
        remaining = held - nbytes
        if remaining:
            self.reservations[src] = remaining
        else:
            self.reservations.pop(src, None)
        self.reservations[dst] = self.reservations.get(dst, 0) + nbytes

    def held(self, tag: str) -> int:
        """Bytes currently held under ``tag``."""
        return self.reservations.get(tag, 0)

    def snapshot(self) -> dict[str, int]:
        """Point-in-time copy of the reservation table.

        Used by the conservation audit (:mod:`repro.audit`) so invariant
        checks iterate a stable view even if a monitor callback runs
        concurrently with pool mutation.
        """
        return dict(self.reservations)


class GPU:
    """One simulated GPU: HBM pool, a compute queue, and copy bookkeeping.

    Compute work is modelled as exclusive occupancy of the GPU for a
    duration derived from the model performance rooflines; concurrent
    interconnect copies touching this GPU dilate compute slightly
    (``spec.copy_interference``), matching the paper's Figure 3b finding
    that memory donation costs producers <5% throughput.
    """

    def __init__(
        self,
        env: Environment,
        index: int,
        spec: GPUSpec,
        server: Optional["Server"] = None,
    ) -> None:
        self.env = env
        self.index = index
        self.spec = spec
        self.server = server
        prefix = server.name if server is not None else "gpu"
        self.name = f"{prefix}/gpu{index}"
        self.hbm = MemoryPool(capacity=spec.hbm_bytes)
        self.compute = Resource(env, capacity=1)
        self.active_copies = 0
        self.busy_time = 0.0
        #: Health flag set by fault injection (:mod:`repro.faults`).
        #: While ``True``, new DMA transfers touching this GPU raise
        #: :class:`~repro.hardware.dma.GpuFailedError` and the memory
        #: it held is considered lost by anyone who offloaded to it.
        self.failed = False
        #: The scale-up domain this GPU belongs to; pairing it with
        #: another GPU merges theirs (:class:`~repro.sim.Domain`).
        self.domain = Domain()

    def fail(self) -> None:
        """Mark the GPU failed: its HBM contents are gone.

        The accounting pools are left untouched — owners of the data
        (AQUA tensors, engines) discover the loss when their next
        transfer raises and release their reservations themselves,
        mirroring how a real driver reports ECC/Xid errors lazily.
        """
        ensure_unheld(self.compute, f"failing {self.name}")
        self.failed = True

    def recover(self) -> None:
        """Bring the GPU back (empty — lost data does not return)."""
        ensure_unheld(self.compute, f"recovering {self.name}")
        self.failed = False

    @property
    def free_hbm(self) -> int:
        """Free HBM bytes."""
        return self.hbm.free

    def dilation(self) -> float:
        """Current compute slow-down factor due to active copies.

        Inside a decode window on this GPU the factor is not kept
        current, so reading it raises.
        """
        if self.compute.window is not None:
            ensure_unheld(self.compute, f"reading the dilation of {self.name}")
        if self.active_copies > 0:
            return 1.0 + self.spec.copy_interference
        return 1.0

    def launch(self, duration: float) -> Event:
        """Start an exclusive compute kernel of ``duration`` seconds.

        Usage (inside a simulation process)::

            yield gpu.launch(0.016)

        Returns an event that fires at the kernel's end, valued with the
        end time.  The kernel starts in an URGENT event at this instant,
        so the caller reaches its next yield first; it then takes the
        stream (queueing FIFO behind a running kernel) and reads
        :meth:`dilation`.  The stream is released before anything
        waiting on the end resumes.  The kernel has no process of its
        own: it runs to its end even if the process waiting on it is
        interrupted.
        """
        if duration < 0:
            raise ValueError(f"negative duration {duration}")
        return _Kernel(self, duration)

    def __repr__(self) -> str:
        return f"<GPU {self.name} free={self.free_hbm / 2**30:.1f}GiB>"

    # GPUs are used as dict keys / route endpoints: identity semantics.
    __hash__ = object.__hash__


class _Kernel(Event):
    """A compute kernel started by :meth:`GPU.launch`; fires at its end.
    It acts in its GPU's domain."""

    __slots__ = ("gpu", "domain", "duration", "request")

    def __init__(self, gpu: GPU, duration: float) -> None:
        super().__init__(gpu.env)
        # The stream is handed back before any waiter resumes.
        self.callbacks.append(self._release)
        self.gpu = gpu
        self.domain = gpu.domain
        self.duration = duration
        self.request = None
        start = Event(gpu.env)
        start._ok = True
        start._state = TRIGGERED
        start.callbacks = [self._start]
        gpu.env._schedule(start, priority=URGENT)

    def _start(self, _event: Event) -> None:
        self.request = request = self.gpu.compute.request()
        if request.processed:
            self._run(request)
        else:
            request.callbacks.append(self._run)

    def _run(self, _event: Event) -> None:
        gpu = self.gpu
        dilated = self.duration * gpu.dilation()
        gpu.busy_time += dilated
        env = self.env
        self._ok = True
        self._value = env.now + dilated
        self._state = TRIGGERED
        env._schedule(self, delay=dilated)

    def _release(self, _event: Event) -> None:
        self.gpu.compute.release(self.request)


class HostDRAM:
    """Host memory: a large pool reachable over PCIe."""

    def __init__(self, env: Environment, capacity: int, server: Optional["Server"] = None) -> None:
        self.env = env
        self.pool = MemoryPool(capacity=capacity)
        self.server = server

    @property
    def name(self) -> str:
        prefix = self.server.name if self.server is not None else "host"
        return f"{prefix}/dram"

    @property
    def free(self) -> int:
        return self.pool.free

    def __repr__(self) -> str:
        return f"<HostDRAM free={self.pool.free / 2**30:.0f}GiB>"

    __hash__ = object.__hash__
