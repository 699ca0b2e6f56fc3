"""The fault injector: applies a schedule to live hardware state.

:class:`FaultInjector` turns a :class:`~repro.faults.FaultSchedule`
into simulation processes — one per fault — that sleep until the
fault's injection time, flip the corresponding hardware health state
(:attr:`Channel.degradation <repro.hardware.interconnect.Channel.degradation>`,
:attr:`Channel.stalled <repro.hardware.interconnect.Channel.stalled>`,
:attr:`GPU.failed <repro.hardware.gpu.GPU.failed>`), and flip it back
when the fault's duration elapses.  Cancellation rides the simulation
kernel's interrupt machinery (:meth:`Process.interrupt
<repro.sim.events.Process.interrupt>`): :meth:`cancel` interrupts every
pending fault process and clears any fault currently active.

When a coordinator is attached the injector also plays the role of the
fabric manager's health daemon: it notifies the AQUA coordinator of
GPU failures/recoveries and of consumers whose NVLink fast path has
degraded below their PCIe fallback, which is what triggers coordinator
side re-placement.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.faults.schedule import DmaStall, Fault, FaultSchedule, GpuFailure, LinkDegradation
from repro.sim import Interrupt, Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.aqua.coordinator import Coordinator
    from repro.hardware.gpu import GPU
    from repro.hardware.interconnect import Channel
    from repro.hardware.server import Server


class FaultInjector:
    """Drives a :class:`FaultSchedule` against one server's hardware.

    Parameters
    ----------
    server:
        The server whose channels and GPUs the schedule targets.
    coordinator:
        Optional AQUA coordinator to notify of health transitions
        (``/gpu_failed``, ``/gpu_recovered``, ``/link_degraded``,
        ``/link_restored``).  Without one, only hardware state flips.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` hub; every
        apply/clear increments ``aqua_faults_total{kind, phase}`` and
        lands as an instant event on the hub tracer's ``"faults"``
        track.

    Attributes
    ----------
    log:
        Chronological list of ``{"t", "event", "target"}`` dicts —
        one ``apply`` and one ``clear`` entry per injected fault.
    """

    def __init__(
        self,
        server: "Server",
        coordinator: Optional["Coordinator"] = None,
        telemetry=None,
    ) -> None:
        self.server = server
        self.env = server.env
        self.coordinator = coordinator
        self.telemetry = telemetry
        self.log: list[dict] = []
        self._processes: list[Process] = []

    # ------------------------------------------------------------------
    # Target resolution
    # ------------------------------------------------------------------
    def _resolve_channels(self, pattern: str) -> list["Channel"]:
        """Channels whose full name contains ``pattern`` as a substring."""
        matches = [
            ch
            for name, ch in self.server.interconnect.channels.items()
            if pattern in name
        ]
        if not matches:
            known = sorted(self.server.interconnect.channels)
            raise ValueError(f"no channel matches {pattern!r}; known: {known}")
        return matches

    def _resolve_gpu(self, name: str) -> "GPU":
        """GPU by exact name, ``gpuN`` suffix, or bare index."""
        for gpu in self.server.gpus:
            if name in (gpu.name, f"gpu{gpu.index}", str(gpu.index)):
                return gpu
        known = [gpu.name for gpu in self.server.gpus]
        raise ValueError(f"no GPU matches {name!r}; known: {known}")

    # ------------------------------------------------------------------
    # Installation and cancellation
    # ------------------------------------------------------------------
    def install(self, schedule: FaultSchedule) -> list[Process]:
        """Spawn one simulation process per fault in ``schedule``.

        Targets are resolved eagerly so a bad schedule fails at install
        time, not mid-run.  Returns the spawned processes (mostly for
        tests; the injector keeps its own list for :meth:`cancel`).
        """
        spawned = []
        for fault in schedule:
            if isinstance(fault, (LinkDegradation, DmaStall)):
                targets = self._resolve_channels(fault.channel)
            else:
                targets = [self._resolve_gpu(fault.gpu)]
            proc = self.env.process(self._drive(fault, targets))
            spawned.append(proc)
        self._processes.extend(spawned)
        return spawned

    def cancel(self) -> None:
        """Interrupt every pending fault process, clearing active faults.

        Uses the kernel's asynchronous interrupt delivery; a process
        interrupted while a fault is active clears the fault before
        exiting, so hardware is always left healthy.
        """
        for proc in self._processes:
            if proc.is_alive:
                proc.interrupt("fault schedule cancelled")
        self._processes.clear()

    # ------------------------------------------------------------------
    # The per-fault process
    # ------------------------------------------------------------------
    def _drive(self, fault: Fault, targets: list) -> Generator:
        """Sleep, apply, sleep, clear — with interrupt-safe cleanup.

        Clearing happens on the scheduled path and on :meth:`cancel`'s
        interrupt, but *not* when the generator is torn down because the
        simulation ended mid-fault — a run truncated inside a fault
        window leaves the fault applied and the log deterministic.
        """
        applied = False
        try:
            yield self.env.timeout(fault.at)
            self._apply(fault, targets)
            applied = True
            yield self.env.timeout(fault.duration)
            self._clear(fault, targets)
        except Interrupt:
            if applied:
                self._clear(fault, targets)

    def _apply(self, fault: Fault, targets: list) -> None:
        if isinstance(fault, LinkDegradation):
            for ch in targets:
                ch.degrade(fault.factor)
            self._refresh_link_health()
        elif isinstance(fault, DmaStall):
            for ch in targets:
                ch.stall()
        else:  # GpuFailure
            for gpu in targets:
                gpu.fail()
                self._notify("/gpu_failed", {"gpu": gpu.name})
        self._record("apply", fault, targets)

    def _clear(self, fault: Fault, targets: list) -> None:
        if isinstance(fault, LinkDegradation):
            for ch in targets:
                ch.restore()
            self._refresh_link_health()
        elif isinstance(fault, DmaStall):
            for ch in targets:
                ch.unstall()
        else:  # GpuFailure
            for gpu in targets:
                gpu.recover()
                self._notify("/gpu_recovered", {"gpu": gpu.name})
        self._record("clear", fault, targets)

    # ------------------------------------------------------------------
    # Coordinator notification (the health daemon role)
    # ------------------------------------------------------------------
    def _notify(self, path: str, payload: dict) -> None:
        if self.coordinator is not None:
            self.coordinator.request("POST", path, payload)

    def _refresh_link_health(self) -> None:
        """Re-evaluate every pairing's fast path against its PCIe fallback.

        A consumer's NVLink path to its producer counts as *degraded*
        when its round-trip bottleneck bandwidth drops to or below the
        consumer's PCIe (DRAM) bandwidth — at that point offloading to
        the producer is no faster than the fallback, so the coordinator
        should evacuate to DRAM.  Restoration is symmetric.
        """
        if self.coordinator is None:
            return
        ic = self.server.interconnect
        for consumer, producer in self.coordinator.pairings.items():
            consumer_gpu = self.coordinator.devices.get(consumer)
            producer_gpu = self.coordinator.devices.get(producer)
            if consumer_gpu is None or producer_gpu is None:
                continue
            fast = min(
                ic.route(consumer_gpu, producer_gpu).bottleneck_bandwidth,
                ic.route(producer_gpu, consumer_gpu).bottleneck_bandwidth,
            )
            pcie = ic.route(consumer_gpu, self.server.dram).bottleneck_bandwidth
            if fast <= pcie:
                self._notify("/link_degraded", {"consumer": consumer})
            else:
                self._notify("/link_restored", {"consumer": consumer})

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _record(self, phase: str, fault: Fault, targets: list) -> None:
        names = [getattr(t, "name", str(t)) for t in targets]
        self.log.append(
            {"t": self.env.now, "event": f"{fault.kind}:{phase}", "target": names}
        )
        if self.telemetry is not None:
            self.telemetry.record_fault(fault.kind, phase, targets=names)
            self.telemetry.tracer.add_instant(
                f"{fault.kind}:{phase}", "faults", time=self.env.now, targets=names
            )
