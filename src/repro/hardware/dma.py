"""DMA transfers over interconnect routes.

A :class:`Transfer` is a simulation process that holds every channel on
its route for the duration of the copy.  Channels are acquired in a
global deterministic order (by channel name) so that two transfers with
overlapping routes can never deadlock.

Copies consume (a little) compute on both endpoint GPUs: while a
transfer is in flight the endpoint GPUs report copy activity, which
dilates concurrent compute kernels by ``GPUSpec.copy_interference``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Generator, Hashable, Optional, Sequence

from repro.hardware.gpu import GPU
from repro.hardware.interconnect import Channel, Interconnect, Route, add_in_order
from repro.sim import Environment
from repro.sim.resources import ensure_unheld

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass

#: Observer signature for completed transfers: ``(route_name, channels,
#: nbytes, duration)``.  Every hop carries the full payload, so a
#: listener that sums ``nbytes`` once per channel reconstructs the
#: per-channel ledger exactly (see :mod:`repro.audit`).
TransferListener = Callable[[str, Sequence[Channel], float, float], None]

#: The most records of one window :meth:`TransferStats.settle` merges
#: at a time.
_SLICE = 1024


class TransferError(RuntimeError):
    """A DMA copy could not run because of a hardware fault.

    Base class of the fault-injection error family; callers that want
    blanket handling (retry, re-placement) catch this, while the
    subclasses distinguish transient from fatal conditions.
    """


class TransferStalled(TransferError):
    """A channel on the route has a stalled copy engine.

    Transient: raised at transfer start while a
    :class:`~repro.faults.DmaStall` fault is active.  The right
    response is to retry with backoff — AQUA-LIB does exactly that.
    """


class GpuFailedError(TransferError):
    """An endpoint GPU of the transfer has failed.

    Fatal for the data on that GPU: copies *from* it mean the payload
    is lost (the owner must recompute), copies *to* it are pointless
    until :meth:`~repro.hardware.gpu.GPU.recover`.
    """


class TransferStats:
    """Aggregate statistics of completed transfers (for reports).

    ``bytes_total`` counts each payload once, whatever the hop count of
    its route; the per-channel ``bytes_moved`` ledgers count the payload
    once *per hop*.  Listeners registered in :attr:`listeners` observe
    every completed transfer together with the channels it traversed,
    which is how the conservation audit (:mod:`repro.audit`) keeps an
    independent shadow ledger to reconcile both views against.

    The statistics are sums in completion order, and one object serves
    every engine on a server.  A FlexGen decode window accounts its
    copies ahead of time, so it hands them over as one entry of columns
    (:meth:`defer`).  The due records of all windows are merged in
    (time, window, index) order before every live :meth:`record` (a tie
    goes first), every read and every :meth:`settle`: each sum is added
    in the order the copies would have ended one event at a time.
    """

    def __init__(self) -> None:
        self._count = 0
        self._bytes_total = 0.0
        self._busy_time = 0.0
        self._per_route: dict[str, float] = {}
        self.listeners: list[TransferListener] = []
        #: A heap with one entry per window that still holds records:
        #: ``(end, window, index, columns)``, its next record's end and
        #: position and its :meth:`defer` arguments; and the clock that
        #: says which are due.
        self._windows: list = []
        self._seq = 0
        self._env: Optional[Environment] = None

    def record(
        self,
        route_name: str,
        nbytes: float,
        duration: float,
        channels: Sequence[Channel] = (),
    ) -> None:
        if self._windows:
            self.settle()
        self._count += 1
        self._bytes_total += nbytes
        self._busy_time += duration
        per_route = self._per_route
        per_route[route_name] = per_route.get(route_name, 0.0) + nbytes
        for listener in self.listeners:
            listener(route_name, channels, nbytes, duration)

    def defer(
        self,
        env: Environment,
        ends: Sequence[float],
        latency: float,
        bandwidth: float,
        sizes: range,
        route_name: str,
        channels: Sequence[Channel],
    ) -> None:
        """Hold one window's records until ``env``'s clock reaches their
        ends: record ``i`` moves ``sizes[i]`` bytes over ``channels`` of
        route ``route_name``, took ``latency + sizes[i] / bandwidth`` on
        the wire and ends at ``ends[i]`` (ascending)."""
        import numpy as np

        self._env = env
        self._seq += 1
        ends = np.asarray(ends, dtype=float)
        if len(ends):
            columns = (ends, latency, bandwidth, sizes, route_name, channels)
            heappush(self._windows, (float(ends[0]), self._seq, 0, columns))

    def settle(self) -> None:
        """Merge the deferred records that have ended by now.

        The due windows leave the heap together and are merged in
        slices of at most ``_SLICE`` records each, which bounds the
        merge's scratch arrays.  Where a slice leaves due records
        behind, every slice stops before the first of them in (end,
        window) order, so what is merged is always the earliest of what
        is due.
        """
        windows = self._windows
        if not windows:
            return
        now = self._env.now
        while windows and windows[0][0] <= now:
            due = []
            while windows and windows[0][0] <= now:
                _, window, index, columns = heappop(windows)
                due.append((window, index, columns))
            due.sort(key=itemgetter(0))
            stops, cut = [], None
            for window, index, columns in due:
                ends = columns[0]
                due_stop = int(ends.searchsorted(now, "right"))
                stop = min(index + _SLICE, due_stop)
                if stop < due_stop:
                    first_left = (float(ends[stop]), window)
                    cut = first_left if cut is None else min(cut, first_left)
                stops.append(stop)
            if cut is not None:
                cut_end, cut_window = cut
                stops = [
                    index + int(columns[0][index:stop].searchsorted(
                        cut_end, "right" if window <= cut_window else "left"
                    ))
                    for (window, index, columns), stop in zip(due, stops)
                ]
            self._merge([
                (window, columns, index, stop)
                for (window, index, columns), stop in zip(due, stops)
                if stop > index
            ])
            for (window, index, columns), stop in zip(due, stops):
                ends = columns[0]
                if stop < len(ends):
                    heappush(windows, (float(ends[stop]), window, stop, columns))

    def _merge(self, slices: list) -> None:
        """Add records ``index … stop - 1`` of each ``(window, columns,
        index, stop)`` of ``slices``, which come in window order, in
        (end, window, index) order: a stable sort on the end times
        keeps a tie in window order."""
        import numpy as np

        ends, sizes, durations, owners = [], [], [], []
        for k, (_, columns, index, stop) in enumerate(slices):
            window_ends, latency, bandwidth, window_sizes = columns[:4]
            part = window_sizes[index:stop]
            nbytes = np.arange(part.start, part.stop, part.step).astype(float)
            ends.append(window_ends[index:stop])
            sizes.append(nbytes)
            durations.append(latency + nbytes / bandwidth)
            owners.append(np.full(stop - index, k))
        order = np.concatenate(ends).argsort(kind="stable")
        sizes = np.concatenate(sizes)[order]
        durations = np.concatenate(durations)[order]
        owners = np.concatenate(owners)[order]
        self._count += len(order)
        self._bytes_total = add_in_order(self._bytes_total, sizes)
        self._busy_time = add_in_order(self._busy_time, durations)
        # Each route's bytes in merged order; a new route joins
        # ``per_route`` where its first record ends.
        labels = [columns[4] for _, columns, _, _ in slices]
        routes = []
        for label in dict.fromkeys(labels):
            mine = np.array([other == label for other in labels])[owners]
            routes.append((int(mine.argmax()), label, sizes[mine]))
        per_route = self._per_route
        for _, label, nbytes in sorted(routes, key=itemgetter(0)):
            per_route[label] = add_in_order(per_route.get(label, 0.0), nbytes)
        if self.listeners:
            for k, nbytes, duration in zip(owners.tolist(), sizes.tolist(), durations.tolist()):
                columns = slices[k][1]
                for listener in self.listeners:
                    listener(columns[4], columns[5], nbytes, duration)

    @property
    def count(self) -> int:
        self.settle()
        return self._count

    @count.setter
    def count(self, value: int) -> None:
        self.settle()
        self._count = value

    @property
    def bytes_total(self) -> float:
        self.settle()
        return self._bytes_total

    @property
    def busy_time(self) -> float:
        self.settle()
        return self._busy_time

    @property
    def per_route(self) -> dict[str, float]:
        self.settle()
        return self._per_route


class Transfer:
    """A single DMA copy of ``nbytes`` from ``src`` to ``dst``.

    Parameters
    ----------
    env, interconnect:
        Simulation context and server wiring.
    src, dst:
        Device identifiers known to the interconnect (GPU / HostDRAM).
    nbytes:
        Payload size.  A transfer of zero bytes completes immediately.
    pieces:
        Number of separate buffers the payload is scattered across.
        Each piece pays the route's setup latency — this is how naive
        per-tensor offloading of small KV buffers loses NVLink bandwidth
        (the motivation for AQUA's gather/scatter batching, §5).
    stats:
        Optional aggregate collector.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` hub; completed
        copies report per-channel bytes/contention and, when ``ctx`` is
        set, per-hop ``dma`` spans and flow steps on ``link:*`` tracks.
    ctx:
        Trace ID of the request this copy serves (``None`` when the
        copy is not request-scoped — producer swaps, cache loads).
    """

    def __init__(
        self,
        env: Environment,
        interconnect: Interconnect,
        src: Hashable,
        dst: Hashable,
        nbytes: float,
        pieces: int = 1,
        stats: Optional[TransferStats] = None,
        telemetry=None,
        ctx: Optional[int] = None,
    ) -> None:
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        if pieces < 1:
            raise ValueError(f"pieces must be >= 1, got {pieces}")
        self.env = env
        self.interconnect = interconnect
        self.src = src
        self.dst = dst
        self.nbytes = float(nbytes)
        self.pieces = pieces
        self.stats = stats
        self.telemetry = telemetry
        self.ctx = ctx
        self.started_at: Optional[float] = None
        #: When every channel grant was held — ``acquired_at - started_at``
        #: is the link-contention wait this copy paid.
        self.acquired_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    @property
    def duration(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def _endpoints(self) -> list[GPU]:
        return [dev for dev in (self.src, self.dst) if isinstance(dev, GPU)]

    def wire_time(self, route: Route) -> float:
        """Uncontended on-the-wire time of this copy on ``route``."""
        return route.wire_time(self.nbytes, self.pieces)

    def _check_health(self, route: Route, endpoints: list[GPU]) -> None:
        """Raise if a fault blocks this copy.

        Health is checked once, at transfer start: copies already on
        the wire when a fault lands run to completion (a degraded
        link only slows *new* transfers; a stall or GPU failure only
        rejects *new* transfers).  This matches how DMA engines drain
        in flight descriptors and keeps the simulation deterministic.
        """
        for gpu in endpoints:
            if gpu.failed:
                raise GpuFailedError(f"endpoint {gpu.name} has failed")
            if gpu.compute.window is not None:
                # A copy changes its endpoints' dilation() while it runs.
                ensure_unheld(gpu.compute, f"a copy to or from {gpu.name}")
        stalled = [ch.name for ch in route.channels if ch.stalled]
        if stalled:
            raise TransferStalled(f"stalled channel(s): {', '.join(stalled)}")

    def run(self) -> Generator:
        """Execute the copy; use as ``yield from transfer.run()``.

        Raises
        ------
        GpuFailedError
            If either endpoint GPU is marked failed at start.
        TransferStalled
            If any channel on the route is stalled at start.
        """
        self.started_at = self.env.now
        if self.nbytes == 0:
            self.acquired_at = self.finished_at = self.env.now
            return self

        route = self.interconnect.route(self.src, self.dst)
        endpoints = self._endpoints()
        self._check_health(route, endpoints)
        # Deadlock-free acquisition: all claims issued together, in
        # sorted channel order, each decided at once in its channel's
        # FIFO order.  Free channels are held with no event; only the
        # claims that queued are awaited, so we proceed once all are held.
        ordered = route.sorted_channels
        requests = [ch.engine.request() for ch in ordered]
        try:
            for request in requests:
                if not request.processed:
                    yield request
            self.acquired_at = self.env.now
            duration = self.wire_time(route)
            for gpu in endpoints:
                gpu.active_copies += 1
            try:
                # Bare-delay yield: same ordering as env.timeout(duration)
                # without a Timeout allocation per copy.
                yield duration
            finally:
                for gpu in endpoints:
                    gpu.active_copies -= 1
            # Every hop carries the full payload: a 2-hop NVSwitch route
            # moves the bytes over the egress *and* the ingress port, so
            # each channel's ledger gets the whole transfer (splitting it
            # per hop under-counted multi-hop routes).
            for channel in ordered:
                channel.record(self.nbytes)
            self.finished_at = self.env.now
            if self.stats is not None:
                self.stats.record(route.label, self.nbytes, duration, channels=ordered)
            if self.telemetry is not None:
                self.telemetry.record_transfer(self, ordered)
        finally:
            for channel, request in zip(ordered, requests):
                channel.engine.release(request)
        return self


def copy(
    env: Environment,
    interconnect: Interconnect,
    src: Hashable,
    dst: Hashable,
    nbytes: float,
    pieces: int = 1,
    stats: Optional[TransferStats] = None,
    telemetry=None,
    ctx: Optional[int] = None,
) -> Generator:
    """Convenience wrapper: ``yield from copy(env, ic, a, b, n)``.

    Forwards ``telemetry`` and ``ctx`` to the underlying
    :class:`Transfer` so convenience-path copies keep their per-hop
    spans and request attribution (they used to be dropped here).
    """
    transfer = Transfer(
        env, interconnect, src, dst, nbytes,
        pieces=pieces, stats=stats, telemetry=telemetry, ctx=ctx,
    )
    return (yield from transfer.run())
