"""Shared-resource primitives built on the simulation kernel.

These model contention: a :class:`Resource` is a pool of identical slots
(e.g. a DMA copy engine with one channel), a :class:`PriorityResource`
serves lower-priority-number requests first, and a :class:`Store` is a
FIFO queue of items (e.g. a request queue feeding a serving engine).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Usable as a context manager inside a process::

        with resource.request() as req:
            yield req
            ...  # the slot is held here
    """

    __slots__ = ("resource", "priority", "_order")

    def __init__(self, resource: "Resource", priority: float = 0.0) -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.priority = priority
        self._order = resource._order_counter
        resource._order_counter += 1
        resource._request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request from the wait queue."""
        self.resource._cancel(self)


class Resource:
    """A pool of ``capacity`` identical slots with FIFO granting."""

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: list[Request] = []
        self.queue: list[Request] = []
        self._order_counter = 0

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    def request(self, priority: float = 0.0) -> Request:
        """Claim a slot.  The returned event triggers when granted."""
        return Request(self, priority)

    def release(self, request: Request) -> None:
        """Return a slot previously granted to ``request``.

        Releasing an ungranted request cancels it instead; releasing an
        unrelated request is a no-op, which makes the context-manager
        form safe even if the wait was interrupted.
        """
        if request in self.users:
            self.users.remove(request)
            self._grant_next()
        else:
            self._cancel(request)

    # ------------------------------------------------------------------
    def _sort_key(self, request: Request) -> tuple[float, int]:
        return (request.priority, request._order)

    def _request(self, request: Request) -> None:
        if len(self.users) < self.capacity and not self.queue:
            self.users.append(request)
            request.succeed()
        else:
            queue = self.queue
            if queue and request.priority < queue[-1].priority:
                # Out-of-order priority: re-sort (stable, so FIFO ties
                # are preserved).  Equal/default priorities — the common
                # case for DMA channels — append in FIFO position
                # already and skip the sort entirely.
                queue.append(request)
                queue.sort(key=self._sort_key)
            else:
                queue.append(request)

    def _cancel(self, request: Request) -> None:
        try:
            self.queue.remove(request)
        except ValueError:
            pass

    def _grant_next(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            nxt = self.queue.pop(0)
            self.users.append(nxt)
            nxt.succeed()

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} users={len(self.users)}/{self.capacity} "
            f"queued={len(self.queue)}>"
        )


class PriorityResource(Resource):
    """A :class:`Resource` that grants waiting requests by priority.

    Lower ``priority`` values are served first; ties break FIFO.
    """


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item
        store._put(self)


class StoreGet(Event):
    __slots__ = ()

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        store._get(self)


class Store:
    """An unbounded-or-bounded FIFO buffer of items."""

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: list[Any] = []
        self._putters: list[StorePut] = []
        self._getters: list[StoreGet] = []

    def put(self, item: Any) -> StorePut:
        """Insert ``item``; the event triggers once there is room."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Remove the oldest item; the event triggers with the item."""
        return StoreGet(self)

    def cancel_get(self, get_event: StoreGet) -> None:
        """Withdraw a pending get (used when a waiter is interrupted)."""
        try:
            self._getters.remove(get_event)
        except ValueError:
            pass

    @property
    def size(self) -> int:
        return len(self.items)

    # ------------------------------------------------------------------
    def _put(self, event: StorePut) -> None:
        if len(self.items) < self.capacity:
            self.items.append(event.item)
            event.succeed()
            self._match()
        else:
            self._putters.append(event)

    def _get(self, event: StoreGet) -> None:
        self._getters.append(event)
        self._match()

    def _match(self) -> None:
        while self._getters and self.items:
            getter = self._getters.pop(0)
            getter.succeed(self.items.pop(0))
            while self._putters and len(self.items) < self.capacity:
                putter = self._putters.pop(0)
                self.items.append(putter.item)
                putter.succeed()

    def __repr__(self) -> str:
        return f"<Store items={len(self.items)} getters={len(self._getters)}>"
