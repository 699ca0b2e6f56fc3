"""Shared-resource primitives built on the simulation kernel.

These model contention: a :class:`Resource` is a pool of identical slots
granted first come, first served (e.g. a DMA copy engine with one
channel, or a GPU's compute stream).

One call claims a slot, :meth:`Resource.request`, and it decides the
grant at the call, in FIFO order.  A free slot is held at once, with no
heap entry; a claim that queues is granted by :meth:`Resource.release`
with an event, so its holder resumes later in that instant.

A decode window (:class:`~repro.serving.FlexGenEngine`) that accounts
its steps ahead of time holds its GPU streams and DMA channels by
naming itself their :attr:`Resource.window`.  Until it ends, a claim on
such a resource, or a change to the device behind it, raises
:class:`WindowConflict`: the window's accounts would be wrong.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.sim.events import PROCESSED, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment


class WindowConflict(RuntimeError):
    """Something touched a resource an open decode window holds."""


def ensure_unheld(resource: "Resource", action: str) -> None:
    """Raise :class:`WindowConflict` if a window holds ``resource``."""
    if resource.window is not None:
        raise WindowConflict(f"{action} inside the decode window of {resource.window}")


class Request(Event):
    """A claim on a :class:`Resource` slot: an event that triggers when
    the slot is granted, or one already processed when the slot was
    free at the claim.

    Usable as a context manager inside a process::

        with resource.request() as req:
            yield req
            ...  # the slot is held here
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource

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
        #: The decode window holding this resource, or ``None``.
        self.window = None

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    def request(self) -> Request:
        """Claim a slot, holding it at once when one is free.

        With a free slot and nobody queued, the returned request is
        already held and processed: no grant event is scheduled, and
        ``yield``-ing it continues at once.  Otherwise it queues FIFO
        behind every earlier claim, and :meth:`release` grants it with
        an event.
        """
        if self.window is not None:
            ensure_unheld(self, "a claim")
        request = Request(self)
        if len(self.users) < self.capacity and not self.queue:
            self.users.append(request)
            request.callbacks = None
            request._ok = True
            request._state = PROCESSED
        else:
            self.queue.append(request)
        return request

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

