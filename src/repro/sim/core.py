"""The event loop at the heart of the simulation kernel.

Performance notes
-----------------
Everything the reproduction measures is bottlenecked by how many events
this loop can retire per wall-clock second, so :meth:`Environment.run`
inlines the pop/dispatch cycle instead of calling :meth:`step` per
event (one method call, one ``try``/``except`` and one :meth:`peek`
saved per event adds up to ~30% at this call rate).  :meth:`step` keeps
the one-event-at-a-time semantics for direct callers and must stay
behaviourally identical to one iteration of the inlined loop.

The schedule is a binary heap of ``(time, seq, event)`` entries where
``seq = priority * _SEQ_STRIDE + eid`` folds the URGENT/NORMAL
tie-break and the FIFO insertion counter into one integer: URGENT
events sort before NORMAL events at the same timestamp, and within a
priority class insertion order wins.  ``_SEQ_STRIDE`` (2**52) is
unreachable by any real event count, and the packed entry is one
element smaller (and one comparison cheaper) than the previous
``(time, priority, eid, event)`` tuple.  :class:`~repro.sim.events.Timeout`
and ``Event.succeed`` push entries inline with the same layout.

A process may ``yield`` a bare ``float`` instead of an
:class:`~repro.sim.events.Timeout` — an anonymous sleep that schedules
the process's bound resume callback directly on the heap, skipping the
Timeout allocation and its callback list entirely.  Ordering is
bit-identical to ``yield env.timeout(delay)`` (same eid consumption,
same timestamp, NORMAL priority); the only semantic difference is that
a bare-sleeping process cannot be interrupted.  The dispatch loops
recognise these entries by ``type(entry) is MethodType``.

Monitors (:meth:`add_monitor`) cost a single truthiness check per event
when none are registered.  Domains (:class:`Domain`) cost scheduling
and dispatch nothing: :meth:`Environment.horizon` reads an entry's
domain off its owner when it visits it.  Event ordering is locked down
by ``tests/test_sim_ordering.py`` and, end to end, by the golden audit
digest in ``tests/test_determinism_golden.py``.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from types import MethodType
from typing import Any, Callable, Optional

from repro.sim.events import (
    PENDING,
    PROCESSED,
    TRIGGERED,
    Condition,
    Event,
    Process,
    SimulationError,
    Timeout,
    Wake,
    _OK_NONE,
    _timeout_factory,
)

#: Scheduling priorities.  URGENT events (process initialisation,
#: interrupts) run before NORMAL events scheduled for the same time.
URGENT = 0
NORMAL = 1

#: Priority stride for the packed heap-entry sequence number (see module
#: docstring).  ``events._NORMAL_SEQ`` must equal ``NORMAL * _SEQ_STRIDE``.
_SEQ_STRIDE = 1 << 52

_INF = float("inf")


class EmptySchedule(Exception):
    """Internal: raised by :meth:`Environment.step` when no events remain."""


class Domain:
    """A set of GPUs that only its own activity and global actors touch
    or read: a consumer and the producers it offloads to.

    Each GPU starts in a domain of its own; domains merge (union-find)
    and never split.  The engine processes on a domain's GPUs, their
    kernels and the processes that submit to those engines carry it as
    their ``domain``; every other process and event is global.
    """

    __slots__ = ("_parent",)

    def __init__(self) -> None:
        self._parent = self

    def root(self) -> "Domain":
        """The domain's representative: equal for merged domains."""
        domain = self
        while domain._parent is not domain:
            domain._parent = domain = domain._parent._parent
        return domain

    def merge(self, other: "Domain") -> None:
        """Make ``other`` and this one domain."""
        other.root()._parent = self.root()


class Environment:
    """A discrete-event simulation environment.

    The environment owns the virtual clock (:attr:`now`) and the event
    queue.  Use :meth:`process` to start processes, :meth:`timeout` to
    create delays and :meth:`run` to execute the simulation.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock, in seconds.

    Notes
    -----
    The event factories are instance attributes bound in ``__init__``
    rather than methods:

    * ``env.event()`` — create a new untriggered :class:`Event`;
    * ``env.timeout(delay, value=None)`` — an event that triggers
      ``delay`` seconds from now;
    * ``env.process(generator)`` — start a :class:`Process` from a
      generator and return it.

    A ``functools.partial`` over the event class costs one Python frame
    less per call than a method, and ``__slots__`` below makes the
    per-event ``_now``/``_eid``/``_active_process`` stores slot writes
    instead of dict writes.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_eid",
        "_events_processed",
        "_active_process",
        "_monitors",
        "_until",
        "_stop",
        "event",
        "timeout",
        "process",
    )

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: Never rebound — ``_timeout_factory`` captures it once.
        self._queue: list[tuple[float, int, Event]] = []
        self._eid = 0
        self._events_processed = 0
        self._active_process: Optional[Process] = None
        #: Per-event observers (see :meth:`add_monitor`).  Empty in the
        #: common case, so the event loop pays one truthiness check.
        self._monitors: list[Callable[[float], None]] = []
        #: When the caller next looks at the world: the stop time of the
        #: last ``run(until=number)``, or the event time of the last
        #: :meth:`step` (see :meth:`horizon`).
        self._until = _INF
        #: The event a ``run(until=event)`` in progress stops at.
        self._stop: Optional[Event] = None
        # Event factories (see class docstring): ``partial`` / the
        # timeout closure skip one Python frame per event created,
        # which is material at benchmark rates.
        self.event = partial(Event, self)
        self.timeout = _timeout_factory(self)
        self.process = partial(Process, self)

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    @property
    def events_processed(self) -> int:
        """Lifetime count of events this environment has retired.

        An explicit counter maintained by the event loop, so
        cancelled/defused events that were never popped do not count.
        The hot loops in :meth:`run` accumulate it in a local and flush
        in a ``finally`` block, so the value is only guaranteed current
        between :meth:`run` / :meth:`step` calls — which is when the
        repository benchmark (``bench/``) reads it to report
        ``sim.events`` and ``sim.wall_us_per_event``.
        """
        return self._events_processed

    # ------------------------------------------------------------------
    # Scheduling and execution
    # ------------------------------------------------------------------
    def _schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        self._eid = eid = self._eid + 1
        heappush(self._queue, (self._now + delay, priority * _SEQ_STRIDE + eid, event))

    def add_monitor(self, fn: Callable[[float], None]) -> None:
        """Register an observer invoked after every processed event.

        Monitors receive the current simulation time.  They must not
        schedule events or mutate simulation state — they exist for
        invariant checkers (:mod:`repro.audit`) that want to inspect the
        world at every quiescent point of the event loop.
        """
        self._monitors.append(fn)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        return self._queue[0][0] if self._queue else _INF

    @property
    def scheduled(self) -> int:
        """Events scheduled so far: the insertion counter whose order
        breaks ties between events due at the same instant."""
        return self._eid

    def scheduled_at(self, when: float) -> list[int]:
        """Insertion counters of the NORMAL events due at exactly
        ``when`` and not yet processed.  Scans the whole schedule."""
        return [
            seq - _SEQ_STRIDE
            for time, seq, _ in self._queue
            if time == when and seq >= _SEQ_STRIDE
        ]

    def succeed_at(self, event: Event, when: float) -> None:
        """Succeed a pending ``event`` now, to be processed at ``when``.

        The event sorts among the NORMAL events due at ``when`` by when
        it was scheduled, as a ``timeout`` created now would, but it
        lands on ``when`` exactly instead of on ``now + delay``.
        """
        if event._state != PENDING:
            raise SimulationError(f"{event!r} has already been triggered")
        if when < self._now:
            raise ValueError(f"when ({when}) must not be before now ({self._now})")
        event._ok = True
        event._state = TRIGGERED
        self._eid = eid = self._eid + 1
        heappush(self._queue, (when, NORMAL * _SEQ_STRIDE + eid, event))

    def horizon(self, domain: Optional[Domain] = None) -> tuple[float, list[float]]:
        """The earliest time anything ``domain`` can see may act or
        look, and the times of the other domains' entries due before it.

        The horizon is the earliest of the next scheduled entry of
        ``domain`` or of a global actor, the stop time of a
        ``run(until=number)`` in progress (its caller reads the world
        then), and now under a per-event monitor or :meth:`step`.  A
        process of ``domain`` may account its work ending before the
        horizon ahead of time without anyone being able to tell.

        An entry's owners are the objects its callbacks are bound to
        (for a condition, its waiters), or the sleeping process of a
        bare-delay sleep.  An entry belongs to another domain when every
        owner carries a ``domain`` not merged with ``domain``.  It is
        global when it has no callbacks, when it or an owner is the
        event a ``run(until=event)`` stops at, or when an owner carries
        no domain (an untagged process, a condition nobody waits on).
        With ``domain`` ``None`` every entry counts.

        The entries are visited best first from the heap root, and only
        those due before the horizon.  The times returned are the
        skipped entries', in order, but for :class:`Wake` entries.
        """
        if self._monitors:
            return self._now, []
        until = self._until
        queue = self._queue
        if not queue or queue[0][0] >= until:
            return until, []
        if domain is None:
            return queue[0][0], []
        root = domain.root()
        stop = self._stop
        skipped = []
        size = len(queue)
        frontier = []  # (time, seq, index) of the entries next in line
        index = 0
        while True:
            time, _, entry = queue[index]
            if time >= until:
                break
            if entry.__class__ is MethodType:  # a bare-delay sleep's resume
                owners = [entry.__self__]
            elif entry is stop or not entry.callbacks:
                return time, skipped
            else:
                owners = [getattr(callback, "__self__", None) for callback in entry.callbacks]
            for owner in owners:
                if owner is stop:
                    return time, skipped
                if isinstance(owner, Condition) and owner.callbacks:
                    # A condition acts only by waking its waiters.
                    owners += [getattr(callback, "__self__", None) for callback in owner.callbacks]
                    continue
                other = getattr(owner, "domain", None)
                if other is None or other is root or other.root() is root:
                    return time, skipped
            if entry.__class__ is not Wake:
                skipped.append(time)
            for child in (2 * index + 1, 2 * index + 2):
                if child < size:
                    heappush(frontier, (*queue[child][:2], child))
            if not frontier:
                break
            index = heappop(frontier)[2]
        return until, skipped

    def step(self) -> None:
        """Process the next scheduled event.

        Raises
        ------
        EmptySchedule
            If no events remain.
        """
        try:
            self._now, _, event = heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None
        self._events_processed += 1
        self._until = self._now  # the caller looks after every event

        if event.__class__ is MethodType:
            # Bare-delay sleep: the entry is the process's resume
            # callback itself (see ``Process._resume``).
            event(_OK_NONE)
            if self._monitors:
                for monitor in self._monitors:
                    monitor(self._now)
            return

        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            for callback in callbacks:
                callback(event)
        event._state = PROCESSED

        if self._monitors:
            for monitor in self._monitors:
                monitor(self._now)

        if not event._ok and not event._defused:
            # A failure nobody waited for: surface it to the caller of run().
            raise event._value

    def run(self, until: float | Event | None = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` runs until no events remain.  A number runs until the
            clock reaches that time.  An :class:`Event` runs until that
            event is processed and returns its value.
        """
        stop_event: Event | None = None
        stop_time = _INF
        if isinstance(until, Event):
            stop_event = until
            if stop_event._state == PROCESSED:
                if not stop_event._ok:
                    raise stop_event._value
                return stop_event._value
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError(
                    f"until ({stop_time}) must not be before now ({self._now})"
                )

        self._until = stop_time
        self._stop = stop_event
        # The hot loops: one iteration per event, everything localised,
        # specialised per stop condition so the common cases pay no dead
        # checks.  Each must stay behaviourally identical to
        # `while True: self.step()` plus the docstring's stop checks.
        queue = self._queue
        pop = heappop
        monitors = self._monitors  # mutated in place, never rebound
        processed = PROCESSED
        mtype = MethodType
        ok_none = _OK_NONE
        # The retirement counter accumulates in a local (one int add per
        # event instead of an attribute RMW) and flushes in ``finally``
        # so it stays exact even when a callback raises out of the loop.
        n_done = self._events_processed

        if stop_event is None and stop_time == _INF:
            # Run until the schedule drains.
            try:
                while queue:
                    self._now, _, event = pop(queue)
                    n_done += 1
                    if event.__class__ is mtype:
                        # Bare-delay sleep: the entry is the process's
                        # resume callback itself.
                        event(ok_none)
                        if monitors:
                            now = self._now
                            for monitor in monitors:
                                monitor(now)
                        continue
                    callbacks = event.callbacks
                    event.callbacks = None
                    if len(callbacks) == 1:  # single waiter: skip iterator setup
                        callbacks[0](event)
                    else:
                        for callback in callbacks:
                            callback(event)
                    event._state = processed
                    if monitors:
                        now = self._now
                        for monitor in monitors:
                            monitor(now)
                    if not event._ok and not event._defused:
                        # A failure nobody waited for: surface it to the caller.
                        raise event._value
            finally:
                self._events_processed = n_done
            return None

        if stop_event is None:
            # Run until the clock reaches ``stop_time``.
            try:
                while queue and queue[0][0] <= stop_time:
                    self._now, _, event = pop(queue)
                    n_done += 1
                    if event.__class__ is mtype:
                        # Bare-delay sleep: the entry is the process's
                        # resume callback itself.
                        event(ok_none)
                        if monitors:
                            now = self._now
                            for monitor in monitors:
                                monitor(now)
                        continue
                    callbacks = event.callbacks
                    event.callbacks = None
                    if len(callbacks) == 1:  # single waiter: skip iterator setup
                        callbacks[0](event)
                    else:
                        for callback in callbacks:
                            callback(event)
                    event._state = processed
                    if monitors:
                        now = self._now
                        for monitor in monitors:
                            monitor(now)
                    if not event._ok and not event._defused:
                        raise event._value
            finally:
                self._events_processed = n_done
            self._now = stop_time
            return None

        # Run until ``stop_event`` has been processed.
        try:
            while True:
                if not queue:
                    raise SimulationError(
                        "simulation ended before the awaited event triggered"
                    ) from None
                self._now, _, event = pop(queue)
                n_done += 1
                if event.__class__ is mtype:
                    # Bare-delay sleep: cannot process ``stop_event``, so the
                    # end-of-loop stop check is safely skipped too.
                    event(ok_none)
                    if monitors:
                        now = self._now
                        for monitor in monitors:
                            monitor(now)
                    continue
                callbacks = event.callbacks
                event.callbacks = None
                if len(callbacks) == 1:  # single waiter: skip iterator setup
                    callbacks[0](event)
                else:
                    for callback in callbacks:
                        callback(event)
                event._state = processed
                if monitors:
                    now = self._now
                    for monitor in monitors:
                        monitor(now)
                if not event._ok and not event._defused:
                    raise event._value
                if stop_event._state == processed:
                    if not stop_event._ok:
                        raise stop_event._value
                    return stop_event._value
        finally:
            self._events_processed = n_done

    def __repr__(self) -> str:
        return f"<Environment now={self._now} pending={len(self._queue)}>"
