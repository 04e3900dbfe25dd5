"""Discrete-event simulation core: events, the event queue, and the clock.

This module implements a deterministic discrete-event engine in the style
of SimPy, written from scratch so that the MPI runtime simulator has no
external dependencies.  The engine is the substrate for everything in
:mod:`repro`: simulated threads, the network fabric, and the MPI progress
engine are all processes scheduled here.

Determinism
-----------
Events scheduled for the same simulated time are processed in a total
order given by ``(time, priority, sequence)`` where ``sequence`` is a
monotonically increasing insertion counter.  Given identical inputs and
seeds, two runs produce byte-identical traces.

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> def hello(env):
...     yield env.timeout(3.0)
...     return env.now
>>> proc = env.process(hello(env))
>>> env.run()
>>> proc.value
3.0
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "PENDING",
    "URGENT",
    "HIGH",
    "NORMAL",
    "LOW",
    "Event",
    "Timeout",
    "Environment",
    "SimulationError",
    "StopSimulation",
]


class _PendingType:
    """Sentinel for the value of an event that has not been triggered."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug repr
        return "<PENDING>"


#: Unique sentinel object marking an untriggered event value.
PENDING = _PendingType()

# Scheduling priorities.  Lower sorts earlier at equal simulated time.
URGENT = 0
HIGH = 1
NORMAL = 2
LOW = 3


class SimulationError(RuntimeError):
    """Raised for violations of engine invariants (double trigger, ...)."""


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Environment.run` at a target event."""

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


class Event:
    """A happening at a point in simulated time.

    An event is *pending* until it is triggered (via :meth:`succeed` or
    :meth:`fail`), at which point it is scheduled on the environment's
    queue; once the queue processes it, its callbacks run and it becomes
    *processed*.  Processes wait on events by ``yield``-ing them.

    Attributes
    ----------
    env:
        Owning :class:`Environment`.
    callbacks:
        List of callables invoked with the event when processed, or
        ``None`` once the event has been processed.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value. Raises if the event is still pending."""
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self, priority=priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised in every process waiting on this event
        unless a callback marks the event as *defused*.
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self, priority=priority)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (callback helper)."""
        if event._ok:
            self.succeed(event._value)
        else:
            event._defused = True
            self.fail(event._value)

    def __repr__(self) -> str:  # pragma: no cover - debug repr
        state = (
            "pending"
            if self._value is PENDING
            else ("processed" if self.processed else "triggered")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        env.schedule(self, NORMAL, delay)


class Environment:
    """The simulation clock and event queue.

    Parameters
    ----------
    initial_time:
        Starting value of the simulated clock (seconds).
    """

    __slots__ = ("_now", "_queue", "_eid", "active_process")

    #: Process-wide count of environments ever constructed — the test
    #: hook behind the analytic backend's zero-simulation guarantee
    #: (``--backend analytic`` must leave this untouched).
    instances_created = 0

    def __init__(self, initial_time: float = 0.0):
        Environment.instances_created += 1
        self._now = float(initial_time)
        self._queue: List = []
        self._eid = itertools.count()
        self.active_process = None  # set by Process while resuming

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling ---------------------------------------------------------
    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Enqueue a triggered event ``delay`` seconds from now."""
        heappush(self._queue, (self._now + delay, priority, next(self._eid), event))

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> "Process":
        """Launch ``generator`` as a simulated process."""
        from .process import Process

        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> Event:
        """Event that succeeds when all ``events`` have succeeded."""
        from .primitives import AllOf

        return AllOf(self, list(events))

    def any_of(self, events: Iterable[Event]) -> Event:
        """Event that succeeds when any of ``events`` has succeeded."""
        from .primitives import AnyOf

        return AnyOf(self, list(events))

    # -- execution ------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the next scheduled event (:meth:`run` inlines this)."""
        if not self._queue:
            raise SimulationError("step() on an empty schedule")
        self._now, _, _, event = heappop(self._queue)
        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:
            raise SimulationError(f"{event!r} processed twice")
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            raise event._value

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None``
                run until no events remain;
            a number
                run until the clock reaches that time;
            an :class:`Event`
                run until that event is processed, returning its value.
        """
        stop_value: Any = None
        if until is not None:
            if isinstance(until, Event):
                if until.callbacks is None:
                    return until.value

                def _stop(event: Event) -> None:
                    raise StopSimulation(event.value)

                until.callbacks.append(_stop)
            else:
                at = float(until)
                if at < self._now:
                    raise ValueError(
                        f"until ({at}) must not be before now ({self._now})"
                    )
                stop_ev = Event(self)
                stop_ev._ok = True
                stop_ev._value = None
                stop_ev.callbacks.append(
                    lambda e: (_ for _ in ()).throw(StopSimulation(None))
                )
                heappush(self._queue, (at, URGENT, next(self._eid), stop_ev))
        # The body of step(), inlined: one dispatch per event is the
        # simulator's innermost loop.
        queue = self._queue
        pop = heappop
        try:
            while queue:
                self._now, _, _, event = pop(queue)
                callbacks, event.callbacks = event.callbacks, None
                if callbacks is None:
                    raise SimulationError(f"{event!r} processed twice")
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
        except StopSimulation as stop:
            stop_value = stop.value
        else:
            if isinstance(until, Event) and not until.triggered:
                raise SimulationError(
                    "run(until=event) exhausted the schedule before the "
                    "event was triggered (deadlock?)"
                )
        return stop_value

    def __repr__(self) -> str:  # pragma: no cover - debug repr
        return f"<Environment now={self._now:.9f} queued={len(self._queue)}>"
