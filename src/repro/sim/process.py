"""Generator-based simulated processes.

A :class:`Process` wraps a Python generator.  The generator ``yield``-s
:class:`~repro.sim.core.Event` objects; the process sleeps until the event
fires, then resumes with the event's value (or has the event's exception
thrown into it).  A process is itself an event that triggers when the
generator returns, making ``yield env.process(...)`` and process joining
natural.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

import itertools

from .core import PENDING, URGENT, Environment, Event, SimulationError

__all__ = ["Process", "Interrupt"]

_process_serials = itertools.count(1)


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    @property
    def cause(self) -> Any:
        """The value passed to :meth:`Process.interrupt`."""
        return self.args[0]


class Process(Event):
    """An active simulation entity driven by a generator.

    Notes
    -----
    The process event succeeds with the generator's return value and fails
    with the exception if the generator raises.  A failure propagates to
    the environment's :meth:`~repro.sim.core.Environment.step` (crashing
    the run) unless some other process waits on this one.
    """

    __slots__ = ("_generator", "_target", "name", "serial")

    def __init__(self, env: Environment, generator: Generator, name: Optional[str] = None):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: Stable unique identity (object ids get recycled by CPython).
        self.serial = next(_process_serials)
        # Kick-start the process at the current time with an initial event.
        init = Event(env)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume)
        env.schedule(init, priority=URGENT)
        self._target: Optional[Event] = init

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on (or ``None``)."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process as soon as possible.

        Interrupting a completed process is an error; interrupting a
        process twice queues both interrupts.
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has terminated; cannot interrupt")
        if self.env.active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks.append(self._resume)
        self.env.schedule(event, priority=URGENT)

    # ------------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        env = self.env
        env.active_process = self
        # If we were interrupted, unsubscribe from the event we were
        # genuinely waiting on (it may still fire later; ignore it then).
        target = self._target
        if (
            target is not None
            and target is not event
            and target.callbacks is not None
        ):
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None

        generator = self._generator
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    event._defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                env.schedule(self)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                env.schedule(self)
                break

            if not isinstance(next_event, Event):
                error = SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                self._ok = False
                self._value = error
                env.schedule(self)
                break

            if next_event.callbacks is not None:
                # Pending or triggered-but-unprocessed: subscribe and sleep.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                break
            # Already processed: consume its value synchronously.
            event = next_event

        env.active_process = None

    def __repr__(self) -> str:  # pragma: no cover - debug repr
        state = "alive" if self.is_alive else "finished"
        return f"<Process {self.name!r} {state}>"
