"""Synchronization primitives for simulated thread teams.

The pipelined-communication benchmark (paper Fig. 3) is structured around
thread barriers; :class:`SimBarrier` is the cyclic barrier used by
:class:`repro.threads.team.ThreadTeam`.  :class:`CountdownLatch` models
the atomic partition counters of the MPICH partitioned implementation.
"""

from __future__ import annotations

from .core import Environment, Event, SimulationError

__all__ = ["SimBarrier", "CountdownLatch"]


class SimBarrier:
    """A cyclic barrier for ``parties`` processes.

    Each arriving process yields the event returned by :meth:`wait`; the
    event fires (for every party) when the last party arrives.  The
    barrier then resets for the next generation, so it is reusable across
    benchmark iterations.  The event value is the barrier *generation*
    (0-based), and the last arriving party receives ``True`` via the
    event's ``is_last`` attribute-style tuple ``(generation, is_last)``.
    """

    __slots__ = ("env", "parties", "name", "generation", "_arrived", "_event")

    def __init__(self, env: Environment, parties: int, name: str = ""):
        if parties < 1:
            raise ValueError("parties must be >= 1")
        self.env = env
        self.parties = parties
        self.name = name
        self.generation = 0
        self._arrived = 0
        self._event: Event = env.event()

    @property
    def waiting(self) -> int:
        """Number of parties currently blocked at the barrier."""
        return self._arrived

    def wait(self) -> Event:
        """Arrive at the barrier; yield the returned event to block."""
        self._arrived += 1
        if self._arrived > self.parties:
            raise SimulationError(
                f"barrier {self.name!r}: {self._arrived} arrivals for "
                f"{self.parties} parties"
            )
        event = self._event
        if self._arrived == self.parties:
            generation = self.generation
            self.generation += 1
            self._arrived = 0
            self._event = self.env.event()
            event.succeed(generation)
        return event


class CountdownLatch:
    """An atomic counter that fires an event on reaching zero.

    Models MPICH's per-message atomic partition counters (§3.2.2 of the
    paper): ``MPI_Pready`` decrements; when the count hits zero the
    message is sent.  ``count_down`` returns ``True`` to exactly one
    caller (the one that took the counter to zero).
    """

    __slots__ = ("env", "name", "_count", "done")

    def __init__(self, env: Environment, count: int, name: str = ""):
        if count < 0:
            raise ValueError("count must be >= 0")
        self.env = env
        self.name = name
        self._count = count
        self.done: Event = env.event()
        if count == 0:
            self.done.succeed()

    @property
    def count(self) -> int:
        return self._count

    def count_down(self, n: int = 1) -> bool:
        """Decrement by ``n``; returns True iff this call reached zero."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if self._count == 0:
            raise SimulationError(f"latch {self.name!r} already at zero")
        if n > self._count:
            raise SimulationError(
                f"latch {self.name!r}: count_down({n}) with count={self._count}"
            )
        self._count -= n
        if self._count == 0:
            self.done.succeed()
            return True
        return False
