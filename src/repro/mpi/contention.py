"""Shared-counter contention: the cost model for hot atomic cache lines.

Partitioned communication keeps shared state that many execution
contexts update concurrently: the per-message ``MPI_Pready`` counters on
the sender (§3.2.2) and the completion counter the receiver's progress
contexts decrement as internal messages land.  Each update is an atomic
RMW whose cost grows with the number of contexts fighting for the cache
line, and the updates themselves serialize (the line has one owner at a
time).

The contender count is the VCI lock model's
(:class:`repro.net.nic.ContentionWindow`): the larger of the **episode
peak** (the most simultaneous claimants since the counter was last idle)
and the **recent-agent window** (other contexts that touched the counter
within ``vci_agent_window``).
"""

from __future__ import annotations

from typing import Optional

from ..net import SystemParams
from ..net.nic import ContentionWindow
from ..sim import Environment, Lock

__all__ = ["ContendedAtomic"]


class ContendedAtomic:
    """A serialized atomic counter with contention-dependent cost."""

    def __init__(
        self,
        env: Environment,
        params: SystemParams,
        name: str = "",
        bounce: Optional[float] = None,
    ):
        self.env = env
        self.params = params
        self.name = name
        #: Cost added per contending context (defaults to the
        #: receive-side coefficient; Pready passes its own).
        self.bounce = (
            params.atomic_bounce_coeff if bounce is None else bounce
        )
        self._lock = Lock(env, name=name)
        self._contention = ContentionWindow(
            env, self._lock, params.vci_agent_window
        )
        self.updates = 0

    def update(self, extra_cost: float = 0.0):
        """Generator: perform one contended update in the caller's
        timeline; ``extra_cost`` is added inside the critical section
        (e.g. ``pready_overhead``)."""
        me = self.env.active_process.serial
        self._contention.arrive(me)
        req = self._lock.request()
        yield req
        contenders = self._contention.granted(me)
        cost = (
            self.params.atomic_overhead
            + self.bounce * contenders
            + extra_cost
        )
        yield self.env.timeout(cost)
        self.updates += 1
        self._lock.release(req)

    def __repr__(self) -> str:  # pragma: no cover - debug repr
        return f"<ContendedAtomic {self.name!r} updates={self.updates}>"
