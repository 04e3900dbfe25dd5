"""Simulated thread teams (the OpenMP layer of MPI+threads).

A :class:`ThreadTeam` synchronizes the ``n_threads`` simulated threads
of one rank, mirroring the paper's benchmark structure (Fig. 3): the
master thread performs ``start``/``wait`` while every thread computes on
its partitions and calls ``ready``.  Thread barriers pay the tree-barrier
cost of :meth:`SystemParams.barrier_time` — the synchronization penalty
the paper notes for ``Pt2Pt single`` at 32 threads (§4.2.1).
"""

from __future__ import annotations

from ..sim import Environment, SimBarrier

__all__ = ["ThreadTeam"]


class ThreadTeam:
    """The barrier shared by a team of simulated threads within one rank.

    Parameters
    ----------
    env:
        Simulation environment.
    n_threads:
        Team size (``OMP_NUM_THREADS``).
    barrier_cost:
        Simulated time one thread barrier takes (use
        ``params.barrier_time(n_threads)``).
    """

    def __init__(self, env: Environment, n_threads: int, barrier_cost: float = 0.0):
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        self.env = env
        self.n_threads = n_threads
        self.barrier_cost = barrier_cost
        self._barrier = SimBarrier(env, n_threads, name="team")
        self.barrier_count = 0

    # ------------------------------------------------------------------
    def barrier(self):
        """Generator: thread barrier (all team threads must call it)."""
        self.barrier_count += 1
        if self.barrier_cost > 0.0:
            yield self.env.timeout(self.barrier_cost)
        yield self._barrier.wait()
