"""The simulated MPI world: ranks, fabric, and deterministic contexts.

:class:`MPIWorld` is the top-level entry point of the runtime simulator.
It builds one :class:`~repro.mpi.runtime.RankRuntime` per rank, connects
their NICs through a :class:`~repro.net.fabric.Fabric`, and provides the
deterministic context-id table that makes ``Comm_dup`` collective-
consistent without wire traffic.

Example
-------
>>> from repro.mpi import MPIWorld
>>> world = MPIWorld(n_ranks=2)
>>> def sender(world):
...     comm = world.comm_world(0)
...     yield from comm.send(dest=1, tag=7, nbytes=64)
>>> def receiver(world):
...     comm = world.comm_world(1)
...     status = yield from comm.recv(source=0, tag=7, nbytes=64)
...     return status.nbytes
>>> world.launch(0, sender(world))
<Process ...>
>>> p = world.launch(1, receiver(world))
>>> world.run()
>>> p.value
64
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from .. import telemetry
from ..net import MELUXINA, Fabric, Nic, SystemParams
from ..sim import Environment, NullTracer, Process, RngRegistry, StreamingTracer
from .communicator import Comm
from .cvars import Cvars
from .runtime import RankRuntime

__all__ = ["MPIWorld"]


class MPIWorld:
    """A complete simulated MPI job.

    Parameters
    ----------
    n_ranks:
        Number of MPI processes (the paper's benchmark uses 2).
    params:
        The machine cost model (defaults to the MeluXina-like preset).
    cvars:
        Runtime knobs (VCIs, aggregation, AM fallback, ...).
    seed:
        Root seed for all randomness (compute-noise streams).

    Tracing is on while a telemetry trace sink is installed
    (:func:`repro.telemetry.set_trace_sink`, as ``campaign run --trace``
    does): every record streams to it, so long simulations trace in
    O(1) memory.
    """

    def __init__(
        self,
        n_ranks: int = 2,
        params: SystemParams = MELUXINA,
        cvars: Optional[Cvars] = None,
        seed: int = 0,
    ):
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        self.env = Environment()
        self.params = params
        self.cvars = cvars if cvars is not None else Cvars()
        self.rng = RngRegistry(seed)
        sink = telemetry.trace_sink()
        self.tracer = (
            NullTracer() if sink is None else StreamingTracer(self.env, sink)
        )
        self.fabric = Fabric(self.env, params, self.tracer)
        self.ranks: List[RankRuntime] = []
        for r in range(n_ranks):
            nic = Nic(self.env, r, params, self.tracer, n_vcis=self.cvars.num_vcis)
            self.fabric.register(nic)
            self.ranks.append(RankRuntime(self, r, nic))
        self._world_group: Tuple[int, ...] = tuple(range(n_ranks))
        self._comm_world: Dict[int, Comm] = {}
        # Deterministic context allocation: (parent_ctx, seq) -> ctx.
        self._next_ctx = 1
        self._ctx_table: Dict[Tuple[int, int], int] = {}
        # Named sub-communicator contexts: key -> (ctx, group).
        self._subcomm_table: Dict[str, Tuple[int, Tuple[int, ...]]] = {}

    # -- accessors ------------------------------------------------------------
    @property
    def n_ranks(self) -> int:
        return len(self.ranks)

    def rank(self, r: int) -> RankRuntime:
        """The runtime of rank ``r``."""
        return self.ranks[r]

    def comm_world(self, r: int) -> Comm:
        """Rank ``r``'s handle on MPI_COMM_WORLD (context id 0)."""
        comm = self._comm_world.get(r)
        if comm is None:
            comm = Comm(self.ranks[r], 0, self._world_group)
            self._comm_world[r] = comm
        return comm

    def sub_comm(self, group: Tuple[int, ...], key: str) -> Dict[int, Comm]:
        """Create (or retrieve) a named sub-communicator over ``group``.

        Returns one :class:`Comm` handle per member rank, all sharing a
        context id agreed through a world-level table keyed by ``key`` —
        the moral equivalent of ``MPI_Comm_create_group`` with a
        deterministic group tag.  The order of ``group`` defines the
        communicator ranks (``group[0]`` is comm rank 0), so callers can
        fix role positions (e.g. sender first) independently of world
        rank order.  Repeated calls with the same key must pass the same
        group and return fresh handles on the same context.
        """
        if len(set(group)) != len(group) or not group:
            raise ValueError(f"group must be non-empty and unique: {group}")
        entry = self._subcomm_table.get(key)
        if entry is None:
            ctx = self._next_ctx
            self._next_ctx += 1
            self._subcomm_table[key] = (ctx, tuple(group))
        else:
            ctx, prev_group = entry
            if prev_group != tuple(group):
                raise ValueError(
                    f"sub_comm key {key!r} already bound to group "
                    f"{prev_group}, got {tuple(group)}"
                )
        return {r: Comm(self.ranks[r], ctx, tuple(group)) for r in group}

    def alloc_context(self, parent_ctx: int, seq: int) -> int:
        """Deterministic collective context allocation for ``Comm_dup``.

        Every rank duplicating the same parent for the ``seq``-th time
        receives the same new context id, mirroring MPI's collective
        agreement.
        """
        key = (parent_ctx, seq)
        ctx = self._ctx_table.get(key)
        if ctx is None:
            ctx = self._next_ctx
            self._next_ctx += 1
            self._ctx_table[key] = ctx
        return ctx

    # -- execution ---------------------------------------------------------------
    def launch(self, r: int, generator: Generator) -> Process:
        """Run ``generator`` as a process belonging to rank ``r``."""
        if not 0 <= r < self.n_ranks:
            raise ValueError(f"rank {r} out of range")
        return self.env.process(generator)

    def run(self, until=None):
        """Advance the simulation (see :meth:`Environment.run`)."""
        return self.env.run(until=until)

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self.env.now

    def __repr__(self) -> str:  # pragma: no cover - debug repr
        return (
            f"<MPIWorld ranks={self.n_ranks} vcis={self.cvars.num_vcis} "
            f"t={self.env.now * 1e6:.3f}us>"
        )
