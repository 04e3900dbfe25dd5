"""Simulated NIC with virtual communication interfaces (VCIs).

MPICH multiplexes independent *virtual communication interfaces* over the
hardware to let concurrent threads drive the network without sharing
state (Zambre et al. [14] in the paper).  Each :class:`Vci` owns

* a **command-queue lock** — the mutex threads must hold to post work;
  this is where the thread-congestion of Fig. 5 materializes,
* a **TX queue** and injection process — per-VCI FIFO ordering onto the
  shared wire,
* an **RX queue** and handling process — per-VCI serialization of
  incoming-message processing.

Posting cost grows with the number of contenders on the lock
(cache-line bouncing under ``MPI_THREAD_MULTIPLE``); see
:meth:`SystemParams.atomic_time` and ``vci_contention_coeff``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..sim import Environment, Lock, Store, Tracer
from .packets import Packet, PacketKind
from .params import Protocol, SystemParams

__all__ = ["ContentionWindow", "Vci", "Nic"]


class ContentionWindow:
    """Contender count for a lock-serialized critical section.

    Shared by the VCI command-queue lock and the contended atomic
    counters of :mod:`repro.mpi.contention`.  The count is the larger of
    (a) the peak number of simultaneous claimants since the lock was
    last idle (a burst of N agents costs every one of them the N-way
    cache-line fight, even the first one served) and (b) the *other*
    agents seen within ``window`` seconds (staggered arrivals keep
    bouncing lines while the burst lasts).  Contention is driven by how
    many distinct agents share the lock, not by the instantaneous queue
    length.
    """

    __slots__ = ("env", "lock", "window", "_agents", "_episode_peak")

    def __init__(self, env: Environment, lock: Lock, window: float):
        self.env = env
        self.lock = lock
        self.window = window
        #: Recently active agents: agent id -> last claim time.
        self._agents: Dict[int, float] = {}
        #: Largest number of simultaneous claimants since the lock was
        #: last idle (the size of the current contention episode).
        self._episode_peak = 0

    def arrive(self, me: int) -> None:
        """Record agent ``me`` claiming the lock (before it requests)."""
        self._agents[me] = self.env.now
        claimants = self.lock.queue_length + self.lock.count + 1
        if claimants == 1:
            self._episode_peak = 1  # lock idle: a new episode begins
        else:
            self._episode_peak = max(self._episode_peak, claimants)

    def granted(self, me: int) -> int:
        """Number of contenders ``me`` pays for, once granted the lock."""
        now = self.env.now
        agents = self._agents
        agents[me] = now  # refresh: we waited in line
        self._episode_peak = max(self._episode_peak, self.lock.queue_length + 1)
        if len(agents) > 1:  # a lone agent has nobody to expire
            window = self.window
            for a in [a for a, t in agents.items() if now - t > window]:
                del agents[a]
        # ``me`` was just refreshed, so it is never stale.
        return max(self._episode_peak - 1, len(agents) - 1)


class Vci:
    """One virtual communication interface of a NIC."""

    def __init__(
        self,
        env: Environment,
        rank: int,
        index: int,
        params: SystemParams,
        tracer: Tracer,
    ):
        self.env = env
        self.rank = rank
        self.index = index
        self.params = params
        self.tracer = tracer
        self.lock = Lock(env, name=f"r{rank}.vci{index}.cmdq")
        self.tx_store = Store(env, name=f"r{rank}.vci{index}.tx")
        self.rx_store = Store(env, name=f"r{rank}.vci{index}.rx")
        self._contention = ContentionWindow(
            env, self.lock, params.vci_agent_window
        )
        self._transmit: Optional[Callable] = None  # set by Nic
        self._handler: Optional[Callable[[Packet], None]] = None
        self.tx_count = 0
        self.rx_count = 0
        env.process(self._tx_loop())
        env.process(self._rx_loop())

    # -- sender side -----------------------------------------------------------
    def post(self, pkt: Packet, base_cost: float, copy_bytes: int = 0):
        """Post ``pkt`` from the calling process (generator; yield from it).

        Models the command-queue critical section: acquire the VCI lock,
        pay ``base_cost`` inflated by the number of contending threads
        (see :class:`ContentionWindow`), pay any bounce-buffer copy,
        enqueue for injection, release.
        """
        me = self.env.active_process.serial
        self._contention.arrive(me)
        req = self.lock.request()
        yield req
        contenders = self._contention.granted(me)
        cost = base_cost * self.params.contention_multiplier(contenders)
        if copy_bytes:
            cost += self.params.copy_time(copy_bytes)
        yield self.env.timeout(cost)
        self.tx_count += 1
        if self.tracer.enabled:
            self.tracer.log(
                "nic",
                "post",
                rank=self.rank,
                vci=self.index,
                pkt=pkt.describe(),
                contenders=contenders,
            )
        self.tx_store.put(pkt)
        self.lock.release(req)

    # -- injection ----------------------------------------------------------------
    def _tx_loop(self):
        while True:
            pkt = yield self.tx_store.get()
            # The fabric transmit generator serializes on the shared wire.
            yield from self._transmit(pkt)

    # -- receive ---------------------------------------------------------------------
    def _rx_loop(self):
        while True:
            pkt = yield self.rx_store.get()
            cost = self._rx_cost(pkt)
            if cost > 0.0:
                yield self.env.timeout(cost)
            self.rx_count += 1
            if self.tracer.enabled:
                self.tracer.log(
                    "nic", "recv", rank=self.rank, vci=self.index,
                    pkt=pkt.describe(),
                )
            self._handler(pkt)

    def _rx_cost(self, pkt: Packet) -> float:
        """Receive-side processing cost by packet kind."""
        p = self.params
        kind = pkt.kind
        if kind == PacketKind.EAGER:
            cost = p.recv_overhead
            if p.protocol_for(pkt.nbytes) is not Protocol.SHORT:
                cost += p.copy_time(pkt.nbytes)  # bounce-buffer unpack
            return cost
        if kind == PacketKind.AM:
            # The receiver-side bounce copy is chunk-pipelined with the
            # wire in MPICH's AM path: only the final chunk's copy-out
            # is serial here (the sender-side copy is charged at
            # posting time).
            tail = min(pkt.nbytes, p.am_chunk_bytes)
            return p.am_dispatch_overhead + p.copy_time(tail)
        if kind == PacketKind.RDMA_DATA:
            return p.put_handler_overhead
        if kind == PacketKind.RMA_PUT:
            return p.put_handler_overhead
        if kind in (PacketKind.RTS, PacketKind.CTS, PacketKind.RMA_CTRL, PacketKind.CTRL):
            return p.ctrl_overhead
        raise ValueError(f"unhandled packet kind {kind!r}")  # pragma: no cover


class Nic:
    """A rank's network interface: a set of VCIs sharing the wire."""

    def __init__(
        self,
        env: Environment,
        rank: int,
        params: SystemParams,
        tracer: Tracer,
        n_vcis: int = 1,
    ):
        if n_vcis < 1:
            raise ValueError("n_vcis must be >= 1")
        self.env = env
        self.rank = rank
        self.params = params
        self.tracer = tracer
        self.vcis: List[Vci] = [
            Vci(env, rank, i, params, tracer) for i in range(n_vcis)
        ]

    @property
    def n_vcis(self) -> int:
        return len(self.vcis)

    def vci(self, index: int) -> Vci:
        """VCI by index, wrapping modulo the configured count."""
        return self.vcis[index % len(self.vcis)]

    def attach_fabric(self, transmit: Callable) -> None:
        """Wire every VCI's injection path to the fabric."""
        for vci in self.vcis:
            vci._transmit = transmit

    def set_handler(self, handler: Callable[[Packet], None]) -> None:
        """Install the runtime's packet handler on every VCI."""
        for vci in self.vcis:
            vci._handler = handler

    def deliver(self, pkt: Packet) -> None:
        """Called by the fabric when a packet arrives at this NIC."""
        self.vci(pkt.dst_vci).rx_store.put(pkt)

    def post(self, vci_index: int, pkt: Packet, base_cost: float, copy_bytes: int = 0):
        """Post via a VCI (generator; see :meth:`Vci.post`)."""
        return self.vci(vci_index).post(pkt, base_cost, copy_bytes)
