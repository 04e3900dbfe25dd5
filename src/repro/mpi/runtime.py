"""Per-rank runtime: packet dispatch, send/receive engines, protocols.

One :class:`RankRuntime` exists per simulated MPI process.  It owns the
rank's NIC, the per-VCI matching engines, and the protocol state machines
(eager and rendezvous).  Higher layers (point-to-point, RMA, partitioned)
build on the primitives here:

* :meth:`RankRuntime.start_send` / :meth:`RankRuntime.start_recv` —
  initiate transfers in the calling process's timeline (the caller pays
  posting costs, including VCI-lock contention);
* control-packet handlers registered via :meth:`register_ctrl_handler`
  (used by RMA, barriers, and the partitioned protocols).

Progress model
--------------
Incoming packets are processed by each VCI's RX loop (asynchronous
progress, as with a dedicated progress thread or hardware offload —
cf. Casper [11] in the paper).  ``MPI_Wait`` therefore only blocks on
completion events; receive-side per-message costs are paid in the RX
loops, serialized per VCI.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

import numpy as np

from ..net import Nic, Packet, PacketKind, Protocol
from ..sim import Environment
from .cvars import Cvars
from .errors import MPIError, TruncationError
from .matching import MatchKey, MatchingEngine, PostedRecv, UnexpectedMsg
from .status import Status

__all__ = ["RankRuntime"]

#: User tags must stay below this; internal traffic uses tags above it.
TAG_UB = 1 << 20
#: Internal tag block for barrier tokens.
BARRIER_TAG = TAG_UB + 0x100
#: Base of the internal tag space reserved for partitioned messages.
PART_TAG_BASE = TAG_UB + 0x10000


class RankRuntime:
    """The MPI runtime state of one rank."""

    def __init__(
        self,
        world: "Any",
        rank: int,
        nic: Nic,
    ):
        self.world = world
        self.rank = rank
        self.nic = nic
        self.env: Environment = world.env
        self.params = world.params
        self.cvars: Cvars = world.cvars
        self.matching = [MatchingEngine() for _ in range(nic.n_vcis)]
        #: Rendezvous sends awaiting CTS, by request id.
        self._pending_sends: Dict[int, Any] = {}
        #: Rendezvous receives awaiting data, by request id.
        self._pending_recvs: Dict[int, Any] = {}
        #: Handlers for control packets, by ``header['op']``.
        self._ctrl_handlers: Dict[str, Callable[[Packet], None]] = {}
        #: Handlers for AM packets, by ``header['op']``.
        self._am_handlers: Dict[str, Callable[[Packet], None]] = {}
        #: Partitioned requests created per destination rank (tag budget).
        self.part_requests_per_dest: Dict[int, int] = {}
        #: Next free internal partitioned tag per destination rank.
        self._part_tag_next: Dict[int, int] = {}
        nic.set_handler(self._handle_packet)
        # Sent/received message counters by kind (for tests & reports).
        self.tx_counters: Dict[str, int] = {}
        self.rx_counters: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register_ctrl_handler(self, op: str, fn: Callable[[Packet], None]) -> None:
        """Register a handler for CTRL/RMA_CTRL packets with ``op``."""
        if op in self._ctrl_handlers:
            raise MPIError(f"duplicate ctrl handler {op!r}")
        self._ctrl_handlers[op] = fn

    def register_am_handler(self, op: str, fn: Callable[[Packet], None]) -> None:
        """Register a handler for AM packets with ``op``."""
        if op in self._am_handlers:
            raise MPIError(f"duplicate AM handler {op!r}")
        self._am_handlers[op] = fn

    # ------------------------------------------------------------------
    # tag management for partitioned traffic
    # ------------------------------------------------------------------
    def alloc_part_tags(self, dest: int, count: int) -> Optional[int]:
        """Reserve ``count`` internal tags for partitioned traffic to
        ``dest``; returns the base tag, or ``None`` when the reserved
        space is exhausted (the caller then falls back to the AM path,
        §3.2.1)."""
        used = self._part_tag_next.get(dest, 0)
        if used + count > self.cvars.part_reserved_tags:
            return None
        self._part_tag_next[dest] = used + count
        self.part_requests_per_dest[dest] = (
            self.part_requests_per_dest.get(dest, 0) + 1
        )
        return PART_TAG_BASE + used

    # ------------------------------------------------------------------
    # send engine
    # ------------------------------------------------------------------
    def start_send(self, sreq) -> Any:
        """Generator: initiate ``sreq`` in the caller's timeline.

        Eager (short/bcopy) sends complete locally once posted;
        rendezvous (zcopy) sends complete when the data has been injected
        after the CTS arrives.
        """
        p = self.params
        proto = p.protocol_for(sreq.nbytes)
        payload = None
        if self.cvars.verify_payloads and sreq.data is not None:
            payload = np.array(sreq.data, dtype=np.uint8, copy=True).ravel()
        header = {
            "ctx": sreq.context_id,
            "tag": sreq.tag,
            "sreq": sreq.rid,
            "nbytes": sreq.nbytes,
        }
        dst_vci = getattr(sreq, "dst_vci", None)
        if dst_vci is None:
            dst_vci = sreq.vci
        if proto is Protocol.ZCOPY:
            self._pending_sends[sreq.rid] = sreq
            rts = Packet(
                kind=PacketKind.RTS,
                src=self.rank,
                dst=sreq.dest,
                nbytes=0,
                src_vci=sreq.vci,
                dst_vci=dst_vci,
                header=header,
            )
            self._count_tx(PacketKind.RTS)
            yield from self.nic.post(sreq.vci, rts, p.post_overhead)
            sreq._rdv_payload = payload
            return
        copy_bytes = sreq.nbytes if proto is Protocol.BCOPY else 0
        pkt = Packet(
            kind=PacketKind.EAGER,
            src=self.rank,
            dst=sreq.dest,
            nbytes=sreq.nbytes,
            src_vci=sreq.vci,
            dst_vci=dst_vci,
            header=header,
            payload=payload,
        )
        self._count_tx(PacketKind.EAGER)
        yield from self.nic.post(sreq.vci, pkt, p.post_overhead, copy_bytes)
        sreq.complete(Status(self.rank, sreq.tag, sreq.nbytes))

    def _send_rdv_data(self, sreq, rreq_id: int):
        """Process body: inject the rendezvous payload after CTS."""
        pkt = Packet(
            kind=PacketKind.RDMA_DATA,
            src=self.rank,
            dst=sreq.dest,
            nbytes=sreq.nbytes,
            src_vci=sreq.vci,
            dst_vci=sreq.vci,
            header={"rreq": rreq_id, "tag": sreq.tag, "src": self.rank,
                    "nbytes": sreq.nbytes},
            payload=getattr(sreq, "_rdv_payload", None),
        )
        self._count_tx(PacketKind.RDMA_DATA)
        yield from self.nic.post(sreq.vci, pkt, self.params.post_overhead)
        sreq.complete(Status(self.rank, sreq.tag, sreq.nbytes))

    # ------------------------------------------------------------------
    # receive engine
    # ------------------------------------------------------------------
    def start_recv(self, rreq) -> Any:
        """Generator: post ``rreq``; matches the unexpected queue first."""
        p = self.params
        if p.recv_post_overhead > 0:
            yield self.env.timeout(p.recv_post_overhead)
        key = MatchKey(rreq.context_id, rreq.source, rreq.tag)
        engine = self.matching[rreq.vci % len(self.matching)]
        msg = engine.post_recv(PostedRecv(key, rreq))
        if msg is None:
            return
        pkt: Packet = msg.packet
        if pkt.kind == PacketKind.EAGER:
            # Unexpected eager data sits in a temp buffer; pay the copy-out.
            if pkt.nbytes > 0:
                yield self.env.timeout(p.copy_time(pkt.nbytes))
            self._deliver_into(rreq, pkt)
            rreq.complete(Status(pkt.src, pkt.header["tag"], pkt.nbytes))
        elif pkt.kind == PacketKind.RTS:
            yield from self._answer_rts(rreq, pkt)
        else:  # pragma: no cover - queue only holds EAGER/RTS
            raise MPIError(f"unexpected queued packet kind {pkt.kind}")

    def _answer_rts(self, rreq, rts: Packet):
        """Generator: reply CTS for a matched rendezvous send."""
        if rts.header["nbytes"] > rreq.nbytes:
            raise TruncationError(
                f"rank {self.rank}: rendezvous message of {rts.header['nbytes']} B "
                f"for a {rreq.nbytes} B receive"
            )
        self._pending_recvs[rreq.rid] = rreq
        cts = Packet(
            kind=PacketKind.CTS,
            src=self.rank,
            dst=rts.src,
            nbytes=0,
            src_vci=rreq.vci,
            dst_vci=rts.src_vci,
            header={"sreq": rts.header["sreq"], "rreq": rreq.rid},
        )
        self._count_tx(PacketKind.CTS)
        yield from self.nic.post(rreq.vci, cts, self.params.ctrl_overhead)

    def _deliver_into(self, rreq, pkt: Packet) -> None:
        """Copy a verified payload into the receive buffer, if any."""
        if pkt.payload is not None and rreq.buffer is not None:
            flat = rreq.buffer.reshape(-1).view(np.uint8)
            if flat.nbytes < pkt.nbytes:
                raise TruncationError(
                    f"rank {self.rank}: {pkt.nbytes} B into a "
                    f"{flat.nbytes} B buffer"
                )
            offset = pkt.header.get("offset", 0)
            flat[offset : offset + pkt.nbytes] = pkt.payload

    # ------------------------------------------------------------------
    # low-level helpers for higher layers
    # ------------------------------------------------------------------
    def post_ctrl(
        self,
        dest: int,
        op: str,
        vci: int = 0,
        dst_vci: Optional[int] = None,
        kind: str = PacketKind.CTRL,
        nbytes: int = 0,
        payload: Optional[np.ndarray] = None,
        **fields: Any,
    ):
        """Generator: post a control packet (``header['op'] = op``)."""
        pkt = Packet(
            kind=kind,
            src=self.rank,
            dst=dest,
            nbytes=nbytes,
            src_vci=vci,
            dst_vci=vci if dst_vci is None else dst_vci,
            header={"op": op, **fields},
            payload=payload,
        )
        self._count_tx(kind)
        base = (
            self.params.ctrl_overhead
            if kind in (PacketKind.CTRL, PacketKind.RMA_CTRL)
            else self.params.post_overhead
        )
        copy_bytes = nbytes if kind == PacketKind.AM else 0
        yield from self.nic.post(vci, pkt, base, copy_bytes)

    def spawn(self, generator) -> Any:
        """Launch a runtime-side process (e.g. deferred packet injection)."""
        return self.env.process(generator)

    # ------------------------------------------------------------------
    # packet dispatch (called from VCI RX loops, after RX costs)
    # ------------------------------------------------------------------
    def _handle_packet(self, pkt: Packet) -> None:
        self._count_rx(pkt.kind)
        kind = pkt.kind
        if kind == PacketKind.EAGER:
            self._on_eager(pkt)
        elif kind == PacketKind.RTS:
            self._on_rts(pkt)
        elif kind == PacketKind.CTS:
            self._on_cts(pkt)
        elif kind == PacketKind.RDMA_DATA:
            self._on_rdma_data(pkt)
        elif kind in (PacketKind.CTRL, PacketKind.RMA_CTRL, PacketKind.RMA_PUT):
            op = pkt.header.get("op")
            handler = self._ctrl_handlers.get(op)
            if handler is None:
                raise MPIError(f"rank {self.rank}: no handler for ctrl op {op!r}")
            handler(pkt)
        elif kind == PacketKind.AM:
            op = pkt.header.get("op")
            handler = self._am_handlers.get(op)
            if handler is None:
                raise MPIError(f"rank {self.rank}: no handler for AM op {op!r}")
            handler(pkt)
        else:  # pragma: no cover - all kinds covered
            raise MPIError(f"rank {self.rank}: unhandled packet kind {kind!r}")

    def _on_eager(self, pkt: Packet) -> None:
        h = pkt.header
        key = MatchKey(h["ctx"], pkt.src, h["tag"])
        engine = self.matching[pkt.dst_vci % len(self.matching)]
        entry = engine.match_arrival(key)
        if entry is None:
            engine.add_unexpected(UnexpectedMsg(key, pkt))
            return
        rreq = entry.request
        if pkt.nbytes > rreq.nbytes:
            raise TruncationError(
                f"rank {self.rank}: {pkt.nbytes} B message for a "
                f"{rreq.nbytes} B receive"
            )
        self._deliver_into(rreq, pkt)
        rreq.complete(Status(pkt.src, h["tag"], pkt.nbytes))

    def _on_rts(self, pkt: Packet) -> None:
        h = pkt.header
        key = MatchKey(h["ctx"], pkt.src, h["tag"])
        engine = self.matching[pkt.dst_vci % len(self.matching)]
        entry = engine.match_arrival(key)
        if entry is None:
            engine.add_unexpected(UnexpectedMsg(key, pkt))
            return
        # Matched: the progress engine answers the CTS.
        self.spawn(self._answer_rts(entry.request, pkt))

    def _on_cts(self, pkt: Packet) -> None:
        sreq = self._pending_sends.pop(pkt.header["sreq"])
        self.spawn(self._send_rdv_data(sreq, pkt.header["rreq"]))

    def _on_rdma_data(self, pkt: Packet) -> None:
        rreq = self._pending_recvs.pop(pkt.header["rreq"])
        self._deliver_into(rreq, pkt)
        rreq.complete(Status(pkt.src, pkt.header["tag"], pkt.nbytes))

    # ------------------------------------------------------------------
    def _count_tx(self, kind: str) -> None:
        self.tx_counters[kind] = self.tx_counters.get(kind, 0) + 1

    def _count_rx(self, kind: str) -> None:
        self.rx_counters[kind] = self.rx_counters.get(kind, 0) + 1

    def __repr__(self) -> str:  # pragma: no cover - debug repr
        return f"<RankRuntime rank={self.rank} vcis={self.nic.n_vcis}>"
