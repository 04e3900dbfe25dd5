"""MPI 4.0 partitioned communication — the *improved* MPICH path (§3.2).

This module implements the paper's contribution: partitioned requests
carried over multiple internal **tag-matched** messages instead of the
legacy single active-message transfer (see :mod:`.partitioned_am` for
the old path it replaces).

Protocol (§3.2.1–3.2.2)
-----------------------
* ``Psend_init`` reserves internal tag space toward the destination; if
  the reserved space per peer is exhausted, the request silently falls
  back to the AM path.  An RTS carrying the sender's partition count and
  tag base is sent at init time.
* The **receiver decides** the message count once it has both the RTS
  and its own ``Precv_init``:  ``gcd(N_send, N_recv)`` messages, then
  aggregated under ``MPIR_CVAR_PART_AGGR_SIZE`` so that every partition
  contributes to exactly one message.  The count travels back in a CTS;
  the sender must hold ready messages until the CTS arrives — **first
  iteration only**.
* Each outgoing message owns an atomic counter initialized to the number
  of contributing partitions; ``MPI_Pready`` decrements it and the
  decrementing thread that reaches zero posts the message (paying the
  send cost in its own timeline — the early-bird effect).
* Message *m* maps onto a VCI by the configured policy (round-robin by
  default, ``MPIX_Stream``-style thread binding optionally).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..net import Packet
from ..sim import CountdownLatch, Event
from .communicator import Comm
from .contention import ContendedAtomic
from .errors import PartitionError, RequestStateError
from .p2p import RecvRequest, SendRequest
from .request import PersistentRequest
from .status import Status
from .vci import vci_for_partition_message

__all__ = [
    "negotiate_message_count",
    "PartitionedSendRequest",
    "PartitionedRecvRequest",
]


def negotiate_message_count(
    n_send: int, n_recv: int, total_bytes: int, aggr_size: int
) -> int:
    """The receiver-side message-count decision of §3.2.1.

    ``gcd(N_send, N_recv)`` guarantees every partition contributes to a
    single message; aggregation then merges whole messages while the
    aggregate stays within ``aggr_size`` bytes (0 disables aggregation).
    The result always divides the gcd, keeping messages uniform.
    """
    # The only simulator reader of part_aggr_size; a new one must update simulation_key.
    if n_send < 1 or n_recv < 1:
        raise PartitionError("partition counts must be >= 1")
    g = math.gcd(n_send, n_recv)
    if aggr_size <= 0:
        return g
    msg_bytes = total_bytes // g
    if msg_bytes > aggr_size or msg_bytes == 0:
        return g
    return g // largest_divisor_at_most(g, min(g, aggr_size // msg_bytes))


def largest_divisor_at_most(g: int, k_max: int) -> int:
    """How many whole messages aggregation merges: the largest ``k <=
    k_max`` dividing ``g`` (1 when no larger one does)."""
    for k in range(k_max, 1, -1):
        if g % k == 0:
            return k
    return 1


def _part_registry(rt) -> Dict[Tuple[int, int, int], Any]:
    """Receiver-side registry of partitioned receives by (ctx, src, tag).

    First use installs every partitioned-protocol handler on the rank:
    the improved path's RTS/CTS, and the legacy AM path's RTS/CTS/data
    (shared, since a receiver discovers the sender's path from the RTS).
    """
    if not hasattr(rt, "_part_recv_registry"):
        rt._part_recv_registry = {}
        rt._part_pending_rts = {}
        rt._part_send_registry = {}
        rt.register_ctrl_handler("part_rts", lambda pkt: _on_part_rts(rt, pkt))
        rt.register_ctrl_handler("part_cts", lambda pkt: _on_part_cts(rt, pkt))
        rt.register_ctrl_handler(
            "part_am_cts", lambda pkt: _on_part_cts(rt, pkt)
        )
        rt.register_am_handler(
            "part_am_rts", lambda pkt: _on_part_rts(rt, pkt)
        )
        rt.register_am_handler(
            "part_am_data", lambda pkt: _on_part_am_data(rt, pkt)
        )
    return rt._part_recv_registry


def _on_part_rts(rt, pkt: Packet) -> None:
    key = (pkt.header["ctx"], pkt.src, pkt.header["tag"])
    rreq = _part_registry(rt).get(key)
    if rreq is None:
        rt._part_pending_rts[key] = pkt
    else:
        rreq._absorb_rts(pkt)


def _on_part_cts(rt, pkt: Packet) -> None:
    sreq = rt._part_send_registry[pkt.header["sreq"]]
    sreq._absorb_cts(pkt)


def _on_part_am_data(rt, pkt: Packet) -> None:
    key = (pkt.header["ctx"], pkt.src, pkt.header["tag"])
    rreq = _part_registry(rt)[key]
    rreq.am_data_arrived(pkt)


class PartitionedSendRequest(PersistentRequest):
    """``MPI_Psend_init`` on the improved tag-matched path."""

    def __init__(
        self,
        comm: Comm,
        dest: int,
        tag: int,
        partitions: int,
        nbytes: int,
        data: Optional[np.ndarray] = None,
    ):
        rt = comm.rt
        super().__init__(rt.env)
        if partitions < 1:
            raise PartitionError("partitions must be >= 1")
        if nbytes % partitions != 0:
            raise PartitionError(
                f"buffer of {nbytes} B not divisible into {partitions} partitions"
            )
        self.rt = rt
        self.comm = comm
        self.dest = comm.world_rank(dest)
        self.tag = tag
        self.partitions = partitions
        self.nbytes = nbytes
        self.data = data
        self.part_bytes = nbytes // partitions
        _part_registry(rt)  # ensure handlers exist
        self.tag_base: Optional[int] = rt.alloc_part_tags(self.dest, partitions)
        #: Filled by the CTS (receiver decides, §3.2.1) — unless the
        #: first-iteration synchronization removal (the paper's §5
        #: future-work item) is enabled, in which case both sides
        #: pre-agree assuming symmetric partition counts.
        self.n_msgs: Optional[int] = None
        if rt.cvars.part_skip_first_cts and self.tag_base is not None:
            self.n_msgs = negotiate_message_count(
                partitions, partitions, nbytes, rt.cvars.part_aggr_size
            )
        self._cts_event: Event = rt.env.event()
        self._latches: List[CountdownLatch] = []
        self._early_ready: List[Tuple[int, Optional[int]]] = []
        self._completed_msgs = 0
        # The request's counters share cache lines; concurrent Pready
        # calls serialize on their ownership (§4.2.2's atomic cost).
        self._atomic = ContendedAtomic(
            rt.env, rt.params, name=f"psend{self.rid}.counters",
            bounce=rt.params.pready_atomic_bounce,
        )
        rt._part_send_registry[self.rid] = self

    @property
    def fell_back_to_am(self) -> bool:
        """True when tag space was exhausted (AM fallback, §3.2.1)."""
        return self.tag_base is None

    # ------------------------------------------------------------------
    def init(self):
        """Generator: the wire work of ``MPI_Psend_init`` (send the RTS)."""
        yield from self.rt.post_ctrl(
            self.dest,
            "part_rts",
            vci=self.comm.vci,
            ctx=self.comm.context_id,
            tag=self.tag,
            sreq=self.rid,
            n_send=self.partitions,
            nbytes=self.nbytes,
            tag_base=self.tag_base,
        )

    def _absorb_cts(self, pkt: Packet) -> None:
        self.n_msgs = pkt.header["n_msgs"]
        self._cts_event.succeed()
        if self.active:
            self._setup_iteration()
            early, self._early_ready = self._early_ready, []
            for partition, thread_id in early:
                became_zero = self._count_down(partition)
                if became_zero:
                    m = self._msg_of(partition)
                    self.rt.spawn(self._post_message(m, thread_id))

    # ------------------------------------------------------------------
    def _setup_iteration(self) -> None:
        per_msg = self.partitions // self.n_msgs
        self._latches = [
            CountdownLatch(self.env, per_msg) for _ in range(self.n_msgs)
        ]
        self._completed_msgs = 0

    def _msg_of(self, partition: int) -> int:
        return partition * self.n_msgs // self.partitions

    def _count_down(self, partition: int) -> bool:
        return self._latches[self._msg_of(partition)].count_down()

    def _start(self):
        if self.n_msgs is not None:
            self._setup_iteration()
        # First iteration: message layout unknown until the CTS; Pready
        # calls buffer their readiness in _early_ready.
        return
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    def pready(self, partition: int, thread_id: Optional[int] = None):
        """Generator: mark ``partition`` ready (``MPI_Pready``).

        Pays the partition bookkeeping plus one shared-counter atomic
        whose cost grows with the number of threads concurrently inside
        ``Pready`` on this request (cache-line bouncing, §4.2.2).  The
        thread whose decrement empties a message counter posts that
        message inline.
        """
        if not self.active:
            raise RequestStateError("Pready before MPI_Start")
        if not 0 <= partition < self.partitions:
            raise PartitionError(
                f"partition {partition} out of range [0, {self.partitions})"
            )
        yield from self._atomic.update(
            extra_cost=self.rt.params.pready_overhead
        )
        if self.n_msgs is None:
            self._early_ready.append((partition, thread_id))
            return
        if self._count_down(partition):
            yield from self._post_message(self._msg_of(partition), thread_id)

    def _post_message(self, m: int, thread_id: Optional[int]):
        """Generator: inject internal message ``m`` (caller's timeline)."""
        msg_bytes = self.nbytes // self.n_msgs
        data = None
        if self.data is not None:
            flat = np.asarray(self.data).reshape(-1).view(np.uint8)
            data = flat[m * msg_bytes : (m + 1) * msg_bytes]
        vci = vci_for_partition_message(
            self.rt.cvars, self.comm.vci, m, thread_id
        )
        req = SendRequest(
            self.rt,
            self.comm.context_id,
            self.dest,
            self.tag_base + m,
            msg_bytes,
            vci,
            data,
        )
        # The receiver posted its internal receive for message m using
        # the thread-agnostic mapping (it cannot know the sending
        # thread), so address that VCI explicitly.
        req.dst_vci = vci_for_partition_message(self.rt.cvars, self.comm.vci, m)
        req.offset = m * msg_bytes
        req._done.callbacks.append(lambda ev: self._msg_done())
        yield from req.start()

    def _msg_done(self) -> None:
        self._completed_msgs += 1
        if self._completed_msgs == self.n_msgs:
            self.complete()

    # ------------------------------------------------------------------
    def _finish_wait(self):
        yield self.env.timeout(self.rt.params.part_completion_overhead)

    def wait(self):
        """Generator: complete the activation (``MPI_Wait``).

        On the first iteration this also waits out the CTS handshake.
        """
        if not self.active:
            raise RequestStateError("wait() while inactive")
        if self.n_msgs is None:
            yield self._cts_event
        result = yield self.completion_event
        yield from self._finish_wait()
        self.active = False
        return result


class PartitionedRecvRequest(PersistentRequest):
    """``MPI_Precv_init``: the receive side of partitioned communication.

    Operates in one of two modes, decided by the sender's RTS:

    * ``"tag"`` — the improved path: posts one internal receive per
      negotiated message; answers the CTS on the first ``Start``.
    * ``"am"`` — the sender fell back to (or was configured for) the
      active-message path: sends a CTS *every* iteration and waits for a
      single AM transfer (see :mod:`.partitioned_am`).
    """

    def __init__(
        self,
        comm: Comm,
        source: int,
        tag: int,
        partitions: int,
        nbytes: int,
        buffer: Optional[np.ndarray] = None,
    ):
        rt = comm.rt
        super().__init__(rt.env)
        if partitions < 1:
            raise PartitionError("partitions must be >= 1")
        if nbytes % partitions != 0:
            raise PartitionError(
                f"buffer of {nbytes} B not divisible into {partitions} partitions"
            )
        self.rt = rt
        self.comm = comm
        self.source = comm.world_rank(source)
        self.tag = tag
        self.partitions = partitions
        self.nbytes = nbytes
        self.buffer = buffer
        self.mode: Optional[str] = None
        self.n_msgs: Optional[int] = None
        self.tag_base: Optional[int] = None
        self._sender_rid: Optional[int] = None
        self._n_send: Optional[int] = None
        self._rts_event: Event = rt.env.event()
        self._cts_sent = False
        self._msg_reqs: List[RecvRequest] = []
        self._completed_msgs = 0
        self._am_arrived: Optional[Event] = None
        # The receive-side completion counter is shared by every VCI's
        # progress context delivering internal messages; updates bounce
        # its cache line and serialize (the partitioned residual of
        # Fig. 6: present even with one VCI per thread).
        self._atomic = ContendedAtomic(
            rt.env, rt.params, name=f"precv{self.rid}.counter"
        )
        key = (comm.context_id, self.source, tag)
        registry = _part_registry(rt)
        if key in registry:
            raise PartitionError(
                f"duplicate partitioned receive for (ctx={key[0]}, "
                f"src={source}, tag={tag})"
            )
        registry[key] = self
        self._key = key
        pending = rt._part_pending_rts.pop(key, None)
        if pending is not None:
            self._absorb_rts(pending)

    # ------------------------------------------------------------------
    def init(self):
        """Generator: local work of ``MPI_Precv_init``."""
        yield self.env.timeout(self.rt.params.recv_post_overhead)

    def _absorb_rts(self, pkt: Packet) -> None:
        header = pkt.header
        if header.get("am"):
            self.mode = "am"
            self._n_send = header["n_send"]
        else:
            self.mode = "tag"
            self._n_send = header["n_send"]
            self.tag_base = header["tag_base"]
            if (
                self.rt.cvars.part_skip_first_cts
                and self._n_send != self.partitions
            ):
                raise PartitionError(
                    "part_skip_first_cts requires symmetric partition "
                    f"counts (sender {self._n_send}, receiver "
                    f"{self.partitions}): without the CTS the sides "
                    "cannot agree on a message count"
                )
            self.n_msgs = negotiate_message_count(
                self._n_send,
                self.partitions,
                self.nbytes,
                self.rt.cvars.part_aggr_size,
            )
        self._sender_rid = header["sreq"]
        if not self._rts_event.triggered:
            self._rts_event.succeed()
        # If Start already ran (receiver ahead of sender), finish the
        # deferred setup from the progress engine.
        if self.active:
            self.rt.spawn(self._activate())

    def _start(self):
        if self.mode is None:
            # RTS not seen yet; the handler completes activation later.
            return
        yield from self._activate()

    def _activate(self):
        """Generator: per-iteration receive-side work (both modes)."""
        if self.mode == "am":
            self._am_arrived = self.env.event()
            self._am_arrived.callbacks.append(lambda ev: self.complete())
            # The AM protocol demands a CTS every iteration (§3.1).
            yield from self.rt.post_ctrl(
                self.source,
                "part_am_cts",
                vci=self.comm.vci,
                sreq=self._sender_rid,
            )
            return
        # tag mode: post the internal receives.
        self._msg_reqs = []
        self._completed_msgs = 0
        msg_bytes = self.nbytes // self.n_msgs
        for m in range(self.n_msgs):
            buf = None
            if self.buffer is not None:
                flat = np.asarray(self.buffer).reshape(-1).view(np.uint8)
                buf = flat[m * msg_bytes : (m + 1) * msg_bytes]
            vci = vci_for_partition_message(self.rt.cvars, self.comm.vci, m)
            req = RecvRequest(
                self.rt,
                self.comm.context_id,
                self.source,
                self.tag_base + m,
                msg_bytes,
                vci,
                buf,
            )
            req._done.callbacks.append(lambda ev: self._msg_done())
            self._msg_reqs.append(req)
            yield from req.start()
        if not self._cts_sent:
            self._cts_sent = True
            if self.rt.cvars.part_skip_first_cts:
                # Future-work mode (§5): the sender pre-agreed on the
                # count, so no first-iteration CTS is needed.
                return
            yield from self.rt.post_ctrl(
                self.source,
                "part_cts",
                vci=self.comm.vci,
                sreq=self._sender_rid,
                n_msgs=self.n_msgs,
            )

    def _msg_done(self) -> None:
        self.rt.spawn(self._count_completion())

    def _count_completion(self):
        """Generator: pay the contended shared-counter update, then count."""
        yield from self._atomic.update()
        self._completed_msgs += 1
        # Compare against the negotiated count, not len(_msg_reqs): a
        # message may complete from the unexpected queue while later
        # receives are still being posted.
        if self._completed_msgs == self.n_msgs:
            self.complete(Status(self.source, self.tag, self.nbytes))

    # ------------------------------------------------------------------
    def parrived(self, partition: int) -> bool:
        """Has ``partition`` arrived? (``MPI_Parrived``).

        With aggregation the granularity is the *message*: a partition
        reads as arrived once its whole (possibly aggregated) message
        landed — the tension the paper notes between ``MPI_Parrived``
        and aggregation (§3.2.1).
        """
        if not self.active:
            raise RequestStateError("Parrived before MPI_Start")
        if not 0 <= partition < self.partitions:
            raise PartitionError(f"partition {partition} out of range")
        if self.mode == "am" or self.mode is None:
            return self.completion_event.triggered
        m = partition * self.n_msgs // self.partitions
        if m >= len(self._msg_reqs):
            return False  # that receive is still being posted
        return self._msg_reqs[m].test()

    def am_data_arrived(self, pkt: Packet) -> None:
        """Called by the AM data handler when the single transfer lands."""
        if pkt.payload is not None and self.buffer is not None:
            flat = np.asarray(self.buffer).reshape(-1).view(np.uint8)
            flat[: pkt.nbytes] = pkt.payload
        if self._am_arrived is not None and not self._am_arrived.triggered:
            self._am_arrived.succeed()

    def _finish_wait(self):
        yield self.env.timeout(self.rt.params.part_completion_overhead)

    def wait(self):
        """Generator: complete the activation (``MPI_Wait``)."""
        if not self.active:
            raise RequestStateError("wait() while inactive")
        if self.mode is None:
            yield self._rts_event
        result = yield self.completion_event
        yield from self._finish_wait()
        self.active = False
        return result

    def free(self) -> None:
        """Release the request and its registry slot."""
        super().free()
        _part_registry(self.rt).pop(self._key, None)
