"""One-sided communication: windows, puts, and both synchronization APIs.

Implements the RMA machinery the paper's four one-sided approaches use
(§2.3.3):

* **passive target**: ``Lock`` / ``Put`` / ``Flush`` / ``Unlock``, with
  ``MODE_NOCHECK`` making the lock free of wire traffic (the paper's
  choice to keep the receiver out of the synchronization);
* **active target (PSCW)**: ``Post`` / ``Start`` / ``Put`` /
  ``Complete`` / ``Wait`` with explicit exposure control.

Remote-completion ordering relies on the simulator's per-VCI FIFO: a
``flush`` request or ``complete`` token posted after puts on the same
VCI is processed after them at the target, exactly like ordered RDMA
channels.

The *progress-scan* cost models the overhead the paper measures for
``RMA many - passive`` on a single VCI (Fig. 5): a progress engine
serving W windows on one VCI scans all of them per flush service, so
acks slow down linearly in the number of co-located windows.  With one
VCI per window (Fig. 6) the scan disappears and many windows win.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..net import Packet, PacketKind
from ..sim import Event
from .errors import RmaSyncError
from .communicator import Comm

__all__ = ["Window", "LOCK_SHARED", "LOCK_EXCLUSIVE", "MODE_NOCHECK", "win_create"]

LOCK_SHARED = "shared"
LOCK_EXCLUSIVE = "exclusive"
#: Assertion telling the runtime no conflicting lock exists — skips the
#: lock handshake entirely (used by the paper's passive approaches).
MODE_NOCHECK = 1

_flush_seqs = itertools.count(1)


class _LockManager:
    """Target-side lock table for non-NOCHECK passive target epochs."""

    def __init__(self) -> None:
        self.holders: Set[Tuple[int, str]] = set()
        self.queue: List[Tuple[int, str, int]] = []  # (origin, type, seq)

    def can_grant(self, lock_type: str) -> bool:
        if not self.holders:
            return True
        if lock_type == LOCK_EXCLUSIVE:
            return False
        return all(t == LOCK_SHARED for _, t in self.holders)

    def grant(self, origin: int, lock_type: str) -> None:
        self.holders.add((origin, lock_type))

    def release(self, origin: int) -> List[Tuple[int, str, int]]:
        """Release origin's hold; return newly grantable queue entries."""
        self.holders = {(o, t) for (o, t) in self.holders if o != origin}
        granted = []
        while self.queue and self.can_grant(self.queue[0][1]):
            entry = self.queue.pop(0)
            self.grant(entry[0], entry[1])
            granted.append(entry)
        return granted


class Window:
    """One rank's handle on an RMA window.

    Create collectively via :func:`win_create`; every rank must call it
    in the same order (windows are identified by a deterministic
    world-level id, like communicator contexts).
    """

    def __init__(self, comm: Comm, win_id: int, nbytes: int,
                 buffer: Optional[np.ndarray] = None):
        self.comm = comm
        self.rt = comm.rt
        self.env = self.rt.env
        self.win_id = win_id
        self.nbytes = nbytes
        self.buffer = buffer
        #: Window traffic maps to a VCI by window id (MPICH hashes
        #: windows onto VCIs the same way it does communicators).
        self.vci = win_id % self.rt.cvars.num_vcis
        # --- origin-side state -------------------------------------------
        self._lock_epochs: Dict[int, str] = {}  # target -> lock type
        self._lock_grants: Dict[int, Event] = {}
        self._flush_acks: Dict[int, Event] = {}
        self._access_group: Optional[Tuple[int, ...]] = None  # PSCW start
        # --- target-side state ---------------------------------------------
        self._lock_mgr = _LockManager()
        self._post_tokens: Dict[int, int] = {}  # origin -> tokens seen
        self._post_waiters: Dict[int, Event] = {}
        self._exposure_group: Optional[Tuple[int, ...]] = None
        self._complete_tokens = 0
        self._complete_waiter: Optional[Event] = None
        self._register_handlers()

    # ------------------------------------------------------------------
    # handler registration (one set per window id per rank)
    # ------------------------------------------------------------------
    def _register_handlers(self) -> None:
        rt = self.rt
        wid = self.win_id
        rt.register_ctrl_handler(f"rma_put:{wid}", self._on_put)
        rt.register_ctrl_handler(f"rma_flush_req:{wid}", self._on_flush_req)
        rt.register_ctrl_handler(f"rma_flush_ack:{wid}", self._on_flush_ack)
        rt.register_ctrl_handler(f"rma_post:{wid}", self._on_post_token)
        rt.register_ctrl_handler(f"rma_complete:{wid}", self._on_complete_token)
        rt.register_ctrl_handler(f"rma_lock_req:{wid}", self._on_lock_req)
        rt.register_ctrl_handler(f"rma_lock_grant:{wid}", self._on_lock_grant)
        rt.register_ctrl_handler(f"rma_unlock:{wid}", self._on_unlock)
        if not hasattr(rt, "rma_windows"):
            rt.rma_windows = {}
        rt.rma_windows[wid] = self

    def _windows_sharing_vci(self) -> int:
        """Number of windows on this rank mapped to this window's VCI."""
        windows = getattr(self.rt, "rma_windows", {})
        return sum(1 for w in windows.values() if w.vci == self.vci)

    # ------------------------------------------------------------------
    # passive target synchronization
    # ------------------------------------------------------------------
    def lock(self, target: int, lock_type: str = LOCK_SHARED, assertion: int = 0):
        """Generator: open a passive access epoch at ``target``.

        With ``MODE_NOCHECK`` no wire traffic occurs (the paper's usage);
        otherwise a lock request/grant round trip runs against the
        target's lock table.
        """
        tw = self.comm.world_rank(target)
        if tw in self._lock_epochs:
            raise RmaSyncError(f"win {self.win_id}: already locked {target}")
        if assertion & MODE_NOCHECK:
            self._lock_epochs[tw] = lock_type
            return
        grant = self.env.event()
        self._lock_grants[tw] = grant
        yield from self.rt.post_ctrl(
            tw,
            f"rma_lock_req:{self.win_id}",
            vci=self.vci,
            kind=PacketKind.RMA_CTRL,
            origin=self.rt.rank,
            lock_type=lock_type,
        )
        yield grant
        self._lock_epochs[tw] = lock_type

    def unlock(self, target: int, assertion: int = 0):
        """Generator: flush and close the passive epoch at ``target``."""
        tw = self.comm.world_rank(target)
        if tw not in self._lock_epochs:
            raise RmaSyncError(f"win {self.win_id}: unlock without lock")
        yield from self.flush(target)
        if not (assertion & MODE_NOCHECK):
            yield from self.rt.post_ctrl(
                tw,
                f"rma_unlock:{self.win_id}",
                vci=self.vci,
                kind=PacketKind.RMA_CTRL,
                origin=self.rt.rank,
            )
        del self._lock_epochs[tw]

    def flush(self, target: int):
        """Generator: block until all puts to ``target`` completed remotely."""
        tw = self.comm.world_rank(target)
        yield self.env.timeout(self.rt.params.rma_sync_overhead)
        seq = next(_flush_seqs)
        ack = self.env.event()
        self._flush_acks[seq] = ack
        yield from self.rt.post_ctrl(
            tw,
            f"rma_flush_req:{self.win_id}",
            vci=self.vci,
            kind=PacketKind.RMA_CTRL,
            origin=self.rt.rank,
            seq=seq,
        )
        yield ack

    # ------------------------------------------------------------------
    # active target synchronization (PSCW)
    # ------------------------------------------------------------------
    def post(self, group: Sequence[int]):
        """Generator (target side): expose the window to ``group``."""
        if self._exposure_group is not None:
            raise RmaSyncError(f"win {self.win_id}: already exposed")
        yield self.env.timeout(self.rt.params.rma_sync_overhead)
        self._exposure_group = tuple(self.comm.world_rank(g) for g in group)
        self._complete_tokens = 0
        self._complete_waiter = self.env.event()
        for origin in self._exposure_group:
            yield from self.rt.post_ctrl(
                origin,
                f"rma_post:{self.win_id}",
                vci=self.vci,
                kind=PacketKind.RMA_CTRL,
                origin=self.rt.rank,
            )

    def start(self, group: Sequence[int]):
        """Generator (origin side): open access epochs to ``group``,
        waiting for each target's post token."""
        if self._access_group is not None:
            raise RmaSyncError(f"win {self.win_id}: start() twice")
        yield self.env.timeout(self.rt.params.rma_sync_overhead)
        targets = tuple(self.comm.world_rank(g) for g in group)
        for t in targets:
            while self._post_tokens.get(t, 0) == 0:
                waiter = self._post_waiters.get(t)
                if waiter is None or waiter.triggered:
                    waiter = self.env.event()
                    self._post_waiters[t] = waiter
                yield waiter
            self._post_tokens[t] -= 1
        self._access_group = targets

    def complete(self):
        """Generator (origin side): close the PSCW access epoch.

        The completion token is posted after the epoch's puts on the same
        VCI, so its arrival at the target implies their delivery.
        """
        if self._access_group is None:
            raise RmaSyncError(f"win {self.win_id}: complete() without start()")
        yield self.env.timeout(self.rt.params.rma_sync_overhead)
        for t in self._access_group:
            yield from self.rt.post_ctrl(
                t,
                f"rma_complete:{self.win_id}",
                vci=self.vci,
                kind=PacketKind.RMA_CTRL,
                origin=self.rt.rank,
            )
        self._access_group = None

    def wait(self):
        """Generator (target side): wait for every origin's completion."""
        if self._exposure_group is None:
            raise RmaSyncError(f"win {self.win_id}: wait() without post()")
        yield self.env.timeout(self.rt.params.rma_sync_overhead)
        while self._complete_tokens < len(self._exposure_group):
            yield self._complete_waiter
            if self._complete_tokens < len(self._exposure_group):
                self._complete_waiter = self.env.event()
        self._exposure_group = None

    # ------------------------------------------------------------------
    # data movement
    # ------------------------------------------------------------------
    def put(self, target: int, offset: int, nbytes: int,
            data: Optional[np.ndarray] = None):
        """Generator: one-sided write into ``target``'s window.

        Cheaper to post than a tag-matched send (§3.2) and with no
        matching work at the target.
        """
        tw = self.comm.world_rank(target)
        if tw not in self._lock_epochs and (
            self._access_group is None or tw not in self._access_group
        ):
            raise RmaSyncError(
                f"win {self.win_id}: put() outside any epoch to {target}"
            )
        if offset + nbytes > self.nbytes:
            raise RmaSyncError(
                f"win {self.win_id}: put of {nbytes} B at {offset} beyond "
                f"window size {self.nbytes}"
            )
        payload = None
        if self.rt.cvars.verify_payloads and data is not None:
            payload = np.array(data, dtype=np.uint8, copy=True).ravel()
        pkt = Packet(
            kind=PacketKind.RMA_PUT,
            src=self.rt.rank,
            dst=tw,
            nbytes=nbytes,
            src_vci=self.vci,
            dst_vci=self.vci,
            header={"op": f"rma_put:{self.win_id}", "offset": offset},
            payload=payload,
        )
        self.rt._count_tx(PacketKind.RMA_PUT)
        yield from self.rt.nic.post(self.vci, pkt, self.rt.params.put_overhead)

    # ------------------------------------------------------------------
    # target-side packet handlers (zero sim-time; costs paid in RX loop)
    # ------------------------------------------------------------------
    def _on_put(self, pkt: Packet) -> None:
        if pkt.payload is not None and self.buffer is not None:
            off = pkt.header["offset"]
            flat = self.buffer.reshape(-1).view(np.uint8)
            flat[off : off + pkt.nbytes] = pkt.payload

    def _on_flush_req(self, pkt: Packet) -> None:
        # The progress engine scans every window sharing this VCI before
        # acking — the RMA-many-on-one-VCI penalty (Fig. 5).
        scan = self.rt.params.rma_progress_scan * (self._windows_sharing_vci() - 1)
        self.rt.spawn(self._ack_flush(pkt, scan))

    def _ack_flush(self, pkt: Packet, scan: float):
        if scan > 0:
            yield self.env.timeout(scan)
        yield from self.rt.post_ctrl(
            pkt.header["origin"],
            f"rma_flush_ack:{self.win_id}",
            vci=self.vci,
            kind=PacketKind.RMA_CTRL,
            seq=pkt.header["seq"],
        )

    def _on_flush_ack(self, pkt: Packet) -> None:
        self._flush_acks.pop(pkt.header["seq"]).succeed()

    def _on_post_token(self, pkt: Packet) -> None:
        origin = pkt.header["origin"]
        self._post_tokens[origin] = self._post_tokens.get(origin, 0) + 1
        waiter = self._post_waiters.get(origin)
        if waiter is not None and not waiter.triggered:
            waiter.succeed()

    def _on_complete_token(self, pkt: Packet) -> None:
        self._complete_tokens += 1
        if self._complete_waiter is not None and not self._complete_waiter.triggered:
            self._complete_waiter.succeed()

    def _on_lock_req(self, pkt: Packet) -> None:
        origin = pkt.header["origin"]
        lock_type = pkt.header["lock_type"]
        if self._lock_mgr.can_grant(lock_type):
            self._lock_mgr.grant(origin, lock_type)
            self.rt.spawn(self._send_grant(origin))
        else:
            self._lock_mgr.queue.append((origin, lock_type, 0))

    def _send_grant(self, origin: int):
        yield from self.rt.post_ctrl(
            origin,
            f"rma_lock_grant:{self.win_id}",
            vci=self.vci,
            kind=PacketKind.RMA_CTRL,
        )

    def _on_lock_grant(self, pkt: Packet) -> None:
        self._lock_grants.pop(pkt.src).succeed()

    def _on_unlock(self, pkt: Packet) -> None:
        for origin, lock_type, _ in self._lock_mgr.release(pkt.header["origin"]):
            self._lock_mgr.grant(origin, lock_type)
            self.rt.spawn(self._send_grant(origin))

    def __repr__(self) -> str:  # pragma: no cover - debug repr
        return f"<Window id={self.win_id} rank={self.rt.rank} vci={self.vci}>"


def win_create(comm: Comm, nbytes: int, buffer: Optional[np.ndarray] = None,
               key: Optional[str] = None):
    """Generator: collectively create a window over ``nbytes`` of memory.

    Without ``key``, every rank of ``comm`` must call in the same order
    (windows pair by per-rank creation sequence, like a plain
    ``MPI_Win_create`` job with identical rank programs).  With a
    ``key``, the window id is agreed through a world-level table keyed by
    the string, so ranks whose window-creation orders differ (e.g. one
    window per topology link) still pair correctly — the analogue of
    creating the window on a tagged sub-communicator.  Includes the
    synchronizing barrier that ``MPI_Win_create`` implies.
    """
    world = comm.rt.world
    if not hasattr(world, "_win_seq"):
        world._win_seq = {}
        world._win_table = {}
        world._win_key_table = {}
        world._next_win = 0
    if key is not None:
        win_id = world._win_key_table.get(key)
        if win_id is None:
            win_id = world._next_win
            world._next_win += 1
            world._win_key_table[key] = win_id
    else:
        seq = world._win_seq.get(comm.rt.rank, 0)
        world._win_seq[comm.rt.rank] = seq + 1
        win_id = world._win_table.get(seq)
        if win_id is None:
            win_id = world._next_win
            world._next_win += 1
            world._win_table[seq] = win_id
    win = Window(comm, win_id, nbytes, buffer)
    yield from comm.barrier()
    return win
