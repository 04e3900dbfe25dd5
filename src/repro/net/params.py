"""System parameters: the calibrated cost model of the simulated testbed.

The defaults model the paper's testbed: two MeluXina CPU nodes (AMD EPYC
7H12) connected by Mellanox HDR200 InfiniBand (25 GB/s payload bandwidth,
1.22 µs end-to-end latency) running MPICH over ucx-1.13.1.  The three-level
protocol ladder (``short`` / ``bcopy`` / ``zcopy``) and its thresholds
follow the jumps the paper identifies in Fig. 4: short→bcopy between
1024 B and 2048 B, bcopy→zcopy (rendezvous) between 8192 B and 16384 B.

All times are in **seconds**, sizes in **bytes**, bandwidths in **B/s**.

Calibration notes
-----------------
* ``post_overhead`` and ``vci_contention_coeff`` set the thread-congestion
  penalty of Fig. 5 (~×30 for 32 threads on one VCI).
* ``wire_gap`` sets the residual per-message serialization of Fig. 6
  (~×4 with one VCI per thread).
* ``atomic_overhead``/``atomic_bounce_coeff`` set the partitioned-path
  residual of Figs. 6 and 7 (shared-counter cache-line bouncing).
* ``copy_bandwidth`` sets the bcopy step and the AM path's large-message
  penalty in Fig. 4.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Dict

__all__ = ["Protocol", "SystemParams", "MELUXINA"]


class Protocol(enum.Enum):
    """UCX-style wire protocol for a point-to-point message."""

    #: Payload rides inline in the header packet (tiny messages).
    SHORT = "short"
    #: Eager buffered-copy: memcpy through bounce buffers on both sides.
    BCOPY = "bcopy"
    #: Rendezvous zero-copy: RTS/CTS handshake then RDMA at full bandwidth.
    ZCOPY = "zcopy"


@dataclass(frozen=True)
class SystemParams:
    """Every tunable cost in the simulated system.

    Instances are immutable; derive variants with :meth:`with_updates`.
    """

    # ----- wire -------------------------------------------------------------
    #: Network payload bandwidth (B/s). Paper: 25 GB/s HDR200.
    bandwidth: float = 25e9
    #: One-way wire latency (s). Paper: 1.22 µs.
    latency: float = 1.22e-6
    #: Per-message wire/DMA setup occupancy on the shared link (s).
    wire_gap: float = 0.02e-6
    #: Bytes of header per packet (counted against wire occupancy).
    header_bytes: int = 64

    # ----- protocol ladder -----------------------------------------------------
    #: Largest payload sent with the ``short`` protocol (inclusive).
    short_max: int = 1024
    #: Largest payload sent eagerly via ``bcopy`` (inclusive); above this,
    #: rendezvous ``zcopy``.
    eager_max: int = 8192
    #: memcpy bandwidth for bounce-buffer copies (B/s per side).
    copy_bandwidth: float = 12e9

    # ----- host-side messaging costs -------------------------------------------
    #: CPU time to post one tag-matched send while holding the VCI lock (s).
    post_overhead: float = 0.20e-6
    #: CPU time to match + complete one incoming tag-matched message (s).
    recv_overhead: float = 0.25e-6
    #: CPU time to post one receive into the matching engine (s).
    recv_post_overhead: float = 0.05e-6
    #: CPU time to post one RMA put (cheaper than a tag-matched send, §3.2).
    put_overhead: float = 0.15e-6
    #: Target-side handling of an incoming put (no matching needed) (s).
    put_handler_overhead: float = 0.10e-6
    #: Handling of a 0-byte control packet (RTS/CTS/ack/token) (s).
    ctrl_overhead: float = 0.10e-6
    #: Extra per-message dispatch cost on the active-message path (s).
    am_dispatch_overhead: float = 0.80e-6
    #: Progress-engine scan cost per *additional* window sharing a VCI
    #: (the RMA-many-passive overhead of Fig. 5), paid when acking a
    #: flush (s).
    rma_progress_scan: float = 0.05e-6
    #: CPU cost of an RMA epoch transition (Post/Start/Complete/Wait,
    #: and Flush issue): state-machine and group bookkeeping in MPICH.
    rma_sync_overhead: float = 0.60e-6
    #: AM transfers are chunked; the receiver's bounce copy overlaps the
    #: wire except for the final chunk of this size (B).
    am_chunk_bytes: int = 65536

    # ----- contention model --------------------------------------------------------
    #: Linear term of the VCI-lock contention multiplier: the effective
    #: post cost is ``base * (1 + a*n + b*n^2)`` for ``n`` contenders,
    #: modelling lock handoff plus the superlinear cache-line bouncing
    #: measured under MPI_THREAD_MULTIPLE (Fig. 5's ~x30 at 32 threads
    #: coexisting with Fig. 7's mild 4-thread penalty).
    vci_contention_coeff: float = 0.13
    #: Quadratic term of the contention multiplier (see above).
    vci_contention_quad: float = 0.0122
    #: Sliding window for counting distinct contender threads on a VCI
    #: lock (s): a thread that posted within this window still owns
    #: lock/descriptor cache lines, so handoffs to other threads pay the
    #: transfer even when the instantaneous queue is empty.
    vci_agent_window: float = 3.0e-6
    #: Cost of one uncontended atomic counter update (s).
    atomic_overhead: float = 0.02e-6
    #: Extra cost per concurrent context hammering the same cache line
    #: (s).  Receive-side partitioned completion counters serialize
    #: these updates (ownership of the counter line moves between the
    #: progress contexts), which is the residual partitioned overhead of
    #: Fig. 6 (§4.2.2).
    atomic_bounce_coeff: float = 0.018e-6
    #: Bounce term for the *sender-side* ``MPI_Pready`` counters; small,
    #: because each message's counter is mostly touched by the few
    #: threads contributing to that message.
    pready_atomic_bounce: float = 0.002e-6

    # ----- threading -----------------------------------------------------------------
    #: Per-round cost of a tree thread-barrier: total ≈ base * ceil(log2(N)).
    thread_barrier_base: float = 0.15e-6
    #: Cost of forking/waking a thread team (one-time, outside timed region).
    thread_fork_overhead: float = 1.0e-6

    # ----- partitioned-path specifics -----------------------------------------------
    #: Extra completion bookkeeping for a partitioned request per wait (s).
    part_completion_overhead: float = 0.10e-6
    #: Per-partition bookkeeping inside MPI_Pready before the atomic (s).
    pready_overhead: float = 0.02e-6

    def __post_init__(self) -> None:
        if self.bandwidth <= 0 or self.copy_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        if self.latency < 0 or self.wire_gap < 0:
            raise ValueError("latency and wire_gap must be non-negative")
        if not (0 < self.short_max <= self.eager_max):
            raise ValueError(
                "thresholds must satisfy 0 < short_max <= eager_max"
            )

    # ------------------------------------------------------------------
    def protocol_for(self, nbytes: int) -> Protocol:
        """Wire protocol selected for a ``nbytes`` point-to-point payload."""
        if nbytes <= self.short_max:
            return Protocol.SHORT
        if nbytes <= self.eager_max:
            return Protocol.BCOPY
        return Protocol.ZCOPY

    def wire_time(self, nbytes: int) -> float:
        """Wire occupancy of one packet carrying ``nbytes`` of payload."""
        return self.wire_gap + (nbytes + self.header_bytes) / self.bandwidth

    def copy_time(self, nbytes: int) -> float:
        """Time for one memcpy of ``nbytes``."""
        return nbytes / self.copy_bandwidth

    def barrier_time(self, parties: int) -> float:
        """Cost of one tree barrier across ``parties`` threads."""
        if parties <= 1:
            return 0.0
        rounds = (parties - 1).bit_length()  # ceil(log2(parties))
        return self.thread_barrier_base * rounds

    def atomic_time(self, contenders: int = 1) -> float:
        """Cost of one atomic RMW with ``contenders`` concurrent threads."""
        extra = max(0, contenders - 1)
        return self.atomic_overhead + self.atomic_bounce_coeff * extra

    def pready_atomic_time(self, contenders: int = 1) -> float:
        """Cost of one ``MPI_Pready`` counter decrement."""
        extra = max(0, contenders - 1)
        return self.atomic_overhead + self.pready_atomic_bounce * extra

    def contention_multiplier(self, contenders: int) -> float:
        """VCI-lock cost multiplier for ``contenders`` competing threads."""
        n = max(0, contenders)
        return 1.0 + self.vci_contention_coeff * n + self.vci_contention_quad * n * n

    def with_updates(self, **kwargs: float) -> "SystemParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def describe(self) -> Dict[str, float]:
        """Flat dict of all parameters (for reports)."""
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


#: The calibrated MeluXina-like preset used throughout the reproduction.
MELUXINA = SystemParams()
