"""Runtime control variables (the simulated ``MPIR_CVAR_*`` knobs).

These mirror the MPICH control variables the paper exercises:

* ``MPIR_CVAR_PART_AGGR_SIZE`` → :attr:`Cvars.part_aggr_size` (§3.2.1,
  Fig. 7): upper bound in bytes for aggregating partition messages.
* ``MPIR_CVAR_NUM_VCIS`` → :attr:`Cvars.num_vcis` (§4.2.1, Figs. 5/6).
* ``--enable-vci-method=tag`` → :attr:`Cvars.vci_method` value
  ``"tag_rr"`` (round-robin partition→VCI mapping encoded in the tag).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["Cvars", "VCI_METHOD_COMM", "VCI_METHOD_TAG_RR", "VCI_METHOD_THREAD"]

#: Communicators map to VCIs by context id; partitioned traffic follows
#: its communicator (no per-partition spreading).
VCI_METHOD_COMM = "comm"
#: Experimental MPICH mode: partition messages round-robin over VCIs with
#: the VCI ids encoded in the tag (§3.2.2).
VCI_METHOD_TAG_RR = "tag_rr"
#: MPIX_Stream-style explicit thread→VCI mapping (the paper's proposed
#: fix for the round-robin assumption breaking at θ>1).
VCI_METHOD_THREAD = "thread"

_VCI_METHODS = (VCI_METHOD_COMM, VCI_METHOD_TAG_RR, VCI_METHOD_THREAD)


@dataclass(frozen=True)
class Cvars:
    """Immutable set of runtime knobs for one :class:`~repro.mpi.world.MPIWorld`."""

    #: Number of VCIs per rank (``MPIR_CVAR_NUM_VCIS``).
    num_vcis: int = 1
    #: VCI selection policy; see the module constants.
    vci_method: str = VCI_METHOD_COMM
    #: Aggregation bound in bytes for partitioned messages; 0 disables
    #: aggregation (``MPIR_CVAR_PART_AGGR_SIZE``).
    #: Any new simulator reader must update ``bench.harness.simulation_key``.
    part_aggr_size: int = 0
    #: Internal tags reserved for partitioned traffic per peer; when a
    #: sender exceeds this, new partitioned requests fall back to AM.
    part_reserved_tags: int = 1024
    #: Force the legacy AM path for partitioned communication (the
    #: pre-improvement MPICH behaviour benchmarked as "Pt2Pt part - old").
    part_force_am: bool = False
    #: Skip the first-iteration CTS handshake (the paper's future-work
    #: item in §5); requires both sides to pre-agree on the message count.
    part_skip_first_cts: bool = False
    #: Carry and verify real payloads (tests) instead of byte counts only.
    verify_payloads: bool = False

    def __post_init__(self) -> None:
        if self.num_vcis < 1:
            raise ValueError("num_vcis must be >= 1")
        if self.vci_method not in _VCI_METHODS:
            raise ValueError(f"vci_method must be one of {_VCI_METHODS}")
        if self.part_aggr_size < 0:
            raise ValueError("part_aggr_size must be >= 0")
        if self.part_reserved_tags < 1:
            raise ValueError("part_reserved_tags must be >= 1")

    def with_updates(self, **kwargs) -> "Cvars":
        """Copy with the given fields replaced."""
        return replace(self, **kwargs)
