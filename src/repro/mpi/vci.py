"""VCI selection policies.

MPICH maps communication onto virtual communication interfaces (VCIs) to
let threads drive the network without sharing locks (§4.2.1 of the
paper).  Three policies are modelled:

* ``comm`` — a communicator's traffic follows its context id
  (``MPIR_CVAR_NUM_VCIS`` + communicator hashing).  This is what makes
  ``Pt2Pt many`` scale in Fig. 6: each duplicated communicator lands on
  its own VCI.
* ``tag_rr`` — the experimental per-partition round-robin used by the
  improved partitioned path (``--enable-vci-method=tag``), encoding the
  source/destination VCI ids in the tag (§3.2.2).
* ``thread`` — an explicit thread→VCI mapping, standing in for the
  MPIX_Stream-style hint the paper proposes as future work.
"""

from __future__ import annotations

from typing import Optional

from .cvars import VCI_METHOD_TAG_RR, VCI_METHOD_THREAD, Cvars

__all__ = ["vci_for_comm", "vci_for_partition_message"]


def vci_for_comm(cvars: Cvars, context_id: int) -> int:
    """VCI carrying a communicator's point-to-point and RMA traffic."""
    return context_id % cvars.num_vcis


def vci_for_partition_message(
    cvars: Cvars,
    comm_vci: int,
    msg_index: int,
    thread_id: Optional[int] = None,
) -> int:
    """VCI carrying partitioned message ``msg_index``.

    Under ``tag_rr`` the implementation assumes a round-robin attribution
    of threads to partitions — the paper notes this assumption "is
    inflexible and likely to break when used in practice with θ > 1"
    (§3.2.2), which the ``thread`` policy fixes by using the caller's
    thread id when available.
    """
    if cvars.vci_method == VCI_METHOD_TAG_RR:
        return msg_index % cvars.num_vcis
    if cvars.vci_method == VCI_METHOD_THREAD:
        if thread_id is not None:
            return thread_id % cvars.num_vcis
        return msg_index % cvars.num_vcis
    # VCI_METHOD_COMM: partitioned traffic follows its communicator.
    return comm_vci
