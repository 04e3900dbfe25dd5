"""The simulated MPI runtime.

Public surface: :class:`MPIWorld` (build a job), :class:`Comm`
(point-to-point + persistent + collectives), :class:`Window` (RMA),
partitioned requests (MPI-4.0 ``Psend``/``Precv``), and the runtime
control variables in :class:`Cvars`.
"""

from .communicator import Comm
from .cvars import (
    VCI_METHOD_COMM,
    VCI_METHOD_TAG_RR,
    VCI_METHOD_THREAD,
    Cvars,
)
from .errors import (
    MPIError,
    PartitionError,
    RequestStateError,
    RmaSyncError,
    TagSpaceExhausted,
    TruncationError,
)
from .matching import MatchingEngine, MatchKey
from .p2p import (
    PersistentRecvRequest,
    PersistentSendRequest,
    RecvRequest,
    SendRequest,
)
from .partitioned import PartitionedRecvRequest, PartitionedSendRequest
from .partitioned_am import AmPartitionedRecvRequest, AmPartitionedSendRequest
from .request import PersistentRequest, Request
from .rma import LOCK_EXCLUSIVE, LOCK_SHARED, MODE_NOCHECK, Window
from .runtime import PART_TAG_BASE, TAG_UB, RankRuntime
from .status import ANY_SOURCE, ANY_TAG, Status
from .topology import CartTopology, dims_create
from .world import MPIWorld

__all__ = [
    "MPIWorld",
    "Comm",
    "RankRuntime",
    "CartTopology",
    "dims_create",
    "Cvars",
    "VCI_METHOD_COMM",
    "VCI_METHOD_TAG_RR",
    "VCI_METHOD_THREAD",
    "Status",
    "ANY_SOURCE",
    "ANY_TAG",
    "Request",
    "PersistentRequest",
    "SendRequest",
    "RecvRequest",
    "PersistentSendRequest",
    "PersistentRecvRequest",
    "PartitionedSendRequest",
    "PartitionedRecvRequest",
    "AmPartitionedSendRequest",
    "AmPartitionedRecvRequest",
    "Window",
    "LOCK_SHARED",
    "LOCK_EXCLUSIVE",
    "MODE_NOCHECK",
    "MatchKey",
    "MatchingEngine",
    "MPIError",
    "TruncationError",
    "RequestStateError",
    "TagSpaceExhausted",
    "RmaSyncError",
    "PartitionError",
    "TAG_UB",
    "PART_TAG_BASE",
]
