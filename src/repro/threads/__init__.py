"""MPI+threads substrate: simulated thread teams and compute models."""

from .compute import (
    ComputeModel,
    FixedDelayModel,
    GaussianComputeModel,
    NoDelayModel,
)
from .team import ThreadTeam

__all__ = [
    "ThreadTeam",
    "ComputeModel",
    "NoDelayModel",
    "FixedDelayModel",
    "GaussianComputeModel",
]
