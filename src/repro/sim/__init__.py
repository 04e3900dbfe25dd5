"""Deterministic discrete-event simulation engine.

The engine underlying the MPI runtime simulator: events, processes,
resources, synchronization, named RNG streams, and tracing.
"""

from .core import (
    HIGH,
    LOW,
    NORMAL,
    PENDING,
    URGENT,
    Environment,
    Event,
    SimulationError,
    StopSimulation,
    Timeout,
)
from .process import Process
from .resources import Lock, Request, Resource, Store
from .rng import RngRegistry
from .sync import CountdownLatch, SimBarrier
from .trace import NullTracer, StreamingTracer, TraceRecord

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "SimulationError",
    "StopSimulation",
    "PENDING",
    "URGENT",
    "HIGH",
    "NORMAL",
    "LOW",
    "Resource",
    "Request",
    "Lock",
    "Store",
    "SimBarrier",
    "CountdownLatch",
    "RngRegistry",
    "NullTracer",
    "StreamingTracer",
    "TraceRecord",
]
