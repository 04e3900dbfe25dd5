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
from .primitives import AllOf, AnyOf, Condition
from .process import Interrupt, Process
from .resources import Lock, Request, Resource, ResourceStats, Store
from .rng import RngRegistry
from .sync import CountdownLatch, Semaphore, Signal, SimBarrier
from .trace import NullTracer, StreamingTracer, TraceRecord, Tracer

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "SimulationError",
    "StopSimulation",
    "PENDING",
    "URGENT",
    "HIGH",
    "NORMAL",
    "LOW",
    "AllOf",
    "AnyOf",
    "Condition",
    "Resource",
    "Request",
    "ResourceStats",
    "Lock",
    "Store",
    "SimBarrier",
    "Semaphore",
    "CountdownLatch",
    "Signal",
    "RngRegistry",
    "Tracer",
    "NullTracer",
    "StreamingTracer",
    "TraceRecord",
]
