"""Structured event tracing.

The runtime emits timestamped :class:`TraceRecord` objects (packet
posted, carried over the wire, received) through its world's tracer.
With no trace sink installed the tracer is a :class:`NullTracer`, whose
``enabled`` flag tells the emitters not to format records at all; with
a sink installed (:func:`repro.telemetry.set_trace_sink`, as
``campaign run --trace`` does) it is a :class:`StreamingTracer`, which
hands every record to that sink.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict

from .core import Environment

__all__ = ["TraceRecord", "NullTracer", "StreamingTracer"]


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry."""

    time: float
    category: str
    event: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        kv = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return f"[{self.time * 1e6:12.3f}us] {self.category}:{self.event} {kv}"


class NullTracer:
    """A tracer that drops everything (the default)."""

    enabled = False

    def log(self, category: str, event: str, **fields: Any) -> None:
        return


class StreamingTracer:
    """A tracer that hands each record to a sink instead of storing it.

    An arbitrarily long simulation therefore traces in O(1) memory —
    the sink (typically a JSONL metrics file, see
    :mod:`repro.telemetry`) owns persistence.
    """

    enabled = True

    def __init__(
        self, env: Environment, sink: Callable[[TraceRecord], None]
    ):
        self.env = env
        self._sink = sink

    def log(self, category: str, event: str, **fields: Any) -> None:
        """Hand a record stamped with the current simulated time to the sink."""
        self._sink(TraceRecord(self.env.now, category, event, fields))
