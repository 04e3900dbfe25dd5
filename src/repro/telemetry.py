"""Process-local campaign telemetry: metrics, spans, and a JSONL sink.

The campaign pipeline (planner → executor → kernel → store) is fast
because of claims that used to live in comments — "the single-thread
serialization is what holds the fast path under 1M points/s".  This
module turns those claims into artifacts: a dependency-free
:class:`MetricsRegistry` (counters, gauges, histograms with fixed
log-spaced bins) plus a :func:`span` context manager that records
wall-time regions with nesting, cheap enough to leave compiled into the
hot path permanently.

Design constraints, in order:

* **Disabled is the default and costs ≈ one global read.**  No
  registry is active unless something (the ``--metrics`` CLI flag, a
  test, a benchmark) activates one; every instrumentation point then
  short-circuits through a module-global ``None`` check and a shared
  no-op span singleton.  A CI gate pins the per-call cost of the
  disabled path.
* **No dependencies, no threads.**  Pure stdlib, process-local state.
  Worker processes run their *own* registry; their snapshots ride the
  existing chunk-result channel back to the parent and merge there
  (:meth:`MetricsRegistry.merge_snapshot`), so pooled campaigns
  aggregate without any extra IPC machinery.
* **Schema-versioned artifacts.**  :func:`write_metrics_jsonl` emits a
  JSON-lines snapshot — header with producer provenance, counters,
  gauges, histograms, per-name span totals, and the raw span tree —
  that ``campaign profile`` renders into a stage-attribution table.
  The same sink accepts streamed :class:`~repro.sim.trace.TraceRecord`
  rows (the ``--trace`` bridge), so simulator traces land in a file
  instead of dying in memory.
"""

from __future__ import annotations

import json
import math
import os
import platform
import threading
import time
from pathlib import Path
from typing import Any, Dict, IO, Iterator, List, Mapping, Optional, Tuple

__all__ = [
    "TELEMETRY_SCHEMA",
    "Histogram",
    "MetricsRegistry",
    "Stopwatch",
    "active_registry",
    "count",
    "environment_provenance",
    "gauge",
    "observe",
    "read_metrics_jsonl",
    "set_registry",
    "set_thread_registry",
    "set_trace_sink",
    "span",
    "stopwatch",
    "trace_sink",
    "using_registry",
    "write_metrics_jsonl",
]

#: Version tag of the metrics JSONL artifact (header ``schema`` field).
TELEMETRY_SCHEMA = "repro.telemetry/v1"

#: Histogram bin edges are ``2**e`` for e in [_HIST_EXP_LO, _HIST_EXP_HI]:
#: fixed log-spaced bins from ~1 µs to ~4096 (seconds, bytes — any
#: positive magnitude), with explicit underflow/overflow buckets
#: outside the range.  Fixed edges (not data-dependent) are what make
#: worker→parent bin merges a plain elementwise add.
_HIST_EXP_LO = -20
_HIST_EXP_HI = 12
HISTOGRAM_EDGES: Tuple[float, ...] = tuple(
    2.0 ** e for e in range(_HIST_EXP_LO, _HIST_EXP_HI + 1)
)

#: Raw spans kept per registry; per-name totals keep accumulating past
#: the cap, so attribution never loses time — only tree detail.
MAX_RAW_SPANS = 20_000


class Histogram:
    """Fixed log₂-spaced-bin histogram with count/sum/min/max.

    Bin ``i`` covers ``[2**(LO+i-1), 2**(LO+i))`` for ``i >= 1``;
    bin 0 is the underflow bucket (values below ``2**LO``, including
    zero and negatives) and the last bin is the overflow bucket.
    """

    __slots__ = ("bins", "count", "total", "min", "max")

    #: Number of buckets: underflow + one per edge gap + overflow.
    N_BINS = len(HISTOGRAM_EDGES) + 1

    def __init__(self) -> None:
        self.bins = [0] * self.N_BINS
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    @staticmethod
    def bin_index(value: float) -> int:
        """Bucket index for ``value`` (floor-log₂, clamped).

        ``math.frexp`` gives the exact binary exponent — no float-log
        rounding at the edges: ``v = m * 2**e`` with ``m in [0.5, 1)``,
        so ``floor(log2(v)) == e - 1`` exactly.
        """
        if value < HISTOGRAM_EDGES[0]:
            return 0
        if value >= HISTOGRAM_EDGES[-1]:
            return Histogram.N_BINS - 1
        return math.frexp(value)[1] - 1 - _HIST_EXP_LO + 1

    def observe(self, value: float) -> None:
        value = float(value)
        self.bins[self.bin_index(value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, snap: Mapping[str, Any]) -> None:
        """Fold a snapshot dict of another histogram into this one."""
        for i, n in enumerate(snap["bins"]):
            self.bins[i] += int(n)
        self.count += int(snap["count"])
        self.total += float(snap["sum"])
        self.min = min(self.min, float(snap["min"]))
        self.max = max(self.max, float(snap["max"]))

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "bins": list(self.bins),
        }


class _NullSpan:
    """The shared disabled-path span: enter/exit do nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """One live wall-time region.  Exception-safe: ``__exit__`` always
    records the duration and never swallows the exception."""

    __slots__ = ("registry", "name", "tags", "span_id", "parent", "depth", "t0")

    def __init__(self, registry: "MetricsRegistry", name: str, tags: dict):
        self.registry = registry
        self.name = name
        self.tags = tags

    def __enter__(self) -> "_Span":
        reg = self.registry
        stack = reg._stack
        self.parent = stack[-1] if stack else None
        self.depth = len(stack)
        reg._next_span_id += 1
        self.span_id = reg._next_span_id
        stack.append(self.span_id)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> bool:
        duration = time.perf_counter() - self.t0
        reg = self.registry
        if reg._stack and reg._stack[-1] == self.span_id:
            reg._stack.pop()
        total = reg.span_totals.setdefault(self.name, [0, 0.0])
        total[0] += 1
        total[1] += duration
        if len(reg.spans) < MAX_RAW_SPANS:
            record = {
                "id": self.span_id,
                "parent": self.parent,
                "name": self.name,
                "depth": self.depth,
                "t0": self.t0 - reg._epoch,
                "dur": duration,
            }
            if self.tags:
                record["tags"] = self.tags
            reg.spans.append(record)
        return False


def _key(name: str, tags: dict) -> str:
    """Flatten ``name`` + tags into one metric key (Prometheus-style)."""
    if not tags:
        return name
    inner = ",".join(f"{k}={tags[k]}" for k in sorted(tags))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Process-local counters, gauges, histograms, and finished spans.

    A disabled registry (``enabled=False``) accepts every call as a
    no-op, so instrumented code never branches on configuration.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = bool(enabled)
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        #: name -> [count, total_seconds]
        self.span_totals: Dict[str, List[float]] = {}
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._next_span_id = 0
        self._epoch = time.perf_counter()

    # -- recording -----------------------------------------------------------
    def count(self, name: str, value: float = 1, **tags: Any) -> None:
        if not self.enabled:
            return
        key = _key(name, tags)
        self.counters[key] = self.counters.get(key, 0) + value

    def gauge(self, name: str, value: float, **tags: Any) -> None:
        if not self.enabled:
            return
        self.gauges[_key(name, tags)] = value

    def observe(self, name: str, value: float, **tags: Any) -> None:
        if not self.enabled:
            return
        key = _key(name, tags)
        hist = self.histograms.get(key)
        if hist is None:
            hist = self.histograms[key] = Histogram()
        hist.observe(value)

    def span(self, name: str, **tags: Any):
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, tags)

    # -- aggregation ---------------------------------------------------------
    def snapshot(self, spans: bool = True) -> dict:
        """The registry's state as a JSON-safe dict (the worker→parent
        wire form and the sink's source of truth)."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: hist.to_dict()
                for name, hist in self.histograms.items()
            },
            "span_totals": {
                name: {"count": int(c), "total_s": t}
                for name, (c, t) in self.span_totals.items()
            },
            "spans": list(self.spans) if spans else [],
        }

    def snapshot_and_reset(self) -> dict:
        """Snapshot, then zero — each pooled chunk ships only its own
        delta back to the parent."""
        snap = self.snapshot(spans=False)
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
        self.span_totals.clear()
        self.spans.clear()
        return snap

    def merge_snapshot(self, snap: Optional[Mapping[str, Any]]) -> None:
        """Fold a worker snapshot into this registry: counters, bins,
        and span totals add; gauges last-write-wins.  Raw worker spans
        are *not* grafted into the parent tree (their clocks are not
        comparable) — their time is preserved via ``span_totals``."""
        if not self.enabled or not snap:
            return
        for name, value in snap.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + value
        self.gauges.update(snap.get("gauges", {}))
        for name, hist_snap in snap.get("histograms", {}).items():
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            if hist_snap["count"]:
                hist.merge(hist_snap)
        for name, total in snap.get("span_totals", {}).items():
            mine = self.span_totals.setdefault(name, [0, 0.0])
            mine[0] += total["count"]
            mine[1] += total["total_s"]


# ---------------------------------------------------------------------------
# module-level switchboard (the hot-path entry points)
# ---------------------------------------------------------------------------

_ACTIVE: Optional[MetricsRegistry] = None
_TRACE_SINK: Optional[Any] = None

#: Per-thread registry override.  A :class:`MetricsRegistry` is not
#: thread-safe (the span stack is one plain list), so a helper thread
#: recording into the process-global registry would corrupt span
#: nesting.  Instead a thread installs its *own* registry here
#: (:func:`set_thread_registry`), records locally, and its owner merges
#: the snapshot into the parent registry when the thread finishes —
#: the same delta-merge protocol pool workers already use.
_THREAD_LOCAL = threading.local()


def active_registry() -> Optional[MetricsRegistry]:
    """The registry instrumentation currently records into (or None):
    the calling thread's override if one is installed, else the
    process-global registry."""
    reg = getattr(_THREAD_LOCAL, "registry", None)
    return reg if reg is not None else _ACTIVE


def set_registry(registry: Optional[MetricsRegistry]):
    """Install ``registry`` as the active one; returns the previous."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    return previous


def set_thread_registry(registry: Optional[MetricsRegistry]):
    """Install ``registry`` as *this thread's* override; returns the
    previous override.  ``None`` removes the override (falling back to
    the process-global registry)."""
    previous = getattr(_THREAD_LOCAL, "registry", None)
    _THREAD_LOCAL.registry = registry
    return previous


class using_registry:
    """``with using_registry(reg):`` — scoped activation (tests)."""

    def __init__(self, registry: Optional[MetricsRegistry]):
        self.registry = registry

    def __enter__(self) -> Optional[MetricsRegistry]:
        self._previous = set_registry(self.registry)
        return self.registry

    def __exit__(self, *exc: Any) -> bool:
        set_registry(self._previous)
        return False


def span(name: str, **tags: Any):
    """A wall-time region under the active registry.

    The disabled path — no active registry — is one thread-local
    getattr, one module-global read, and a shared no-op singleton,
    cheap enough for the campaign hot loop (its per-call cost is
    gated in CI).
    """
    reg = getattr(_THREAD_LOCAL, "registry", None)
    if reg is None:
        reg = _ACTIVE
        if reg is None:
            return _NULL_SPAN
    return reg.span(name, **tags)


def count(name: str, value: float = 1, **tags: Any) -> None:
    reg = active_registry()
    if reg is not None:
        reg.count(name, value, **tags)


def gauge(name: str, value: float, **tags: Any) -> None:
    reg = active_registry()
    if reg is not None:
        reg.gauge(name, value, **tags)


def observe(name: str, value: float, **tags: Any) -> None:
    reg = active_registry()
    if reg is not None:
        reg.observe(name, value, **tags)


def set_trace_sink(sink: Optional[Any]):
    """Install a callable receiving simulator
    :class:`~repro.sim.trace.TraceRecord` objects (the ``--trace``
    bridge target); returns the previous sink.  ``None`` disables."""
    global _TRACE_SINK
    previous = _TRACE_SINK
    _TRACE_SINK = sink
    return previous


def trace_sink() -> Optional[Any]:
    """The active trace sink callable, or None."""
    return _TRACE_SINK


# ---------------------------------------------------------------------------
# timing helper (the t0/wall idiom, consolidated)
# ---------------------------------------------------------------------------

class Stopwatch:
    """``with stopwatch() as sw: ... ; sw.wall`` — one wall-clock region.

    Replaces the hand-rolled ``t0 = time.perf_counter() / wall = ...``
    pairs; ``sw.wall`` reads live inside the block and freezes on exit.
    """

    __slots__ = ("t0", "_wall")

    def __enter__(self) -> "Stopwatch":
        self._wall = None
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> bool:
        self._wall = time.perf_counter() - self.t0
        return False

    @property
    def wall(self) -> float:
        if self._wall is not None:
            return self._wall
        return time.perf_counter() - self.t0


def stopwatch() -> Stopwatch:
    """A fresh :class:`Stopwatch` (context manager)."""
    return Stopwatch()


def environment_provenance() -> dict:
    """Uniform environment stamp for benchmark payloads and metrics
    headers: interpreter, platform, and CPU count."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }


# ---------------------------------------------------------------------------
# the JSONL sink
# ---------------------------------------------------------------------------

def _dump(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class MetricsSink:
    """An open metrics JSONL file: header first, then streamed trace
    records (if any), then the final metrics snapshot.

    Streaming matters for the ``--trace`` bridge — a simulator trace
    can be millions of records, so each one goes straight to disk
    instead of accumulating in a ``Tracer``'s list.
    """

    def __init__(self, path: str | Path, producer: Optional[dict] = None):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: IO[str] = self.path.open("w")
        self.n_trace_records = 0
        header = {
            "type": "header",
            "schema": TELEMETRY_SCHEMA,
            "producer": dict(producer or {}),
            "env": environment_provenance(),
        }
        self._handle.write(_dump(header) + "\n")

    def write_trace(self, record: Any) -> None:
        """Stream one simulator TraceRecord (duck-typed: ``time``,
        ``category``, ``event``, ``fields``)."""
        self.n_trace_records += 1
        self._handle.write(
            _dump(
                {
                    "type": "trace",
                    "t": record.time,
                    "category": record.category,
                    "event": record.event,
                    "fields": dict(record.fields),
                }
            )
            + "\n"
        )

    def write_snapshot(self, snap: Mapping[str, Any]) -> None:
        """Append a registry snapshot as typed metric records."""
        write = self._handle.write
        for name, value in sorted(snap.get("counters", {}).items()):
            write(_dump({"type": "counter", "name": name, "value": value}) + "\n")
        for name, value in sorted(snap.get("gauges", {}).items()):
            write(_dump({"type": "gauge", "name": name, "value": value}) + "\n")
        for name, hist in sorted(snap.get("histograms", {}).items()):
            write(_dump({"type": "histogram", "name": name, **hist}) + "\n")
        for name, total in sorted(snap.get("span_totals", {}).items()):
            write(_dump({"type": "span_total", "name": name, **total}) + "\n")
        for record in snap.get("spans", []):
            write(_dump({"type": "span", **record}) + "\n")

    def close(self, summary: Optional[dict] = None) -> None:
        if self._handle.closed:
            return
        if summary is not None:
            self._handle.write(
                _dump({"type": "summary", **summary}) + "\n"
            )
        self._handle.close()

    def __enter__(self) -> "MetricsSink":
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.close()
        return False


def write_metrics_jsonl(
    path: str | Path,
    registry: MetricsRegistry,
    producer: Optional[dict] = None,
    summary: Optional[dict] = None,
) -> Path:
    """One-shot dump of ``registry`` to a metrics JSONL file."""
    with MetricsSink(path, producer=producer) as sink:
        sink.write_snapshot(registry.snapshot())
        sink.close(summary=summary)
    return Path(path)


def read_metrics_jsonl(path: str | Path) -> dict:
    """Parse a metrics JSONL file back into one dict:
    ``{header, counters, gauges, histograms, span_totals, spans,
    traces, summary}``.  Unknown record types are ignored (forward
    compatibility)."""
    out: dict = {
        "header": None,
        "counters": {},
        "gauges": {},
        "histograms": {},
        "span_totals": {},
        "spans": [],
        "traces": [],
        "summary": None,
    }
    with Path(path).open() as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            rtype = record.get("type")
            if rtype == "header":
                out["header"] = record
            elif rtype == "counter":
                out["counters"][record["name"]] = record["value"]
            elif rtype == "gauge":
                out["gauges"][record["name"]] = record["value"]
            elif rtype == "histogram":
                out["histograms"][record["name"]] = {
                    k: v for k, v in record.items()
                    if k not in ("type", "name")
                }
            elif rtype == "span_total":
                out["span_totals"][record["name"]] = {
                    "count": record["count"],
                    "total_s": record["total_s"],
                }
            elif rtype == "span":
                out["spans"].append(
                    {k: v for k, v in record.items() if k != "type"}
                )
            elif rtype == "trace":
                out["traces"].append(
                    {k: v for k, v in record.items() if k != "type"}
                )
            elif rtype == "summary":
                out["summary"] = {
                    k: v for k, v in record.items() if k != "type"
                }
    if out["header"] is None:
        raise ValueError(f"{path}: not a metrics JSONL file (no header)")
    return out


def iter_span_tree(spans: List[dict]) -> Iterator[Tuple[int, dict]]:
    """Yield ``(depth, span)`` in tree order (pre-order by start time)."""
    children: Dict[Optional[int], List[dict]] = {}
    for record in spans:
        children.setdefault(record.get("parent"), []).append(record)
    for siblings in children.values():
        siblings.sort(key=lambda r: r["t0"])

    def walk(parent: Optional[int], depth: int) -> Iterator[Tuple[int, dict]]:
        for record in children.get(parent, []):
            yield depth, record
            yield from walk(record["id"], depth + 1)

    yield from walk(None, 0)
