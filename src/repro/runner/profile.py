"""``campaign profile``: stage attribution from a metrics JSONL, and
:func:`run_metered`, which writes that file.

Turns the span totals recorded by a ``campaign run --metrics`` session
into the pipeline-attribution table the ROADMAP's async-writer and
query-service items are judged against: how much of the campaign wall
went to kernel evaluation vs column decode vs JSON encode vs segment
writes vs ordered-consume stall — and which stage dominates.

The stage map deliberately lists only **leaf** span names (regions that
never nest inside each other), so summing them against the root
``campaign.run`` span never double-counts; whatever the leaves do not
cover is reported honestly as ``other`` (chunk-loop bookkeeping,
progress output, index reads).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from .. import telemetry
from ..telemetry import read_metrics_jsonl

__all__ = [
    "DEFAULT_METRICS_NAME",
    "Attribution",
    "build_attribution",
    "render_profile",
    "resolve_metrics_path",
    "run_metered",
]

#: Where ``campaign run --metrics`` (no explicit path) lands inside the
#: campaign root — and where ``campaign profile STORE`` looks first.
DEFAULT_METRICS_NAME = "metrics.jsonl"

#: The root span whose total is the campaign wall clock.
ROOT_SPAN = "campaign.run"

#: stage label -> the leaf span names that make it up.  Leaves only:
#: none of these regions ever contains another, so their totals are
#: additive against the root.
STAGE_SPANS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("decode", ("campaign.decode",)),
    ("kernel", ("kernel.eval", "kernel.topology")),
    ("encode", ("store.encode",)),
    ("write", ("store.write",)),
    ("index", ("store.index",)),
    ("materialize", ("campaign.materialize",)),
    ("compute", ("executor.compute",)),
    ("stall", ("executor.stall",)),
    ("writer-stall", ("store.writer.stall",)),
    ("read", ("store.read.plan", "store.read.segment")),
    ("shard", ("campaign.shard.run", "campaign.shard.merge")),
)

#: What to do about a dominant stage (the actionable one-liner).
_STAGE_HINTS: Dict[str, str] = {
    "decode": "grid-index decode dominates; widen chunks or cache axis "
              "columns",
    "kernel": "model kernel evaluation dominates; the numpy path is the "
              "bottleneck, not serialization",
    "encode": "segment encode dominates; binary columns cost one "
              "tobytes() per column, so look at result-row payload size",
    "write": "segment write/replace dominates; check disk throughput or "
             "widen chunks",
    "index": "index.json rewrites dominate; batch appends or widen chunks",
    "materialize": "scenario materialization + cache lookup dominates; "
                   "this is per-point python object cost",
    "compute": "in-process simulation compute dominates; add workers "
               "(--jobs N)",
    "stall": "ordered-consume stall dominates; chunks finish unevenly, "
             "so rebalance chunk sizes (run_campaign's chunk_points)",
    "writer-stall": "the async segment writer's queue is the bottleneck; "
                    "the disk cannot keep up with the kernel",
    "read": "store read (range planning + segment loads) dominates; "
            "many small or overlapping segments — run campaign compact",
    "shard": "shard process wall (kernel runs there) plus merge; "
             "per-shard attribution lives in each shard's metrics file",
    "other": "uninstrumented time dominates; the span coverage needs "
             "a closer look before trusting this profile",
}


class Attribution:
    """The computed attribution: stages, total, and the dominant one."""

    def __init__(
        self,
        total_wall_s: float,
        stages: List[dict],
        counters: Dict[str, float],
        metrics: dict,
    ):
        self.total_wall_s = total_wall_s
        #: ``{stage, wall_s, share, count}`` rows, descending by wall.
        self.stages = stages
        self.counters = counters
        self.metrics = metrics

    @property
    def accounted_s(self) -> float:
        return sum(
            row["wall_s"] for row in self.stages if row["stage"] != "other"
        )

    @property
    def accounted_share(self) -> float:
        if not self.total_wall_s:
            return 0.0
        return self.accounted_s / self.total_wall_s

    @property
    def dominant(self) -> Optional[dict]:
        return self.stages[0] if self.stages else None

    def to_dict(self) -> dict:
        return {
            "total_wall_s": self.total_wall_s,
            "accounted_s": self.accounted_s,
            "accounted_share": self.accounted_share,
            "stages": self.stages,
            "dominant": (self.dominant or {}).get("stage"),
        }


def resolve_metrics_path(target: str | Path) -> Path:
    """A metrics JSONL path from either a file or a campaign root."""
    path = Path(target)
    if path.is_dir():
        candidate = path / DEFAULT_METRICS_NAME
        if not candidate.is_file():
            raise FileNotFoundError(
                f"{path} holds no {DEFAULT_METRICS_NAME}; run "
                f"'campaign run ... --metrics' first or point at the "
                f"metrics file directly"
            )
        return candidate
    if not path.is_file():
        raise FileNotFoundError(f"no metrics file at {path}")
    return path


def run_metered(
    store,
    run: Callable[[], dict],
    path: Optional[str | Path] = None,
    trace: bool = False,
    **producer,
) -> dict:
    """Call ``run()`` under a fresh telemetry registry and write the
    metrics JSONL when it finishes — or is interrupted.

    The file lands at ``path`` (default ``<store root>/metrics.jsonl``,
    where ``campaign profile STORE`` looks).  Its header names the
    campaign ``store`` holds plus the ``producer`` keywords (the job
    count that ran; a shard's ``{index, count}``).  ``trace=True`` also
    streams simulator trace records into the file; they arrive only
    from in-process simulations, so the caller keeps the pool off.
    Returns ``run()``'s summary with the file's path under
    ``"metrics"``.
    """
    path = Path(path) if path is not None else store.root / DEFAULT_METRICS_NAME
    registry = telemetry.MetricsRegistry()
    sink = telemetry.MetricsSink(
        path,
        producer={
            "tool": "campaign run",
            "grid_hash": store.header["grid_hash"],
            "backend": store.header["backend"],
            "kind": store.header["kind"],
            **producer,
        },
    )
    previous_registry = telemetry.set_registry(registry)
    previous_sink = telemetry.set_trace_sink(
        sink.write_trace if trace else None
    )
    try:
        summary = run()
        sink.write_snapshot(registry.snapshot())
        sink.close(
            summary={
                key: summary[key]
                for key in ("executed", "chunks", "wall_s", "points_per_s")
                if key in summary
            }
        )
    finally:
        telemetry.set_registry(previous_registry)
        telemetry.set_trace_sink(previous_sink)
        sink.close()
    return dict(summary, metrics=str(path))


def build_attribution(metrics: dict) -> Attribution:
    """Compute the stage table from a parsed metrics dict
    (:func:`~repro.telemetry.read_metrics_jsonl` output)."""
    span_totals = metrics.get("span_totals", {})
    root = span_totals.get(ROOT_SPAN)
    if root is None:
        raise ValueError(
            f"metrics hold no {ROOT_SPAN!r} span — was the registry "
            f"active during the campaign run?"
        )
    total = float(root["total_s"])
    stages: List[dict] = []
    for stage, names in STAGE_SPANS:
        wall = sum(
            span_totals[name]["total_s"]
            for name in names
            if name in span_totals
        )
        count = sum(
            span_totals[name]["count"]
            for name in names
            if name in span_totals
        )
        if count == 0:
            continue
        stages.append(
            {
                "stage": stage,
                "wall_s": wall,
                "share": (wall / total) if total else 0.0,
                "count": count,
            }
        )
    accounted = sum(row["wall_s"] for row in stages)
    other = max(0.0, total - accounted)
    stages.append(
        {
            "stage": "other",
            "wall_s": other,
            "share": (other / total) if total else 0.0,
            "count": None,
        }
    )
    stages.sort(key=lambda row: row["wall_s"], reverse=True)
    return Attribution(total, stages, metrics.get("counters", {}), metrics)


def _worker_section(attribution: Attribution) -> List[str]:
    """Worker-pool lines, when the run fanned chunks out to a pool."""
    metrics = attribution.metrics
    busy = metrics.get("span_totals", {}).get("executor.worker.execute")
    workers = metrics.get("gauges", {}).get("planner.workers")
    if not busy or not workers or workers <= 1:
        return []
    capacity = attribution.total_wall_s * workers
    lines = [
        f"  worker pool: {int(workers)} workers, "
        f"{busy['count']} points, busy {busy['total_s']:.2f}s "
        f"of {capacity:.2f}s capacity"
    ]
    if capacity > 0:
        lines[-1] += f" ({busy['total_s'] / capacity:.0%} utilization)"
    return lines


def render_profile(path: str | Path, as_json: bool = False) -> str:
    """The human (or ``--json``) profile report for a metrics file."""
    metrics = read_metrics_jsonl(path)
    attribution = build_attribution(metrics)
    if as_json:
        payload = attribution.to_dict()
        payload["counters"] = attribution.counters
        payload["producer"] = (metrics.get("header") or {}).get("producer")
        return json.dumps(payload, indent=2, sort_keys=True)

    header = metrics.get("header") or {}
    producer = header.get("producer", {})
    lines = [f"campaign profile: {path}"]
    if producer:
        desc = " ".join(
            str(producer[key])
            for key in ("backend", "kind", "grid_hash")
            if key in producer
        )
        if desc:
            lines.append(f"  producer: {desc}")
    lines.append(
        f"  total wall: {attribution.total_wall_s:.3f}s "
        f"({ROOT_SPAN} span), "
        f"{attribution.accounted_share:.0%} attributed to stages"
    )
    lines.append("")
    lines.append(f"  {'stage':<12} {'wall_s':>10} {'share':>7} {'spans':>8}")
    lines.append("  " + "-" * 40)
    for row in attribution.stages:
        count = "-" if row["count"] is None else str(row["count"])
        lines.append(
            f"  {row['stage']:<12} {row['wall_s']:>10.4f} "
            f"{row['share']:>6.1%} {count:>8}"
        )
    dominant = attribution.dominant
    if dominant is not None:
        hint = _STAGE_HINTS.get(dominant["stage"], "")
        lines.append("")
        lines.append(
            f"  dominant stage: {dominant['stage']} "
            f"({dominant['share']:.1%})" + (f" — {hint}" if hint else "")
        )
    lines.extend(_worker_section(attribution))
    interesting = {
        "campaign.points": "points",
        "campaign.chunks": "chunks",
        "store.segments_written": "segments",
        "store.bytes_written": "bytes written",
    }
    facts = [
        f"{label} {int(attribution.counters[name]):,}"
        for name, label in interesting.items()
        if name in attribution.counters
    ]
    if facts:
        lines.append(f"  {', '.join(facts)}")
    n_traces = sum(
        1 for _ in metrics.get("traces", ())
    )
    if n_traces:
        lines.append(f"  trace records: {n_traces:,}")
    return "\n".join(lines)
