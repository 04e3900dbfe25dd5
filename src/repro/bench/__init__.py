"""Benchmark harness reproducing the paper's measurement methodology."""

from .approaches import APPROACHES, Approach, ApproachConfig
from .harness import (
    BenchResult,
    BenchSpec,
    build_world,
    run_benchmark,
    simulation_key,
)
from .reporting import format_bandwidth_table, format_ratio_line, format_us_table
from .stats import SampleStats, needs_rerun, summarize
from .sweep import SweepResult, sweep_approaches

__all__ = [
    "APPROACHES",
    "Approach",
    "ApproachConfig",
    "BenchSpec",
    "BenchResult",
    "run_benchmark",
    "build_world",
    "simulation_key",
    "SampleStats",
    "summarize",
    "needs_rerun",
    "sweep_approaches",
    "SweepResult",
    "format_us_table",
    "format_bandwidth_table",
    "format_ratio_line",
]
