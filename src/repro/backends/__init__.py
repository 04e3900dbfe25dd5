"""Pluggable execution backends behind one :class:`Backend` protocol.

Every grid point in the reproduction executes through a backend:

* ``sim`` (:class:`SimBackend`) — the full discrete-event simulator;
* ``analytic`` (:class:`AnalyticBackend`) — the paper's closed-form
  model extended to all 8 approaches and every application pattern;
  points cost microseconds, so million-point grids become feasible.

``--backend both`` runs a grid under both and enforces the documented
per-approach agreement tolerances (``TOLERANCES``).

Quick start
-----------
>>> from repro.bench import BenchSpec
>>> from repro.runner import run_specs
>>> results = run_specs(
...     [BenchSpec(approach="pt2pt_part", total_bytes=1 << 20)],
...     backend="analytic",
... )
>>> results[0].mean_us  # doctest: +SKIP
46.63
"""

from .analytic import AnalyticBackend
from .base import (
    BACKEND_ANALYTIC,
    BACKEND_SIM,
    BACKENDS,
    Backend,
    backend_names,
    get_backend,
    register_backend,
)
from .crossval import (
    PATTERN_TOLERANCE,
    TOLERANCES,
    CrossPoint,
    CrossValReport,
    compare_bench_sweeps,
    compare_pattern_sweeps,
)
from .sim import SimBackend

__all__ = [
    "Backend",
    "BACKENDS",
    "BACKEND_SIM",
    "BACKEND_ANALYTIC",
    "register_backend",
    "get_backend",
    "backend_names",
    "SimBackend",
    "AnalyticBackend",
    "TOLERANCES",
    "PATTERN_TOLERANCE",
    "CrossPoint",
    "CrossValReport",
    "compare_bench_sweeps",
    "compare_pattern_sweeps",
]
