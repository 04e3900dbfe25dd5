"""The two execution backends and their cross-validation.

Every grid point in the reproduction runs under one of the backends
named in :data:`repro.runner.scenario.BACKENDS`;
:func:`repro.runner.scenario.execute` dispatches on the name:

* ``sim`` — the full discrete-event simulator
  (:func:`repro.bench.harness.run_benchmark` /
  :func:`repro.apps.base.run_pattern`);
* ``analytic`` — the paper's closed-form model extended to all 8
  approaches and every application pattern
  (:mod:`repro.backends.analytic`); points cost microseconds, so
  million-point grids become feasible.

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

from .crossval import (
    PATTERN_TOLERANCE,
    TOLERANCES,
    CrossPoint,
    CrossValReport,
    compare_bench_sweeps,
    compare_pattern_sweeps,
)

__all__ = [
    "TOLERANCES",
    "PATTERN_TOLERANCE",
    "CrossPoint",
    "CrossValReport",
    "compare_bench_sweeps",
    "compare_pattern_sweeps",
]
