"""Shared scaffolding for the per-figure experiment drivers.

Each ``figN_*`` module exposes

* ``SIZES`` / configuration constants matching the paper's setup,
* ``run(iterations=..., quick=..., jobs=..., store=..., backend=...)``
  returning a :class:`FigureData`,
* ``report(data)`` returning the printable reproduction of the figure.

``quick=True`` shrinks the size grid (used by the pytest-benchmark
drivers so a full regeneration stays tractable); the full grid matches
the paper's axis ranges.

Every driver describes its data as grids
(:class:`~repro.runner.ScenarioGrid`: an approaches × sizes grid, or one
labeled sizes-grid per series) and submits them through :func:`~repro.runner.executor.run_grids`.  Without
a store all points go to :func:`repro.runner.run_specs` as one batch:
simulated points fan out across cores in chunks (``jobs > 1``; tiny
grids auto-fall back to serial) and analytic points evaluate
in-process through the scalar model.  With
``store=DIR`` each grid is a campaign root ``DIR/<grid hash>/`` that a
rerun resumes, executing only missing points.  The drivers never see
the difference: results come back in grid order either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..bench import BenchSpec, SweepResult, sweep_approaches

__all__ = ["FigureData", "run_grid", "run_labeled_grids", "paper_sizes"]


@dataclass
class FigureData:
    """One figure's regenerated data plus its headline comparisons."""

    figure: str
    sweep: SweepResult
    #: Named scalar findings (penalty factors, gains, crossovers).
    headline: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)


def paper_sizes(min_bytes: int, max_bytes: int, n_parts: int,
                quick: bool = False) -> List[int]:
    """Log-2 size grid divisible by the partition count.

    ``quick`` keeps ~4 sizes spanning the range (for CI benchmarks).
    """
    sizes: List[int] = []
    size = n_parts
    while size < min_bytes:
        size *= 2
    while size <= max_bytes:
        sizes.append(size)
        size *= 2
    if quick and len(sizes) > 4:
        stride = (len(sizes) - 1) / 3.0
        picked = {sizes[round(i * stride)] for i in range(4)}
        sizes = sorted(picked)
    return sizes


def run_labeled_grids(
    figure: str,
    labeled_grids: Sequence[tuple],
    jobs: int = 1,
    store=None,
) -> FigureData:
    """Run ``(label, ScenarioGrid)`` series as one runner submission.

    The general entry point for figures whose series are not plain
    approach names (e.g. Fig. 7's cvar variants): each series is its own
    grid, and every result of a grid lands in the sweep under the
    grid's label.
    """
    from ..runner import run_grids

    results = run_grids(
        [grid for _, grid in labeled_grids], jobs=jobs, store=store
    )
    sweep = SweepResult()
    for (label, _), series in zip(labeled_grids, results):
        for result in series:
            sweep.add_as(label, result)
    return FigureData(figure=figure, sweep=sweep)


def run_grid(
    figure: str,
    approaches: Sequence[str],
    sizes: Sequence[int],
    base: BenchSpec,
    jobs: int = 1,
    store=None,
    backend: str = "sim",
) -> FigureData:
    """Sweep approaches × sizes under ``backend`` and wrap the result."""
    sweep = sweep_approaches(
        base, approaches, sizes, jobs=jobs, store=store, backend=backend,
    )
    return FigureData(figure=figure, sweep=sweep)
