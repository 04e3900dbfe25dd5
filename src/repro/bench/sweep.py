"""Parameter sweeps: message-size series for the paper's figures.

:func:`sweep_approaches` is a thin grid builder over the unified scenario
runner (:mod:`repro.runner`): it builds one
:class:`~repro.runner.scenario.ScenarioGrid` around a :class:`BenchSpec`
(axes ``approach`` and ``total_bytes``), submits it whole through
:func:`~repro.runner.executor.run_grids` (so ``jobs > 1`` fans the grid
out across cores, and ``store=DIR`` keeps it as a resumable campaign
root), and collects the results into a :class:`SweepResult` keyed for
the figure reports.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from .harness import BenchResult, BenchSpec

__all__ = ["sweep_approaches", "SweepResult"]


class SweepResult:
    """Series of benchmark results keyed by (approach, total_bytes)."""

    def __init__(self) -> None:
        self._results: Dict[tuple, BenchResult] = {}

    def add(self, result: BenchResult) -> None:
        key = (result.spec.approach, result.spec.total_bytes)
        self._results[key] = result

    def add_as(self, label: str, result: BenchResult) -> None:
        """Record a result under an explicit label (e.g. a cvar-variant
        key like ``pt2pt_part(aggr=512)``) instead of its approach name."""
        self._results[(label, result.spec.total_bytes)] = result

    def get(self, approach: str, total_bytes: int) -> BenchResult:
        return self._results[(approach, total_bytes)]

    def sizes(self, approach: str) -> List[int]:
        return sorted(
            size for (a, size) in self._results if a == approach
        )

    def approaches(self) -> List[str]:
        return sorted({a for (a, _) in self._results})

    def ratio(self, approach: str, baseline: str, total_bytes: int) -> float:
        """Time ratio approach/baseline at one size (penalty factor)."""
        return (
            self.get(approach, total_bytes).mean
            / self.get(baseline, total_bytes).mean
        )

    def __len__(self) -> int:
        return len(self._results)


def sweep_approaches(
    base: BenchSpec,
    approaches: Iterable[str],
    sizes: Sequence[int],
    jobs: int = 1,
    store=None,
    backend: str = "sim",
) -> SweepResult:
    """Run several approaches across message sizes (one figure's data).

    The full approaches × sizes grid goes to the runner as one batch, so
    ``jobs > 1`` parallelizes across the whole figure, not one series;
    ``store`` is a directory that keeps the grid as a campaign root a
    rerun resumes; ``backend="analytic"`` trades the simulator for the
    closed-form model (microseconds per point).
    """
    from ..runner import ScenarioGrid, run_grids

    grid = ScenarioGrid.from_spec(
        base,
        {"approach": list(approaches), "total_bytes": list(sizes)},
        backend=backend,
    )
    result = SweepResult()
    for r in run_grids([grid], jobs=jobs, store=store)[0]:
        result.add(r)
    return result
