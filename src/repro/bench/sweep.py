"""Parameter sweeps: message-size series for the paper's figures.

Sweeps are thin grid builders over the unified scenario runner
(:mod:`repro.runner`): each builds one
:class:`~repro.runner.scenario.ScenarioGrid` around a :class:`BenchSpec`
(axes ``approach`` and/or ``total_bytes``), submits it whole through
:func:`~repro.runner.executor.run_grids` (so ``jobs > 1`` fans the grid
out across cores, and ``store=DIR`` keeps it as a resumable campaign
root), and collects the results into a :class:`SweepResult` keyed for
the figure reports.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from .harness import BenchResult, BenchSpec

__all__ = ["size_grid", "sweep_sizes", "sweep_approaches", "SweepResult"]


def size_grid(
    min_bytes: int,
    max_bytes: int,
    multiple_of: int = 1,
) -> List[int]:
    """Logarithmic size grid, each entry rounded to ``multiple_of``.

    Power-of-two based: returns sizes ``multiple_of * 2^k`` covering
    [min_bytes, max_bytes], matching the paper's log-scale x axes.
    """
    if min_bytes < 1 or max_bytes < min_bytes:
        raise ValueError("need 1 <= min_bytes <= max_bytes")
    if multiple_of < 1:
        raise ValueError("multiple_of must be >= 1")
    sizes: List[int] = []
    size = multiple_of
    while size < min_bytes:
        size *= 2
    while size <= max_bytes:
        sizes.append(size)
        size *= 2
    if not sizes:
        raise ValueError("empty size grid")
    return sizes


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

    def series_us(self, approach: str) -> List[tuple]:
        """(size, mean_us, ci_half_us) series for one approach."""
        return [
            (
                size,
                self.get(approach, size).mean_us,
                self.get(approach, size).stats.ci_half * 1e6,
            )
            for size in self.sizes(approach)
        ]

    def series_bandwidth(self, approach: str) -> List[tuple]:
        """(size, GB/s) series for one approach (Fig. 8's metric)."""
        return [
            (size, self.get(approach, size).bandwidth_gbs)
            for size in self.sizes(approach)
        ]

    def ratio(self, approach: str, baseline: str, total_bytes: int) -> float:
        """Time ratio approach/baseline at one size (penalty factor)."""
        return (
            self.get(approach, total_bytes).mean
            / self.get(baseline, total_bytes).mean
        )

    def __len__(self) -> int:
        return len(self._results)


def sweep_sizes(
    base: BenchSpec,
    sizes: Sequence[int],
    out: Optional[SweepResult] = None,
    jobs: int = 1,
    store=None,
    backend: str = "sim",
) -> SweepResult:
    """Run ``base`` across message sizes (one ``total_bytes`` grid)."""
    from ..runner import ScenarioGrid, run_grids

    result = out if out is not None else SweepResult()
    grid = ScenarioGrid.from_spec(
        base, {"total_bytes": list(sizes)}, backend=backend
    )
    for r in run_grids([grid], jobs=jobs, store=store)[0]:
        result.add(r)
    return result


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
