"""Sim ↔ model cross-validation: agreement as an enforced invariant.

The paper's methodology rests on the closed-form model predicting what
the measurements show (§3, Figs. 4/7).  This module turns that claim
into a permanently checked property: run every grid point under both
backends, compare means, and fail when any point's relative error
exceeds its documented tolerance.

Tolerances are *measured*, not aspirational: they were calibrated by
sweeping every figure configuration (all 8 approaches × sizes from 64 B
to 16 MiB × 1/4/32 threads × θ up to 32 × the VCI and aggregation
cvars) and adding headroom over the worst observed error.  The
first-order pattern model is documented at factor-two fidelity — it
ranks approaches and predicts trends, while the per-link queueing
transients of dense topologies (FFT all-to-all) stay with the
simulator.

Run it with ``python -m repro figures --backend both`` (or ``apps
--backend both``); CI gates on a small grid every push.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = [
    "TOLERANCES",
    "PATTERN_TOLERANCE",
    "PATTERN_NOISE_TOLERANCE",
    "CrossPoint",
    "CrossValReport",
    "compare_bench_sweeps",
    "compare_pattern_sweeps",
]

#: Documented per-approach relative-error tolerances of the analytic
#: backend on ``bench`` scenarios (|analytic - sim| / sim).
TOLERANCES: Dict[str, float] = {
    "pt2pt_single": 0.05,
    "pt2pt_many": 0.30,
    "pt2pt_part": 0.35,
    "pt2pt_part_old": 0.10,
    "rma_single_passive": 0.15,
    "rma_many_passive": 0.15,
    "rma_single_active": 0.15,
    "rma_many_active": 0.20,
}

#: Documented tolerance for N-rank application patterns (first-order
#: topology model; see the module docstring).
PATTERN_TOLERANCE = 1.0

#: Documented tolerance for patterns under injected noise
#: (``noise != "none"``).  The first-order mean-shift correction in
#: :mod:`repro.model.patterns` brings noisy points inside the same
#: factor-two band as noise-free ones (worst observed ≈0.67 over a
#: 3-pattern × 5-approach × 3-shape calibration sweep; without the
#: correction, gaps reached ≈5.9) — so noisy points are now held to
#: the same factor-two bound, as a separately-named constant so the
#: two fidelity claims can drift apart if recalibration demands it.
PATTERN_NOISE_TOLERANCE = 1.0


@dataclass(frozen=True)
class CrossPoint:
    """One grid point's sim-vs-model comparison."""

    label: str
    kind: str
    approach: str
    sim_mean: float
    analytic_mean: float
    tolerance: float

    @property
    def rel_error(self) -> float:
        if self.sim_mean == 0:
            return 0.0 if self.analytic_mean == 0 else float("inf")
        return abs(self.analytic_mean - self.sim_mean) / self.sim_mean

    @property
    def ok(self) -> bool:
        return self.rel_error <= self.tolerance


@dataclass
class CrossValReport:
    """Outcome of one cross-validation run."""

    points: List[CrossPoint] = field(default_factory=list)

    @property
    def max_rel_error(self) -> float:
        return max((p.rel_error for p in self.points), default=0.0)

    @property
    def worst(self) -> Optional[CrossPoint]:
        """The point with the largest relative error."""
        return max(
            self.points, key=lambda p: p.rel_error, default=None
        )

    def failures(self) -> List[CrossPoint]:
        return [p for p in self.points if not p.ok]

    @property
    def passed(self) -> bool:
        return not self.failures()

    # ------------------------------------------------------------------
    def to_text(self) -> str:
        """The printable cross-validation report."""
        lines = [
            "Cross-validation: sim vs analytic "
            f"({len(self.points)} points)",
            f"{'point':>44} | {'sim':>11} | {'analytic':>11} | "
            f"{'rel err':>8} | {'tol':>5}",
        ]
        lines.append("-" * len(lines[-1]))
        for p in sorted(self.points, key=lambda q: -q.rel_error):
            mark = "  " if p.ok else " FAIL"
            lines.append(
                f"{p.label:>44} | {p.sim_mean * 1e6:8.2f} us | "
                f"{p.analytic_mean * 1e6:8.2f} us | "
                f"{p.rel_error:7.1%} | {p.tolerance:5.0%}{mark}"
            )
        worst = self.worst
        if worst is not None:
            lines.append(
                f"max relative error: {self.max_rel_error:.1%} "
                f"(worst offender: {worst.label})"
            )
        n_fail = len(self.failures())
        lines.append(
            "PASS: every point within its documented tolerance"
            if self.passed
            else f"FAIL: {n_fail} point(s) beyond tolerance"
        )
        return "\n".join(lines)


def compare_bench_sweeps(sim_sweep: Any, analytic_sweep: Any) -> CrossValReport:
    """Cross-validate two :class:`~repro.bench.sweep.SweepResult` runs
    of the same grid (one simulated, one analytic).

    Labels may be cvar variants like ``pt2pt_part(aggr=512)``; the
    tolerance is looked up by the underlying approach name.
    """
    report = CrossValReport()
    for label in sim_sweep.approaches():
        approach = label.split("(")[0]
        for size in sim_sweep.sizes(label):
            report.points.append(
                CrossPoint(
                    label=f"{label}/{size}B",
                    kind="bench",
                    approach=approach,
                    sim_mean=sim_sweep.get(label, size).stats.mean,
                    analytic_mean=analytic_sweep.get(label, size).stats.mean,
                    # Strict lookup: an approach without a documented
                    # tolerance must fail loudly, not silently inherit
                    # the loose pattern bound.
                    tolerance=TOLERANCES[approach],
                )
            )
    return report


def compare_pattern_sweeps(
    sim_sweep: Any, analytic_sweep: Any
) -> CrossValReport:
    """Cross-validate two :class:`~repro.apps.sweep.PatternSweep` runs
    of the same config list."""
    report = CrossValReport()
    for sim_r in sim_sweep.results():
        config = sim_r.config
        ana_r = analytic_sweep.get(config)
        report.points.append(
            CrossPoint(
                label=f"{config.pattern}/{config.approach}/{config.msg_bytes}B",
                kind="pattern",
                approach=config.approach,
                sim_mean=sim_r.stats.mean,
                analytic_mean=ana_r.stats.mean,
                tolerance=(
                    PATTERN_NOISE_TOLERANCE
                    if getattr(config, "noise", "none") != "none"
                    else PATTERN_TOLERANCE
                ),
            )
        )
    return report
