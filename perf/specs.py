"""Fixed inputs of the benchmark: grid specs and the paper's claims.

The benchmark keeps its own copies so that it measures the same work no
matter how the program's bench harnesses change or disappear.  Every
spec takes the workload seed; the same seed gives the same grid.
"""

from __future__ import annotations

APPROACHES = (
    "pt2pt_single",
    "pt2pt_many",
    "pt2pt_part",
    "pt2pt_part_old",
    "rma_single_passive",
    "rma_many_passive",
    "rma_single_active",
    "rma_many_active",
)
PATTERNS = ("halo3d", "sweep3d", "fft")

#: Figures of the paper path, in the order ``figures --full`` runs them.
FIGURES = ("fig4", "fig5", "fig6", "fig7", "fig8")
#: Iterations per simulated point on the paper path.  ``figures``
#: defaults to 10; the simulator is deterministic, so every mean (and so
#: every figure headline) is the same at 3, and a pass takes ~40% of
#: the time, which lets one run time the pass three times.
FIGURE_ITERATIONS = 3

#: Size-axis lengths of the analytic campaign grids.  4,000 sizes give
#: 1,280,000 bench points: enough that kernel, store write, columnar
#: read and report each carry real time, few enough that the per-value
#: mask loop of ``slice_report`` (sizes x slice points) stays under a
#: second and one run times a dozen campaigns.
CAMPAIGN_SIZES = 4000
#: 1,000 sizes give 2,304,000 pattern points over 9,000 geometries.
PATTERN_CAMPAIGN_SIZES = 1000

#: Paper values printed beside the figures' numeric headlines
#: (``[paper: ...]`` in each figure report), keyed by figure and
#: headline name.  Inequality claims (">2", "<1") have no number and
#: are left out.
PAPER_CLAIMS = {
    ("fig4", "old_over_new_large"): 3.18,
    ("fig4", "part_over_single_small"): 1.0,
    ("fig4", "rma_over_pt2pt_large"): 1.0,
    ("fig5", "part_penalty_small"): 29.76,
    ("fig5", "part_penalty_large"): 1.0,
    ("fig6", "part_penalty_small"): 4.04,
    ("fig6", "many_penalty_small"): 1.0,
    ("fig7", "noaggr_penalty"): 10.0,
    ("fig7", "aggr512_penalty"): 3.13,
    ("fig8", "gain_part"): 2.5417,
    ("fig8", "gain_theory"): 2.67,
    ("fig8", "crossover_bytes"): 100e3,
}


def _offset(seed: int) -> int:
    """A byte offset derived from the seed, bounded so that any seed
    keeps the grid in the same size regime."""
    return 64 * (seed % 1000)


def pattern_sim_spec(seed: int) -> dict:
    """96 simulated pattern points: 3 patterns x 8 approaches x 2 sizes
    x {no noise, Gaussian noise}; the seed drives the noise streams."""
    return {
        "kind": "pattern",
        "backend": "sim",
        "base": {
            "n_ranks": 8,
            "n_threads": 2,
            "iterations": 3,
            "compute_us_per_mb": 200.0,
            "noise_us": 25.0,
            "noise_sigma_us": 5.0,
            "seed": seed,
        },
        "axes": {
            "pattern": list(PATTERNS),
            "approach": list(APPROACHES),
            "msg_bytes": [16 << 10, 256 << 10],
            "noise": ["none", "gaussian"],
        },
    }


def campaign_spec(seed: int, n_sizes: int = CAMPAIGN_SIZES) -> dict:
    """The analytic bench-kind campaign grid (320 points per size)."""
    start = 1024 + _offset(seed)
    return {
        "kind": "bench",
        "backend": "analytic",
        "base": {"iterations": 3},
        "axes": {
            "approach": list(APPROACHES),
            "total_bytes": {"range": [start, start + n_sizes * 4096, 4096]},
            "n_threads": [1, 4, 16, 32],
            "theta": [1, 2],
            "gamma_us_per_mb": [0.0, 50.0, 100.0, 200.0, 400.0],
        },
    }


def pattern_campaign_spec(
    seed: int, n_sizes: int = PATTERN_CAMPAIGN_SIZES
) -> dict:
    """The analytic pattern campaign grid (2,304 points per size)."""
    start = 16384 + _offset(seed)
    return {
        "kind": "pattern",
        "backend": "analytic",
        "base": {"n_ranks": 8, "iterations": 3},
        "axes": {
            "pattern": list(PATTERNS),
            "approach": list(APPROACHES),
            "msg_bytes": {"range": [start, start + n_sizes * 16384, 16384]},
            "n_threads": [2, 4, 8],
            "noise": ["none", "single", "uniform", "gaussian"],
            "noise_us": [0.0, 25.0, 50.0, 100.0],
            "compute_us_per_mb": [0.0, 200.0],
        },
    }
