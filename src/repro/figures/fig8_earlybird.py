"""Figure 8: the early-bird effect for large messages (§4.3).

Setup: N = 4 threads, θ = 1 (4 partitions), delay rate γ = 100 µs/MB
applied to the **last** partition (standing in for a θ > 1 workload per
Appendix A); perceived bandwidth across message sizes for four
approaches.

Expected shapes (paper):

* gain ≈ ×2.54 at the largest sizes against bulk synchronization
  (theory: ×2.67 from Eq. 4 — the difference is latency and thread
  congestion, which the model leaves out);
* the gain is *approach-agnostic* (pt2pt and RMA pipelines overlap the
  same delay);
* pipelining loses below the crossover at ≈ 100 kB.
"""

from __future__ import annotations

from ..bench import BenchSpec, format_bandwidth_table
from ..model import eta_large, gamma_from_us_per_mb
from ..net import MELUXINA
from .common import FigureData, paper_sizes, run_grid

__all__ = ["APPROACHES", "GAMMA_US_PER_MB", "N_THREADS", "run", "report"]

APPROACHES = (
    "rma_single_passive",
    "pt2pt_many",
    "pt2pt_single",
    "pt2pt_part",
)

N_THREADS = 4
GAMMA_US_PER_MB = 100.0
MIN_BYTES = 128
MAX_BYTES = 16 << 20


def theoretical_gain() -> float:
    """Eq. (4) for this configuration (the paper quotes 2.67)."""
    return eta_large(
        N_THREADS, 1, MELUXINA.bandwidth, gamma_from_us_per_mb(GAMMA_US_PER_MB)
    )


def run(iterations: int = 30, quick: bool = False, jobs: int = 1,
        store=None, backend: str = "sim") -> FigureData:
    """Regenerate Fig. 8's data."""
    sizes = paper_sizes(MIN_BYTES, MAX_BYTES, n_parts=N_THREADS, quick=quick)
    base = BenchSpec(
        approach="pt2pt_single",
        total_bytes=sizes[0],
        n_threads=N_THREADS,
        theta=1,
        iterations=iterations,
        gamma_us_per_mb=GAMMA_US_PER_MB,
    )
    data = run_grid("fig8", APPROACHES, sizes, base,
                    jobs=jobs, store=store, backend=backend)
    sweep = data.sweep
    large = sizes[-1]
    # Gain of each pipelined approach over bulk synchronization.
    gains = {
        name: sweep.ratio("pt2pt_single", name, large)
        for name in APPROACHES
        if name != "pt2pt_single"
    }
    # Crossover: the first size where the partitioned pipeline wins.
    crossover = None
    for size in sweep.sizes("pt2pt_part"):
        if sweep.ratio("pt2pt_single", "pt2pt_part", size) > 1.0:
            crossover = size
            break
    data.headline = {
        "gain_part": gains["pt2pt_part"],
        "gain_many": gains["pt2pt_many"],
        "gain_rma": gains["rma_single_passive"],
        "gain_theory": theoretical_gain(),
        "crossover_bytes": float(crossover) if crossover else float("nan"),
    }
    data.notes = [
        "paper: measured gain ~2.54 vs theory 2.67; crossover ~100 kB",
        "paper: gain independent of the approach used",
    ]
    return data


def report(data: FigureData) -> str:
    """Printable reproduction of Fig. 8."""
    h = data.headline
    return "\n".join(
        [
            format_bandwidth_table(
                data.sweep,
                APPROACHES,
                title=(
                    "Figure 8 — early-bird effect: perceived bandwidth "
                    "[GB/s], 4 threads, 4 partitions, gamma=100 us/MB"
                ),
            ),
            "",
            f"gain part/single (large): x{h['gain_part']:.4f}"
            "   [paper: ~2.5417]",
            f"gain many/single (large): x{h['gain_many']:.4f}",
            f"gain rma/single (large): x{h['gain_rma']:.4f}",
            f"theoretical gain (Eq. 4): x{h['gain_theory']:.4f}"
            "   [paper: 2.67]",
            f"crossover: ~{h['crossover_bytes'] / 1e3:.0f} kB"
            "   [paper: ~100 kB]",
        ]
    )
