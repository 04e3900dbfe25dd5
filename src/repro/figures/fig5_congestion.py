"""Figure 5: thread congestion at 32 threads on one VCI (§4.2.1).

Setup: N = 32 threads, θ = 1, one VCI, no delay; time across message
sizes for the five approaches the paper plots.

Expected shapes (paper):

* ``Pt2Pt single`` wins at small sizes (one message, no contention;
  slightly above its Fig. 4 latency because of the thread barrier);
* ``Pt2Pt part`` and ``Pt2Pt many`` pay ≈ ×29.76 at the smallest size,
  with little difference between them;
* ``RMA many - passive`` sits above ``RMA single - passive`` (progress
  engine scans many windows on the single VCI);
* everything converges at bandwidth-dominated sizes.
"""

from __future__ import annotations

from ..bench import BenchSpec, format_us_table
from .common import FigureData, paper_sizes, run_grid

__all__ = ["APPROACHES", "N_THREADS", "run", "report"]

APPROACHES = (
    "rma_single_passive",
    "rma_many_passive",
    "pt2pt_many",
    "pt2pt_single",
    "pt2pt_part",
)

N_THREADS = 32
MIN_BYTES = 1 << 10
MAX_BYTES = 16 << 20


def run(iterations: int = 30, quick: bool = False, jobs: int = 1,
        store=None, backend: str = "sim") -> FigureData:
    """Regenerate Fig. 5's data."""
    sizes = paper_sizes(MIN_BYTES, MAX_BYTES, n_parts=N_THREADS, quick=quick)
    base = BenchSpec(
        approach="pt2pt_single",
        total_bytes=sizes[0],
        n_threads=N_THREADS,
        theta=1,
        iterations=iterations,
    )
    data = run_grid("fig5", APPROACHES, sizes, base,
                    jobs=jobs, store=store, backend=backend)
    small, large = sizes[0], sizes[-1]
    sweep = data.sweep
    data.headline = {
        "part_penalty_small": sweep.ratio("pt2pt_part", "pt2pt_single", small),
        "many_penalty_small": sweep.ratio("pt2pt_many", "pt2pt_single", small),
        "part_penalty_large": sweep.ratio("pt2pt_part", "pt2pt_single", large),
        "rma_many_over_single_win": sweep.ratio(
            "rma_many_passive", "rma_single_passive", small
        ),
    }
    data.notes = [
        "paper: part/many ~x29.76 over single at the smallest size",
        "paper: RMA many-passive shifted above RMA single-passive",
    ]
    return data


def report(data: FigureData) -> str:
    """Printable reproduction of Fig. 5."""
    h = data.headline
    return "\n".join(
        [
            format_us_table(
                data.sweep,
                APPROACHES,
                title=(
                    "Figure 5 — thread congestion: time [us], 32 threads, "
                    "32 partitions, 1 VCI"
                ),
            ),
            "",
            f"part/single (small): x{h['part_penalty_small']:.2f}"
            "   [paper: ~29.76]",
            f"many/single (small): x{h['many_penalty_small']:.2f}"
            "   [paper: ~part]",
            f"part/single (large): x{h['part_penalty_large']:.2f}"
            "   [paper: ~1 (converged)]",
            f"RMA many/RMA single (small): x{h['rma_many_over_single_win']:.2f}"
            "   [paper: >1 (window-scan overhead)]",
        ]
    )
