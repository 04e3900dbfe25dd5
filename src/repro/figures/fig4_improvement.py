"""Figure 4: improved vs. existing partitioned implementation (§4.1).

Setup: N = 1 thread, θ = 1 partition, no delay (γ = 0); time across
message sizes for all eight approaches plus the theoretical-bandwidth
reference line.

Expected shapes (paper):

* the improved ``Pt2Pt part`` matches ``Pt2Pt single``;
* the old AM path is slower at every size (÷3.18 where the copy path
  saturates);
* protocol jumps: short→bcopy between 1024 and 2048 B, bcopy→zcopy
  (rendezvous) between 8192 and 16384 B;
* the RMA family pays extra synchronization at small sizes and
  converges above the rendezvous threshold.
"""

from __future__ import annotations

from ..bench import BenchSpec, format_us_table
from .common import FigureData, paper_sizes, run_grid

__all__ = ["APPROACHES", "run", "report"]

#: Legend order of the paper's Fig. 4.
APPROACHES = (
    "rma_single_passive",
    "rma_many_passive",
    "rma_single_active",
    "rma_many_active",
    "pt2pt_many",
    "pt2pt_single",
    "pt2pt_part_old",
    "pt2pt_part",
)

MIN_BYTES = 16
MAX_BYTES = 16 << 20  # 16 MiB ~ the paper's 10^7 B axis end


def run(iterations: int = 30, quick: bool = False, jobs: int = 1,
        store=None, backend: str = "sim") -> FigureData:
    """Regenerate Fig. 4's data."""
    sizes = paper_sizes(MIN_BYTES, MAX_BYTES, n_parts=1, quick=quick)
    base = BenchSpec(
        approach="pt2pt_single",
        total_bytes=sizes[0],
        n_threads=1,
        theta=1,
        iterations=iterations,
    )
    data = run_grid("fig4", APPROACHES, sizes, base,
                    jobs=jobs, store=store, backend=backend)
    small, large = sizes[0], sizes[-1]
    sweep = data.sweep
    data.headline = {
        "old_over_new_small": sweep.ratio("pt2pt_part_old", "pt2pt_part", small),
        "old_over_new_large": sweep.ratio("pt2pt_part_old", "pt2pt_part", large),
        "part_over_single_small": sweep.ratio("pt2pt_part", "pt2pt_single", small),
        "rma_over_pt2pt_small": sweep.ratio(
            "rma_single_passive", "pt2pt_single", small
        ),
        "rma_over_pt2pt_large": sweep.ratio(
            "rma_single_passive", "pt2pt_single", large
        ),
    }
    data.notes = [
        "paper: old AM path ~/3.18 slower; improved path matches Pt2Pt single",
        "paper: RMA approaches pay extra sync at small sizes, converge at large",
    ]
    return data


def report(data: FigureData) -> str:
    """Printable reproduction of Fig. 4."""
    lines = [
        format_us_table(
            data.sweep,
            APPROACHES,
            title="Figure 4 — time [us] across message sizes (N=1, theta=1)",
        ),
        "",
        f"old/new (small): x{data.headline['old_over_new_small']:.2f}",
        f"old/new (large): x{data.headline['old_over_new_large']:.2f}"
        "   [paper: ~3.18]",
        f"part/single (small): x{data.headline['part_over_single_small']:.2f}"
        "   [paper: ~1]",
        f"RMA/pt2pt (small): x{data.headline['rma_over_pt2pt_small']:.2f}"
        "   [paper: >2]",
        f"RMA/pt2pt (large): x{data.headline['rma_over_pt2pt_large']:.2f}"
        "   [paper: ~1]",
    ]
    return "\n".join(lines)
