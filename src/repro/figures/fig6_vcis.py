"""Figure 6: congestion relief with one VCI per thread (§4.2.1).

Same setup as Fig. 5 but with ``MPIR_CVAR_NUM_VCIS = 32`` and the
experimental tag-encoded round-robin VCI mapping for partitioned
messages (``--enable-vci-method=tag``).

Expected shapes (paper):

* ``Pt2Pt many`` reaches ``Pt2Pt single`` (duplicated communicators map
  to distinct VCIs; the single approach keeps its thread-barrier
  penalty);
* ``Pt2Pt part`` improves by ≈ ×7 vs Fig. 5 but keeps a ≈ ×4.04
  residual (shared completion-counter atomics);
* the RMA ordering flips: many windows (one VCI each) now beat the
  single shared window.
"""

from __future__ import annotations

from ..bench import BenchSpec, format_us_table
from ..mpi import Cvars, VCI_METHOD_TAG_RR
from .common import FigureData, paper_sizes, run_grid
from .fig5_congestion import APPROACHES, MAX_BYTES, MIN_BYTES, N_THREADS

__all__ = ["APPROACHES", "N_VCIS", "run", "report"]

N_VCIS = 32


def run(iterations: int = 30, quick: bool = False, jobs: int = 1,
        store=None, backend: str = "sim") -> FigureData:
    """Regenerate Fig. 6's data."""
    sizes = paper_sizes(MIN_BYTES, MAX_BYTES, n_parts=N_THREADS, quick=quick)
    base = BenchSpec(
        approach="pt2pt_single",
        total_bytes=sizes[0],
        n_threads=N_THREADS,
        theta=1,
        iterations=iterations,
        cvars=Cvars(num_vcis=N_VCIS, vci_method=VCI_METHOD_TAG_RR),
    )
    data = run_grid("fig6", APPROACHES, sizes, base,
                    jobs=jobs, store=store, backend=backend)
    small = sizes[0]
    sweep = data.sweep
    data.headline = {
        "part_penalty_small": sweep.ratio("pt2pt_part", "pt2pt_single", small),
        "many_penalty_small": sweep.ratio("pt2pt_many", "pt2pt_single", small),
        "rma_many_over_single_win": sweep.ratio(
            "rma_many_passive", "rma_single_passive", small
        ),
    }
    data.notes = [
        "paper: part penalty drops to ~x4.04; many matches single",
        "paper: RMA many-passive now *faster* than RMA single-passive",
    ]
    return data


def report(data: FigureData) -> str:
    """Printable reproduction of Fig. 6."""
    h = data.headline
    return "\n".join(
        [
            format_us_table(
                data.sweep,
                APPROACHES,
                title=(
                    "Figure 6 — thread congestion with 32 VCIs: time [us], "
                    "32 threads, 32 partitions"
                ),
            ),
            "",
            f"part/single (small): x{h['part_penalty_small']:.2f}"
            "   [paper: ~4.04]",
            f"many/single (small): x{h['many_penalty_small']:.2f}"
            "   [paper: ~1]",
            f"RMA many/RMA single (small): x{h['rma_many_over_single_win']:.2f}"
            "   [paper: <1 (ordering flips)]",
        ]
    )
