"""Figure 7: message aggregation (§4.2.2).

Setup: N = 4 threads, θ = 32 partitions per thread (128 partitions), no
delay, partitions ready immediately and processed in order; the
aggregation bound ``MPIR_CVAR_PART_AGGR_SIZE`` sweeps
{off, 512, 1024, 4096, 16384} bytes.

Expected shapes (paper):

* without aggregation, ``Pt2Pt part`` performs like ``Pt2Pt many``
  (128 individual messages);
* with aggregation, small-message overhead collapses toward the
  single-message latency, leaving a ≈ ×3.13 floor of per-partition
  atomic updates;
* aggregation stops helping once the buffer exceeds
  ``N_part × aggr_size`` (the message count saturates at 128), so each
  aggregated curve rejoins the no-aggregation curve there.
"""

from __future__ import annotations

from dataclasses import replace

from ..bench import BenchSpec, format_us_table
from ..mpi import Cvars
from ..runner import ScenarioGrid
from .common import FigureData, paper_sizes, run_labeled_grids

__all__ = ["AGGR_SIZES", "N_THREADS", "THETA", "run", "report"]

N_THREADS = 4
THETA = 32
N_PARTS = N_THREADS * THETA
#: Aggregation bounds benchmarked in the paper's Fig. 7 (0 = off).
AGGR_SIZES = (0, 512, 1024, 4096, 16384)
MIN_BYTES = 1 << 11
MAX_BYTES = 16 << 20


def _key(aggr: int) -> str:
    return "pt2pt_part" if aggr == 0 else f"pt2pt_part(aggr={aggr})"


def run(iterations: int = 30, quick: bool = False, jobs: int = 1,
        store=None, backend: str = "sim") -> FigureData:
    """Regenerate Fig. 7's data.

    The sweep result keys partitioned variants as
    ``pt2pt_part(aggr=N)``; baselines keep their registry names.  Each
    series is one sizes-grid; the baselines and every aggregation
    variant go to the runner together, so the whole figure fans out in
    a single batch.
    """
    sizes = paper_sizes(MIN_BYTES, MAX_BYTES, n_parts=N_PARTS, quick=quick)
    base = BenchSpec(
        approach="pt2pt_single",
        total_bytes=sizes[0],
        n_threads=N_THREADS,
        theta=THETA,
        iterations=iterations,
    )

    def series(spec: BenchSpec) -> ScenarioGrid:
        return ScenarioGrid.from_spec(
            spec, {"total_bytes": sizes}, backend=backend
        )

    labeled = [
        (name, series(replace(base, approach=name)))
        for name in ("pt2pt_single", "pt2pt_many")
    ]
    labeled += [
        (
            _key(aggr),
            series(
                replace(
                    base,
                    approach="pt2pt_part",
                    cvars=Cvars(part_aggr_size=aggr),
                )
            ),
        )
        for aggr in AGGR_SIZES
    ]
    data = run_labeled_grids("fig7", labeled, jobs=jobs, store=store)
    sweep = data.sweep
    small = sizes[0]
    data.headline = {
        "noaggr_penalty": sweep.ratio(_key(0), "pt2pt_single", small),
        "many_penalty": sweep.ratio("pt2pt_many", "pt2pt_single", small),
        "aggr512_penalty": sweep.ratio(_key(512), "pt2pt_single", small),
        "aggr16384_penalty": sweep.ratio(_key(16384), "pt2pt_single", small),
    }
    data.notes = [
        "paper: no-aggregation part ~= many; aggregated floor ~x3.13",
        f"aggregation benefit ends at N_part*aggr (N_part={N_PARTS})",
    ]
    return data


def report(data: FigureData) -> str:
    """Printable reproduction of Fig. 7."""
    h = data.headline
    cols = ["pt2pt_many", "pt2pt_single"] + [_key(a) for a in AGGR_SIZES]
    return "\n".join(
        [
            format_us_table(
                data.sweep,
                cols,
                title=(
                    "Figure 7 — message aggregation: time [us], 4 threads, "
                    "theta=32 (128 partitions)"
                ),
            ),
            "",
            f"no-aggr/single (small): x{h['noaggr_penalty']:.2f}"
            "   [paper: ~x10, ~= many]",
            f"many/single (small): x{h['many_penalty']:.2f}",
            f"aggr=512/single (small): x{h['aggr512_penalty']:.2f}"
            "   [paper: ~3.13]",
            f"aggr=16384/single (small): x{h['aggr16384_penalty']:.2f}",
        ]
    )
