#!/usr/bin/env python
"""Regenerate every table and figure of the paper's evaluation.

Prints the textual reproduction of Tables 1-2 and Figures 4-8 with the
paper-vs-measured headline factors.  ``--full`` uses the paper's full
size grids (slower); the default quick mode spans the same ranges with
fewer points.  ``--jobs N`` fans each figure's scenario grid out across
N worker processes through the unified runner (0 = one per CPU) with
results identical to a serial run.

Run:  python examples/regenerate_figures.py [--full] [--iters N] [--jobs N]
"""

import argparse
import sys
import time

from repro.figures import (
    fig4_improvement,
    fig5_congestion,
    fig6_vcis,
    fig7_aggregation,
    fig8_earlybird,
    tables,
)

DRIVERS = (
    fig4_improvement,
    fig5_congestion,
    fig6_vcis,
    fig7_aggregation,
    fig8_earlybird,
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="full size grids (slower)")
    parser.add_argument("--iters", type=int, default=10,
                        help="iterations per benchmark point")
    parser.add_argument("--jobs", type=int, default=0,
                        help="runner worker processes (0 = one per CPU)")
    args = parser.parse_args(argv)

    from repro.runner import available_cpus

    if args.jobs < 0:
        parser.error("--jobs must be >= 0")
    jobs = args.jobs if args.jobs > 0 else available_cpus()
    print(tables.table1())
    print()
    print(tables.table2())
    for driver in DRIVERS:
        t0 = time.time()
        data = driver.run(iterations=args.iters, quick=not args.full,
                          jobs=jobs)
        print("\n" + "=" * 72)
        print(driver.report(data))
        print(f"[regenerated in {time.time() - t0:.1f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
