"""Run one benchmark workload and print its metrics.

From the root of the repository::

    python3 perf/run.py --workload NAME --seed N [--seconds S] [--trace [0|1]] [--out FILE]

Prints every metric as ``name value unit``, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Without
``--trace`` the metrics are the end-to-end metrics of ``BENCHMARK.json``;
with it, the per-layer metrics, and the spans go to ``<out>.trace.json``.
The full result is written to ``--out`` (default
``perf/out/<workload>-seed<N>[-trace].json``), which ``perf/compare.py``
reads.  Exits 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
SRC = ROOT / "src"


def _environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "date": time.strftime("%Y-%m-%d"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    sys.path.insert(0, str(SRC))
    import workloads

    benchmark = workloads.load_benchmark()
    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}"
        )
    seconds = (
        args.seconds if args.seconds is not None else benchmark["run_seconds"]
    )
    trace = bool(args.trace)
    result = workloads.measure(
        workloads.WORKLOADS[args.workload], args.seed, seconds, trace
    )

    listed = benchmark["per_layer" if trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": result.metrics[m["name"]], "unit": m["unit"]}
        for m in listed
    }
    for line in result.notes:
        print(line)
    for failure in result.failures:
        print(f"FAILED: {failure}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")

    out = args.out or (
        PERF_DIR / "out"
        / f"{args.workload}-seed{args.seed}{'-trace' if trace else ''}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": seconds,
                "trace": trace,
                "unit_wall_s": result.unit_walls,
                "attempted": result.attempted,
                "failed": result.failed,
                "failures": result.failures,
                "notes": result.notes,
                "env": _environment(),
                "metrics": metrics,
            },
            indent=1,
        )
        + "\n"
    )
    if result.tracer is not None:
        result.tracer.dump(out.with_suffix(".trace.json"))

    correct = result.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
