"""Compare two sets of benchmark results by the bounds in BENCHMARK.json.

From the root of the repository::

    python3 perf/compare.py BASE/*.json CHANGE/*.json
    python3 perf/compare.py BASE_DIR CHANGE_DIR
    python3 perf/compare.py RUNS_DIR          # one set: its spreads

Arguments are result files written by ``perf/run.py --out`` or
directories of them; files are grouped by their directory, the first
group being the baseline.  Traced results are skipped.  For each
workload and end-to-end metric the script prints each side's median and
quartiles (``statistics.quantiles(values, n=4)``), the spread (quartile
distance over the median) and a verdict:

* ``unresolved``: either side's spread exceeds the metric's bound, and
  the change's runs neither all read better nor all read worse than
  every baseline run (in those cases ``better`` or ``worse``);
* ``worse``: the change's median is worse than the baseline's by more
  than the bound;
* ``better``: the change wins at least nine tenths of the run pairs
  (paired by seed) and the medians differ by more than the baseline's
  quartile distance;
* ``same``: otherwise.

With one set, the verdict is ``steady`` when the spread is within the
bound and ``unsteady`` otherwise.  Exits 1 when any row is ``worse``,
``unresolved`` or ``unsteady``.
"""

from __future__ import annotations

import glob
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: (workload, metric) -> {seed: value}
Runs = Dict[Tuple[str, str], Dict[int, float]]


def load_runs(paths: Sequence[Path]) -> Runs:
    runs: Runs = {}
    for path in paths:
        result = json.loads(path.read_text())
        if not isinstance(result, dict) or "workload" not in result:
            continue
        if result.get("trace"):
            continue
        for name, metric in result["metrics"].items():
            runs.setdefault((result["workload"], name), {})[
                result["seed"]
            ] = metric["value"]
    return runs


def group_paths(args: Sequence[str]) -> List[List[Path]]:
    """Result files grouped by directory, in order of first appearance."""
    groups: Dict[Path, List[Path]] = {}
    for arg in args:
        path = Path(arg)
        if path.is_dir():
            files = sorted(path.glob("*.json"))
            key = path.resolve()
        else:
            files = [Path(p) for p in sorted(glob.glob(arg))] or [path]
            key = files[0].resolve().parent
        groups.setdefault(key, []).extend(
            f for f in files if not f.name.endswith(".trace.json")
        )
    return list(groups.values())


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        only = values[0]
        return only, only, only
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: Sequence[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def _better(a: float, b: float, direction: str) -> bool:
    """True when ``a`` reads better than ``b``."""
    return a < b if direction == "lower" else a > b


def verdict(
    base: Dict[int, float], change: Dict[int, float],
    direction: str, bound: float,
) -> str:
    a, b = list(base.values()), list(change.values())
    med_a, med_b = statistics.median(a), statistics.median(b)
    if max(spread(a), spread(b)) > bound:
        if all(_better(x, y, direction) for x in b for y in a):
            return "better"
        if all(_better(y, x, direction) for x in b for y in a):
            return "worse"
        return "unresolved"
    worse_by = (med_b - med_a) if direction == "lower" else (med_a - med_b)
    if worse_by > bound * abs(med_a):
        return "worse"
    shared = sorted(set(base) & set(change))
    pairs = (
        [(base[s], change[s]) for s in shared]
        if shared
        else list(zip(a, b))
    )
    wins = sum(1 for x, y in pairs if _better(y, x, direction))
    q1, _, q3 = quartiles(a)
    if pairs and wins >= 0.9 * len(pairs) and abs(med_b - med_a) > q3 - q1:
        return "better"
    return "same"


def _fmt(values: Sequence[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def report(
    groups: List[Runs], benchmark: dict
) -> Tuple[List[List[str]], bool]:
    """Table rows (header first) and whether every row passed."""
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    workloads = [w["name"] for w in benchmark["workloads"]]
    base = groups[0]
    header = ["workload", "metric", "bound", "base median [q1, q3]",
              "spread"]
    if len(groups) == 2:
        header += ["change median [q1, q3]", "spread", "delta", "verdict"]
    else:
        header += ["verdict"]
    rows = [header]
    ok = True
    for workload in workloads:
        for name, metric in metrics.items():
            key = (workload, name)
            if key not in base or (len(groups) == 2 and key not in groups[1]):
                continue
            a = list(base[key].values())
            cells = [workload, name, f"{metric['bound']:g}", _fmt(a),
                     f"{spread(a):.2%}"]
            if len(groups) == 2:
                b = list(groups[1][key].values())
                result = verdict(
                    base[key], groups[1][key], metric["better"],
                    metric["bound"],
                )
                delta = statistics.median(b) / statistics.median(a) - 1
                cells += [_fmt(b), f"{spread(b):.2%}", f"{delta:+.2%}",
                          result]
                ok &= result in ("same", "better")
            else:
                result = "steady" if spread(a) <= metric["bound"] else "unsteady"
                cells.append(result)
                ok &= result == "steady"
            rows.append(cells)
    return rows, ok


def main(argv: Sequence[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0 if argv else 2
    groups = group_paths(argv)
    if len(groups) not in (1, 2):
        print(
            f"error: expected one or two directories of results, "
            f"got {len(groups)}",
            file=sys.stderr,
        )
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, ok = report([load_runs(g) for g in groups], benchmark)
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
