"""Tests of the benchmark itself, on tiny grids.

Run from the root of the repository::

    PYTHONPATH=src python -m pytest perf -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parent
for path in (str(ROOT / "src"), str(PERF)):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import specs  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = workloads.load_benchmark()
E2E = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]


def _tiny_patterns_sim() -> dict:
    spec = specs.pattern_sim_spec(1)
    spec["base"]["n_ranks"] = 4
    spec["axes"].update(
        pattern=["halo3d"],
        approach=["pt2pt_single", "pt2pt_part"],
        msg_bytes=[16 << 10],
    )
    return {"spec": spec}


TINY = {
    "figures-sim": {"figures": specs.FIGURES, "iterations": 1,
                    "quick": True},
    "patterns-sim": _tiny_patterns_sim(),
    "campaign-bench": {"spec": specs.campaign_spec(1, n_sizes=2)},
    "campaign-pattern-sharded": {
        "spec": specs.pattern_campaign_spec(1, n_sizes=1)
    },
}


def _measure(name: str, trace: bool) -> workloads.Result:
    return workloads.measure(
        workloads.WORKLOADS[name], seed=1, seconds=0, trace=trace,
        config=TINY[name], setup_reps=1,
    )


@pytest.fixture(scope="module")
def traced():
    """One tiny traced run per workload, shared by the tests below."""
    return {name: _measure(name, trace=True) for name in TINY}


def test_benchmark_json_names_the_workloads_and_metrics():
    assert list(BENCHMARK) == [
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    ]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        workloads.WORKLOADS
    )
    names = E2E + PER_LAYER + list(workloads.WORKLOADS)
    assert len(names) == len(set(names))
    assert "setup_s" in E2E
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("name", list(TINY))
def test_untraced_run_emits_every_end_to_end_metric(name):
    result = _measure(name, trace=False)
    assert result.failures == []
    assert result.attempted > 0
    assert sorted(result.metrics) == sorted(E2E)
    for value in result.metrics.values():
        assert math.isfinite(value) and value > 0


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_records_every_boundary(traced, name):
    result = traced[name]
    # The run itself counts a boundary without calls as a failure.
    assert result.failures == []
    assert sorted(result.metrics) == sorted(PER_LAYER)
    assert all(math.isfinite(v) for v in result.metrics.values())
    for boundary in workloads.WORKLOADS[name].boundaries:
        assert workloads.boundary_calls(result.tracer, boundary) >= 1
    environments = result.metrics["sim.environments"]
    if name.startswith("campaign"):
        assert environments == 0
    else:
        assert environments > 0 and result.metrics["sim.events"] > 0


@pytest.mark.parametrize("name", list(TINY))
def test_self_times_fit_inside_their_parent(traced, name):
    tracer = traced[name].tracer
    spans = {span[0]: span for span in tracer.spans}
    self_s = tracer.self_times()
    assert spans
    for span_id, _, start, end, parent, thread in tracer.spans:
        assert -1e-9 <= self_s[span_id] <= end - start
        if parent is not None:
            _, _, p_start, p_end, _, p_thread = spans[parent]
            assert p_thread == thread
            assert p_start <= start and end <= p_end
            assert self_s[span_id] <= p_end - p_start


def test_tracer_restores_what_it_wraps():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Layer.__dict__["inner"]
    with Tracer("unit") as tracer:
        tracer.wrap_span(Layer, "outer", "outer")
        tracer.wrap_span(Layer, "inner", "inner")
        assert Layer().outer() == 2
    assert Layer.__dict__["inner"] is original
    assert [span[1] for span in tracer.spans] == ["inner", "outer"]
    inner, outer = tracer.spans
    assert inner[4] == outer[0]
    assert tracer.self_total("outer") <= tracer.total("outer")
    with pytest.raises(AttributeError):
        Tracer("unit").wrap_span(Layer, "missing", "missing")


def test_corrupted_sample_value_is_a_failure(tmp_path):
    import numpy as np

    from repro.runner.campaign import (
        ENC_BENCH_COLS,
        CampaignStore,
        parse_grid_spec,
        run_campaign,
    )

    grid = parse_grid_spec(specs.campaign_spec(2, n_sizes=1))
    store = CampaignStore.create(tmp_path / "store", grid, compression="binary")
    run_campaign(store)
    checks = workloads.Checks()
    workloads.check_analytic_sample(store, checks, len(grid))
    assert checks.failed == 0 and checks.attempted == len(grid)

    # A later segment wins the merge: overwrite one point's time with a
    # value one ulp away from the model's.
    _, columns = store.read_columns()
    bad = np.nextafter(columns["times"][7:8], np.inf)
    store.append_columns(7, 8, [bad], ENC_BENCH_COLS)
    checks = workloads.Checks()
    workloads.check_analytic_sample(store, checks, len(grid))
    assert checks.failed == 1
    assert checks.failures[0].startswith("point 7:")


def test_no_import_of_code_the_roadmap_retires():
    retired = re.compile(
        r"campaign_bench|runner\.benchmark|runner import benchmark"
        r"|backends\.benchmark|backends import benchmark|ResultStore"
        r"|gzip|COMPRESSION_GZIP"
    )
    this = Path(__file__).resolve()
    sources = [p for p in PERF.rglob("*.py") if p.resolve() != this]
    assert sources
    for path in sources:
        for number, line in enumerate(path.read_text().splitlines(), 1):
            assert not retired.search(line), f"{path.name}:{number}: {line}"


def _result_file(directory: Path, seed: int, values: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"campaign-bench-seed{seed}.json").write_text(
        json.dumps(
            {
                "workload": "campaign-bench",
                "seed": seed,
                "trace": False,
                "metrics": {
                    name: {"value": value, "unit": "s"}
                    for name, value in values.items()
                },
            }
        )
    )


def _verdict(tmp_path, base, change) -> str:
    for seed, (a, b) in enumerate(zip(base, change)):
        _result_file(tmp_path / "a", seed, {"wall_s": a})
        _result_file(tmp_path / "b", seed, {"wall_s": b})
    groups = compare.group_paths(
        [str(tmp_path / "a" / "*.json"), str(tmp_path / "b" / "*.json")]
    )
    rows, _ = compare.report(
        [compare.load_runs(g) for g in groups], BENCHMARK
    )
    (row,) = [r for r in rows[1:] if r[1] == "wall_s"]
    return row[-1]


@pytest.mark.parametrize(
    "base, change, expected",
    [
        ([10.0, 10.1, 9.9, 10.0, 10.05], [10.02, 9.95, 10.1, 10.0, 9.9],
         "same"),
        ([10.0, 10.1, 9.9, 10.0, 10.05], [14.0, 14.1, 13.9, 14.0, 14.05],
         "worse"),
        ([10.0, 10.1, 9.9, 10.0, 10.05], [9.0, 9.1, 8.9, 9.0, 9.05],
         "better"),
        ([10.0, 10.1, 9.9, 10.0, 10.05], [6.0, 14.0, 8.0, 12.0, 10.0],
         "unresolved"),
    ],
)
def test_compare_verdicts(tmp_path, base, change, expected):
    assert _verdict(tmp_path, base, change) == expected


def test_run_fails_without_the_program(tmp_path):
    (tmp_path / "perf").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in PERF.glob("*.py"):
        shutil.copy(path, tmp_path / "perf")
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "campaign-bench",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
