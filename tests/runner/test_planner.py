"""Planner and executor: chunk partitioning, pool sizing, serial
fallback."""

import pytest

import repro.backends.analytic as analytic_module
import repro.runner.executor as executor_module
from repro.bench import BenchSpec
from repro.runner import (
    ScenarioGrid,
    run_scenarios,
    scenario_for,
)
from repro.runner.planner import (
    MAX_CHUNK_POINTS,
    auto_chunk_size,
    auto_submit_window,
    pool_workers,
)


@pytest.fixture()
def chunk_log(monkeypatch):
    """Point counts of every chunk the executor hands to a worker."""
    log = []
    execute_chunk = executor_module._execute_chunk

    def logged(payloads):
        log.append([payload["backend"] for payload in payloads])
        return execute_chunk(payloads)

    monkeypatch.setattr(executor_module, "_execute_chunk", logged)
    return log


@pytest.fixture()
def batch_log(monkeypatch):
    """Every bench spec the analytic backend evaluates, in order."""
    log = []
    bench_result = analytic_module.bench_result

    def logged(spec):
        log.append(spec)
        return bench_result(spec)

    monkeypatch.setattr(analytic_module, "bench_result", logged)
    return log


@pytest.fixture()
def pool_log(monkeypatch):
    """Worker counts of every process pool the executor creates."""
    log = []
    pool = executor_module.multiprocessing.Pool

    def logged(processes=None, **kwargs):
        log.append(processes)
        return pool(processes=processes, **kwargs)

    monkeypatch.setattr(executor_module.multiprocessing, "Pool", logged)
    return log


def bench_scenarios(n, backend="sim"):
    return [
        scenario_for(
            BenchSpec(
                approach="pt2pt_single",
                total_bytes=1024 * (i + 1),
                iterations=1,
            ),
            backend=backend,
        )
        for i in range(n)
    ]


class TestAutoChunkSize:
    def test_small_grids_get_single_point_chunks(self):
        assert auto_chunk_size(4, 4) == 1

    def test_large_grids_cap_at_max(self):
        assert auto_chunk_size(10_000_000, 4) == MAX_CHUNK_POINTS

    def test_a_few_chunks_per_worker(self):
        # 256 points over 4 workers -> 16 per chunk = 4 chunks/worker.
        assert auto_chunk_size(256, 4) == 16


class TestPlanning:
    """How run_scenarios splits a batch: analytic points in-process in
    submission order, pooled points in contiguous chunks, and the
    pool_workers policy deciding whether a pool runs at all."""

    def test_inline_backend_is_one_chunk(self, batch_log, chunk_log, pool_log):
        batch = bench_scenarios(10, backend="analytic")
        run_scenarios(batch, jobs=4)
        assert batch_log == [s.spec for s in batch]
        assert chunk_log == [] and pool_log == []

    def test_pooled_chunks_cover_pending_in_order(self, chunk_log):
        batch = bench_scenarios(10)
        report = run_scenarios(batch, jobs=1)
        # auto_chunk_size(10, 1) == 3
        assert [len(chunk) for chunk in chunk_log] == [3, 3, 3, 1]
        assert [r.spec for r in report.results] == [s.spec for s in batch]

    def test_mixed_backends_split_into_inline_and_pooled(
        self, batch_log, chunk_log
    ):
        batch = bench_scenarios(4) + bench_scenarios(4, backend="analytic")
        report = run_scenarios(batch, jobs=1)
        assert batch_log == [s.spec for s in batch[4:]]
        assert sum(chunk_log, []) == ["sim"] * 4
        assert len(report.results) == 8

    def test_tiny_grid_falls_back_to_serial(self):
        # 3 points cannot feed two workers.
        assert pool_workers(3, 4, cpu_count=8) == (1, False)

    def test_underfed_pool_shrinks_instead_of_abandoning(self):
        # 13 points with 16 workers available: the auto policy keeps
        # the pool but shrinks it so every worker gets >= 2 points.
        assert pool_workers(13, 16, cpu_count=16) == (6, True)
        # With a comfortable points-per-worker ratio, no shrink.
        assert pool_workers(13, 4, cpu_count=16) == (4, True)

    def test_single_cpu_falls_back_to_serial(self):
        assert pool_workers(64, 4, cpu_count=1) == (1, False)



class TestPoolWorkers:
    """The one owner of the worker-count / pool-fallback policy."""

    def test_tiny_workload_serial_fallback(self):
        workers, use_pool = pool_workers(3, 8, cpu_count=16)
        assert workers == 1 and not use_pool


class TestAutoSubmitWindow:
    def test_two_chunks_per_worker(self):
        assert auto_submit_window(4) == 8
        assert auto_submit_window(1) == 2

    def test_floor_of_two(self):
        assert auto_submit_window(0) == 2


class TestChunkedExecution:
    def grid(self):
        return ScenarioGrid(
            "bench",
            base={"iterations": 2, "n_threads": 2, "theta": 1},
            axes={
                "approach": ["pt2pt_single", "pt2pt_part"],
                "total_bytes": [1024, 65536],
            },
        ).expand()

    def test_forced_pool_byte_identical_to_serial(self, pool_log, two_cpus):
        scenarios = self.grid()
        serial = run_scenarios(scenarios, jobs=1)
        assert pool_log == []
        pooled = run_scenarios(scenarios, jobs=2)
        assert pool_log == [2]
        assert serial.result_dicts == pooled.result_dicts

    def test_report_counts_chunks(self, chunk_log):
        run_scenarios(self.grid(), jobs=1)
        assert len(chunk_log) == 4  # auto_chunk_size(4, 1) == 1
