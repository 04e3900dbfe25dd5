"""Executor: parallel-equals-serial determinism, grid stores, resume."""

import pytest

from repro.apps import PatternConfig
from repro.bench import BenchSpec
from repro.runner import (
    CampaignStore,
    ScenarioGrid,
    available_cpus,
    default_jobs,
    run_campaign,
    run_grids,
    run_scenarios,
    run_specs,
)
from repro.sim import Environment


def mixed_grids():
    """A small bench grid and a small pattern grid."""
    bench = ScenarioGrid(
        "bench",
        base={"iterations": 2, "n_threads": 2, "theta": 1},
        axes={
            "approach": ["pt2pt_single", "pt2pt_part", "pt2pt_many"],
            "total_bytes": [1024, 65536],
        },
    )
    pattern = ScenarioGrid(
        "pattern",
        base={
            "n_ranks": 4,
            "n_threads": 2,
            "msg_bytes": 4096,
            "iterations": 2,
            "compute_us_per_mb": 200.0,
        },
        axes={
            "pattern": ["halo3d", "fft"],
            "approach": ["pt2pt_part", "pt2pt_single"],
        },
    )
    return bench, pattern


def mixed_grid():
    """A small bench × pattern mix: the fixed determinism fixture."""
    return [s for grid in mixed_grids() for s in grid.expand()]


def files_under(root):
    """``{path: (size, mtime_ns)}`` of every file below ``root``."""
    return {
        path: (path.stat().st_size, path.stat().st_mtime_ns)
        for path in root.rglob("*")
        if path.is_file()
    }


class TestIterChunkResults:
    """The campaign submit-ahead pipeline primitive: ordered delivery,
    pooled-equals-serial, lazy payload consumption."""

    def payload_chunks(self, scenarios, chunk):
        return [
            [s.to_dict() for s in scenarios[i:i + chunk]]
            for i in range(0, len(scenarios), chunk)
        ]

    def test_pooled_matches_serial_in_order(self):
        from repro.runner.executor import iter_chunk_results

        scenarios = mixed_grid()[:6]
        chunks = self.payload_chunks(scenarios, 2)
        serial = list(
            iter_chunk_results(iter(chunks), workers=1, window=2,
                               use_pool=False)
        )
        pooled = list(
            iter_chunk_results(iter(chunks), workers=2, window=2,
                               use_pool=True)
        )
        assert serial == pooled
        assert len(serial) == len(chunks)

    def test_lazy_submission_is_window_bounded(self):
        from repro.runner.executor import iter_chunk_results

        scenarios = mixed_grid()[:6]
        chunks = self.payload_chunks(scenarios, 1)
        pulled = []

        def tracking():
            for i, chunk in enumerate(chunks):
                pulled.append(i)
                yield chunk

        results = iter_chunk_results(
            tracking(), workers=2, window=2, use_pool=True
        )
        first = next(results)
        # With a window of 2, taking the first result cannot have
        # forced the whole stream to be materialized.
        assert len(pulled) < len(chunks)
        rest = list(results)
        assert len(rest) == len(chunks) - 1
        assert first is not None

    def test_empty_stream(self):
        from repro.runner.executor import iter_chunk_results

        assert list(
            iter_chunk_results(iter([]), workers=2, window=4)
        ) == []


class TestDeterminism:
    def test_parallel_identical_to_serial(self):
        scenarios = mixed_grid()
        serial = run_scenarios(scenarios, jobs=1)
        parallel = run_scenarios(scenarios, jobs=4)
        # Byte-identical serialized results, point for point.
        assert serial.canonical_json() == parallel.canonical_json()

    def test_results_in_submission_order(self):
        specs = [
            BenchSpec(
                approach="pt2pt_single", total_bytes=size, iterations=1
            )
            for size in (65536, 64, 16384, 1024)
        ]
        results = run_specs(specs, jobs=3)
        assert [r.spec.total_bytes for r in results] == [
            65536, 64, 16384, 1024,
        ]

    def test_mixed_specs_accepted(self):
        results = run_specs(
            [
                BenchSpec(
                    approach="pt2pt_single", total_bytes=64, iterations=1
                ),
                PatternConfig(
                    pattern="halo3d",
                    n_ranks=4,
                    n_threads=1,
                    msg_bytes=1024,
                    iterations=1,
                ),
            ],
            jobs=1,
        )
        assert results[0].spec.total_bytes == 64
        assert results[1].config.pattern == "halo3d"


class TestStoreAndResume:
    """``run_grids(store=DIR)``: one campaign root per grid, always
    resumed — a warm rerun executes nothing and writes nothing."""

    def test_store_populated_on_run(self, tmp_path):
        grids = mixed_grids()
        run_grids(grids, jobs=1, store=tmp_path / "s")
        roots = sorted(p.name for p in (tmp_path / "s").iterdir())
        assert roots == sorted(grid.content_hash() for grid in grids)
        for grid in grids:
            campaign = CampaignStore.open(
                tmp_path / "s" / grid.content_hash()
            )
            assert campaign.n_completed == campaign.n_points == len(grid)

    def test_resume_runs_nothing_on_warm_store(self, tmp_path):
        grids = mixed_grids()
        cold = run_grids(grids, jobs=1, store=tmp_path / "s")
        before = files_under(tmp_path / "s")
        envs = Environment.instances_created
        warm = run_grids(grids, jobs=1, store=tmp_path / "s")
        assert Environment.instances_created == envs
        assert files_under(tmp_path / "s") == before
        for cold_series, warm_series in zip(cold, warm):
            assert [r.times for r in warm_series] == [
                r.times for r in cold_series
            ]

    def test_partial_resume_runs_only_cold_points(self, tmp_path):
        bench, _ = mixed_grids()
        root = tmp_path / "s" / bench.content_hash()
        half = len(bench) // 2
        run_campaign(CampaignStore.create(root, bench), limit=half)
        envs = Environment.instances_created
        results = run_grids([bench], jobs=1, store=tmp_path / "s")[0]
        # One Environment per executed bench point.
        assert Environment.instances_created - envs == len(bench) - half
        assert [r.times for r in results] == [
            r.times for r in run_specs(s.spec for s in bench.expand())
        ]

    def test_without_store_every_run_executes(self, tmp_path):
        bench, _ = mixed_grids()
        for _ in range(2):
            envs = Environment.instances_created
            run_grids([bench], jobs=1)
            assert Environment.instances_created - envs == len(bench)

    def test_store_matches_store_less_run(self, tmp_path):
        grids = mixed_grids()
        plain = [run_grids([grid])[0] for grid in grids]
        stored = run_grids(grids, jobs=2, store=tmp_path / "s")
        for a, b in zip(plain, stored):
            assert [r.times for r in a] == [r.times for r in b]
            assert [
                getattr(r, "spec", getattr(r, "config", None)) for r in a
            ] == [getattr(r, "spec", getattr(r, "config", None)) for r in b]

    def test_store_less_grids_must_share_a_backend(self):
        bench, _ = mixed_grids()
        analytic = ScenarioGrid(
            bench.kind, base=bench.base, axes=bench.axes, backend="analytic"
        )
        with pytest.raises(ValueError):
            run_grids([bench, analytic])


class TestExecutorConfig:
    def test_jobs_default_is_cpu_count(self):
        # The usable CPUs (affinity mask), not the machine's count.
        assert default_jobs() == available_cpus()

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            run_scenarios(mixed_grid()[:1], jobs=0)
