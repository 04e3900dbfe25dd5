"""The ``--store DIR`` layout: one campaign root per grid, round-trips,
torn and foreign files, and the pattern-sweep view."""

import json

import pytest

from repro.apps import PatternConfig, PatternSweep
from repro.bench import BenchSpec
from repro.runner import (
    CampaignStore,
    ScenarioGrid,
    execute,
    run_grids,
    scenario_for,
)


@pytest.fixture()
def store(tmp_path):
    return tmp_path / "store"


@pytest.fixture(scope="module")
def bench_point():
    spec = BenchSpec(approach="pt2pt_single", total_bytes=256, iterations=2)
    grid = ScenarioGrid.from_spec(spec, {"total_bytes": [256]})
    return grid, execute(scenario_for(spec))


@pytest.fixture(scope="module")
def pattern_point():
    config = PatternConfig(
        pattern="halo3d",
        approach="pt2pt_part",
        n_ranks=4,
        n_threads=2,
        msg_bytes=4096,
        iterations=2,
    )
    grid = ScenarioGrid.from_spec(config, {"approach": ["pt2pt_part"]})
    return grid, execute(scenario_for(config))


def root_of(store, grid):
    return store / grid.content_hash()


def segments(store, grid):
    return sorted((root_of(store, grid) / "segments").iterdir())


class TestRoundTrip:
    def test_bench_result_round_trip(self, store, bench_point):
        grid, result = bench_point
        assert not root_of(store, grid).exists()
        (loaded,) = run_grids([grid], store=store)[0]
        assert root_of(store, grid).is_dir()
        assert loaded.times == result.times
        assert loaded.stats.mean == result.stats.mean
        assert loaded.spec == result.spec
        assert loaded.retries == result.retries
        assert loaded.verified == result.verified

    def test_pattern_result_round_trip(self, store, pattern_point):
        grid, result = pattern_point
        (loaded,) = run_grids([grid], store=store)[0]
        assert loaded.times == result.times
        assert loaded.bytes_per_iteration == result.bytes_per_iteration
        assert loaded.n_links == result.n_links
        assert loaded.config == result.config

    def test_missing_record_raises(self, store, bench_point):
        grid, _ = bench_point
        with pytest.raises(FileNotFoundError):
            CampaignStore.open(root_of(store, grid))

    def test_bad_schema_rejected(self, store, bench_point):
        grid, _ = bench_point
        run_grids([grid], store=store)
        header_path = root_of(store, grid) / "campaign.json"
        header = json.loads(header_path.read_text())
        header["schema"] = "bogus"
        header_path.write_text(json.dumps(header))
        with pytest.raises(ValueError):
            run_grids([grid], store=store)

    def test_load_dict_treats_bad_records_as_misses(self, store, bench_point):
        """A torn segment is never coverage: with the index gone, the
        rebuild lists it under ``ignored`` and the point is missing."""
        grid, _ = bench_point
        run_grids([grid], store=store)
        (segment,) = segments(store, grid)
        segment.write_text("{ torn")
        (root_of(store, grid) / "index.json").unlink()
        campaign = CampaignStore.open(root_of(store, grid))
        assert campaign.n_completed == 0
        assert campaign.stats()["ignored"] == [f"segments/{segment.name}"]

    def test_resume_recomputes_over_torn_record(self, store, bench_point):
        grid, result = bench_point
        run_grids([grid], store=store)
        (segment,) = segments(store, grid)
        segment.write_text("{ torn")
        (root_of(store, grid) / "index.json").unlink()
        (loaded,) = run_grids([grid], store=store)[0]
        assert loaded.times == result.times  # repaired
        assert CampaignStore.open(root_of(store, grid)).n_completed == 1


class TestLayout:
    def test_content_addressed_paths(self, store, bench_point):
        grid, _ = bench_point
        run_grids([grid], store=store)
        assert [p.name for p in store.iterdir()] == [grid.content_hash()]
        header = json.loads(
            (root_of(store, grid) / "campaign.json").read_text()
        )
        assert header["grid_hash"] == grid.content_hash()

    def test_no_temp_files_left_behind(self, store, bench_point):
        grid, _ = bench_point
        run_grids([grid], store=store)
        assert not list(store.rglob("*.tmp"))

    def test_len_and_records(self, store, bench_point, pattern_point):
        assert not store.exists()
        run_grids([bench_point[0]], store=store)
        run_grids([pattern_point[0]], store=store)
        kinds = {
            CampaignStore.open(root).header["kind"]
            for root in store.iterdir()
        }
        assert kinds == {"bench", "pattern"}

    def test_overwrite_is_idempotent(self, store, bench_point):
        grid, _ = bench_point
        run_grids([grid], store=store)
        first = sorted(p.relative_to(store) for p in store.rglob("*"))
        run_grids([grid], store=store)
        assert sorted(p.relative_to(store) for p in store.rglob("*")) == first
        assert len(segments(store, grid)) == 1


class TestInterop:
    def test_pattern_sweep_view(self, store, pattern_point):
        grid, result = pattern_point
        sweep = PatternSweep()
        for loaded in run_grids([grid], store=store)[0]:
            sweep.add(loaded)
        # The stored pattern grid reads back as a BENCH_apps-style sweep.
        assert len(sweep) == 1
        assert sweep.patterns() == ["halo3d"]
        assert sweep.get(result.config).times == result.times
