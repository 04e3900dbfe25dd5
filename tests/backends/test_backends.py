"""Backend protocol: registry, dispatch, identity, zero-sim guarantee."""

import pytest

from repro.apps import PatternConfig
from repro.backends import (
    BACKENDS,
    AnalyticBackend,
    SimBackend,
    backend_names,
    get_backend,
)
from repro.bench import BenchSpec
from repro.runner import (
    CampaignStore,
    Scenario,
    ScenarioGrid,
    run_grids,
    run_scenarios,
    run_specs,
    scenario_for,
)
from repro.sim import Environment


class TestRegistry:
    def test_both_backends_registered(self):
        assert backend_names() == ["analytic", "sim"]
        assert isinstance(get_backend("sim"), SimBackend)
        assert isinstance(get_backend("analytic"), AnalyticBackend)

    def test_instances_are_shared(self):
        assert get_backend("analytic") is get_backend("analytic")

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError):
            get_backend("quantum")

    def test_inline_flags(self):
        assert get_backend("analytic").inline
        assert not get_backend("sim").inline

    def test_analytic_supports_all_registered_approaches(self):
        from repro.bench import APPROACHES

        backend = get_backend("analytic")
        for name in APPROACHES:
            scenario = scenario_for(
                BenchSpec(approach=name, total_bytes=1024),
                backend="analytic",
            )
            assert backend.supports(scenario)


class TestScenarioBackendIdentity:
    def test_backend_changes_the_content_hash(self):
        spec = BenchSpec(approach="pt2pt_part", total_bytes=4096)
        sim = scenario_for(spec)
        analytic = scenario_for(spec, backend="analytic")
        assert sim.backend == "sim"
        assert sim.content_hash() != analytic.content_hash()

    def test_backend_round_trips(self):
        spec = BenchSpec(approach="pt2pt_part", total_bytes=4096)
        scenario = scenario_for(spec, backend="analytic")
        rebuilt = Scenario.from_dict(scenario.to_dict())
        assert rebuilt == scenario
        assert rebuilt.backend == "analytic"

    def test_payload_without_backend_defaults_to_sim(self):
        payload = scenario_for(
            BenchSpec(approach="pt2pt_single", total_bytes=64)
        ).to_dict()
        del payload["backend"]
        assert Scenario.from_dict(payload).backend == "sim"

    def test_with_backend(self):
        scenario = scenario_for(
            BenchSpec(approach="pt2pt_single", total_bytes=64)
        )
        other = scenario.with_backend("analytic")
        assert other.spec == scenario.spec
        assert other.backend == "analytic"

    def test_grid_stamps_backend(self):
        grid = ScenarioGrid(
            "bench",
            base={"iterations": 1},
            axes={"approach": ["pt2pt_single"], "total_bytes": [64, 128]},
            backend="analytic",
        )
        assert all(s.backend == "analytic" for s in grid.expand())

    def test_store_keeps_backends_apart(self, tmp_path):
        spec = BenchSpec(approach="pt2pt_part", total_bytes=4096, iterations=2)
        grids = [
            ScenarioGrid.from_spec(spec, {"total_bytes": [4096]}, backend=b)
            for b in ("sim", "analytic")
        ]
        (sim_r,), (ana_r,) = [
            run_grids([grid], store=tmp_path)[0] for grid in grids
        ]
        # The backend is in the grid hash: two roots, never one.
        assert len(list(tmp_path.iterdir())) == 2
        assert sim_r.times != ana_r.times


class TestAnalyticExecution:
    def test_zero_environment_instantiations(self):
        spec = BenchSpec(
            approach="pt2pt_part", total_bytes=1 << 20, n_threads=4
        )
        before = Environment.instances_created
        result = run_specs([spec], backend="analytic")[0]
        assert Environment.instances_created == before
        assert result.mean > 0
        assert len(result.times) == spec.iterations

    def test_analytic_pattern_result_shape(self):
        config = PatternConfig(
            pattern="halo3d", n_ranks=4, n_threads=2, msg_bytes=8192,
            iterations=3,
        )
        before = Environment.instances_created
        result = run_specs([config], backend="analytic")[0]
        assert Environment.instances_created == before
        assert result.n_links > 0
        assert result.bytes_per_iteration > 0
        assert len(result.times) == 3

    def test_mixed_batch_preserves_order_and_backends(self):
        spec = BenchSpec(approach="pt2pt_single", total_bytes=1024,
                         iterations=2)
        batch = [
            scenario_for(spec, backend="analytic"),
            scenario_for(spec, backend="sim"),
            scenario_for(spec, backend="analytic"),
        ]
        report = run_scenarios(batch, jobs=1)
        assert len(report.results) == 3
        assert report.results[0].times == report.results[2].times
        # All three measure the same point, so sim and analytic agree
        # closely — but the analytic samples are exactly uniform.
        assert len(set(report.results[0].times)) == 1

    def test_analytic_deterministic_across_calls(self):
        spec = BenchSpec(approach="rma_many_active", total_bytes=65536,
                         n_threads=4)
        a = run_specs([spec], backend="analytic")[0]
        b = run_specs([spec], backend="analytic")[0]
        assert a.times == b.times


class TestFigureGridsAnalytic:
    """Acceptance: every figure grid regenerates with zero simulations."""

    @pytest.mark.parametrize(
        "driver_name",
        ["fig4_improvement", "fig5_congestion", "fig6_vcis",
         "fig7_aggregation", "fig8_earlybird"],
    )
    def test_quick_grid_zero_environments(self, driver_name):
        import importlib

        driver = importlib.import_module(f"repro.figures.{driver_name}")
        before = Environment.instances_created
        data = driver.run(iterations=3, quick=True, backend="analytic")
        assert Environment.instances_created == before
        assert driver.report(data)  # report renders


class TestStoreMaintenance:
    """A ``--store`` directory holds one campaign root per grid; each
    root's header says what it holds, and files that are not its
    segments never count as results."""

    def test_stats_counts_per_kind_and_backend(self, tmp_path):
        bench = BenchSpec(approach="pt2pt_single", total_bytes=64,
                          iterations=1)
        pattern = PatternConfig(pattern="halo3d", n_ranks=4, n_threads=1,
                                msg_bytes=256, iterations=1)
        for spec in (bench, pattern):
            for backend in ("sim", "analytic"):
                grid = ScenarioGrid.from_spec(
                    spec, {"approach": [spec.approach]}, backend=backend
                )
                run_grids([grid], store=tmp_path)
        per_kind_backend = {}
        for root in tmp_path.iterdir():
            store = CampaignStore.open(root)
            key = f"{store.header['kind']}/{store.header['backend']}"
            per_kind_backend[key] = store.n_completed
            stats = store.stats()
            assert stats["total_bytes"] > 0
            assert stats["ignored"] == []
        assert per_kind_backend == {
            "bench/analytic": 1,
            "bench/sim": 1,
            "pattern/analytic": 1,
            "pattern/sim": 1,
        }

    def test_pattern_sweep_filters_by_backend(self, tmp_path):
        config = PatternConfig(
            pattern="halo3d", n_ranks=4, n_threads=1, msg_bytes=256,
            iterations=1,
        )
        results = {}
        for backend in ("sim", "analytic"):
            grid = ScenarioGrid.from_spec(
                config, {"approach": [config.approach]}, backend=backend
            )
            (results[backend],) = run_grids([grid], store=tmp_path)[0]
            store = CampaignStore.open(tmp_path / grid.content_hash())
            assert store.header["producer"]["backend"] == backend
        assert results["sim"].config == results["analytic"].config
        assert results["sim"].times != results["analytic"].times

    def test_records_skips_stale_schema_versions(self, tmp_path):
        import json

        spec = BenchSpec(approach="pt2pt_single", total_bytes=64,
                         iterations=1)
        grid = ScenarioGrid.from_spec(spec, {"total_bytes": [64, 128]})
        (first, _) = run_grids([grid], store=tmp_path)[0]
        root = tmp_path / grid.content_hash()
        # A segment from an older segment-schema generation: readable
        # JSON, wrong schema — it must be ignored, not abort the read
        # and not count as coverage.
        good = sorted((root / "segments").iterdir())[0]
        lines = good.read_text().splitlines()
        header = json.loads(lines[0])
        header["schema"] = "repro.campaign.segment/v1"
        stale = root / "segments" / "seg-000099.jsonl"
        stale.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        store = CampaignStore.open(root)
        assert store.stats()["ignored"] == ["segments/seg-000099.jsonl"]
        rows = list(store.iter_rows())
        assert [index for index, _ in rows] == [0, 1]
        assert rows[0][1]["times"] == first.times


class TestAppsJsonBackendTag:
    def test_pattern_sweep_save_tags_backend(self, tmp_path):
        import json

        from repro.apps.sweep import PatternSweep
        from repro.runner import run_specs

        config = PatternConfig(
            pattern="halo3d", n_ranks=4, n_threads=1, msg_bytes=256,
            iterations=1,
        )
        sweep = PatternSweep()
        for result in run_specs([config], backend="analytic"):
            sweep.add(result)
        target = sweep.save(tmp_path / "s.json", backend="analytic")
        payload = json.loads(target.read_text())
        assert payload["backend"] == "analytic"
        assert len(payload["results"]) == 1

    def test_apps_cli_analytic_does_not_touch_default_feed(
        self, tmp_path, monkeypatch
    ):
        import json

        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        rc = main([
            "apps", "--pattern", "halo3d", "--ranks", "4", "--threads", "1",
            "--iters", "1", "--backend", "analytic",
        ])
        assert rc == 0
        assert not (tmp_path / "BENCH_apps.json").exists()
        payload = json.loads(
            (tmp_path / "BENCH_apps_analytic.json").read_text()
        )
        assert payload["backend"] == "analytic"
