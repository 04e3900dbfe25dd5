"""The refactored sweep layers produce identical data through the runner,
with and without a store."""

import pytest

from repro.apps import PatternConfig, PatternSweep
from repro.bench import BenchSpec, sweep_approaches
from repro.figures import (
    fig4_improvement,
    fig5_congestion,
    fig6_vcis,
    fig7_aggregation,
    fig8_earlybird,
)
from repro.runner import ScenarioGrid, run_grids, run_specs
from repro.sim import Environment


def files_under(root):
    """``{path: (size, mtime_ns)}`` of every file below ``root``."""
    return {
        path: (path.stat().st_size, path.stat().st_mtime_ns)
        for path in root.rglob("*")
        if path.is_file()
    }


def sweep_means(sweep):
    return {
        (label, size): sweep.get(label, size).times
        for label in sweep.approaches()
        for size in sweep.sizes(label)
    }


class TestBenchSweep:
    def test_parallel_sweep_matches_serial(self):
        base = BenchSpec(
            approach="pt2pt_single", total_bytes=64, iterations=2
        )
        serial = sweep_approaches(
            base, ["pt2pt_single", "pt2pt_part"], [64, 4096], jobs=1
        )
        parallel = sweep_approaches(
            base, ["pt2pt_single", "pt2pt_part"], [64, 4096], jobs=2
        )
        assert sweep_means(serial).keys() == sweep_means(parallel).keys()
        assert len(sweep_means(serial)) == 4
        for approach in serial.approaches():
            for size in serial.sizes(approach):
                assert (
                    serial.get(approach, size).times
                    == parallel.get(approach, size).times
                )


class TestPatternSweep:
    def test_sweep_patterns_through_store(self, tmp_path):
        base = PatternConfig(
            pattern="halo3d",
            approach="pt2pt_part",
            n_ranks=4,
            n_threads=2,
            msg_bytes=4096,
            iterations=2,
        )
        grid = ScenarioGrid.from_spec(
            base, {"approach": ["pt2pt_part", "pt2pt_single"]}
        )
        configs = [scenario.spec for scenario in grid.expand()]
        plain = run_specs(configs, jobs=1)
        stored = PatternSweep()
        for result in run_grids([grid], jobs=1, store=tmp_path / "s")[0]:
            stored.add(result)
        assert len(stored.results()) == len(plain) == 2
        for result in plain:
            assert stored.get(result.config).times == result.times
        # The warm rerun reloads the same points without simulating.
        envs = Environment.instances_created
        again = run_grids([grid], jobs=1, store=tmp_path / "s")[0]
        assert Environment.instances_created == envs
        assert [r.times for r in again] == [
            stored.get(config).times for config in configs
        ]


class TestFigureDrivers:
    def test_quick_figure_resumes_from_store(self, tmp_path):
        store = tmp_path / "s"
        cold = fig4_improvement.run(
            iterations=2, quick=True, jobs=1, store=store
        )
        assert len(list(store.iterdir())) == 1  # one grid, one root
        before = files_under(store)
        envs = Environment.instances_created
        warm = fig4_improvement.run(
            iterations=2, quick=True, jobs=1, store=store
        )
        assert Environment.instances_created == envs
        assert files_under(store) == before  # nothing new was computed
        assert warm.headline == cold.headline
        assert sweep_means(warm.sweep) == sweep_means(cold.sweep)

    @pytest.mark.parametrize(
        "driver, backend, quick",
        [
            pytest.param(driver, backend, quick,
                         id=f"{driver.__name__}-{backend}")
            for driver, backend, quick in [
                (fig4_improvement, "sim", True),
                (fig7_aggregation, "sim", True),
            ] + [
                # The full paper grids: the scalar model (store-less)
                # against the column kernel (campaign chunks), bit for bit.
                (driver, "analytic", False)
                for driver in (fig4_improvement, fig5_congestion, fig6_vcis,
                               fig7_aggregation, fig8_earlybird)
            ]
        ],
    )
    def test_store_matches_store_less_run(
        self, tmp_path, driver, backend, quick
    ):
        plain = driver.run(iterations=2, quick=quick, backend=backend)
        stored = driver.run(
            iterations=2, quick=quick, backend=backend, store=tmp_path / "s"
        )
        assert stored.headline == plain.headline
        assert stored.sweep.approaches() == plain.sweep.approaches()
        assert sweep_means(stored.sweep) == sweep_means(plain.sweep)
        assert driver.report(stored) == driver.report(plain)

    def test_fig7_keeps_one_root_per_labeled_series(self, tmp_path):
        data = fig7_aggregation.run(
            iterations=2, quick=True, backend="analytic",
            store=tmp_path / "s",
        )
        # pt2pt_single, pt2pt_many and one series per aggregation bound.
        labels = data.sweep.approaches()
        assert len(labels) == 2 + len(fig7_aggregation.AGGR_SIZES)
        assert len(list((tmp_path / "s").iterdir())) == len(labels)


class TestCliStore:
    """``--store`` prints the store-less report, and the rerun executes
    nothing and writes nothing."""

    def report_lines(self, capsys, argv):
        from repro.__main__ import main

        assert main(argv) == 0
        return [
            line
            for line in capsys.readouterr().out.splitlines()
            if not line.startswith(("[regenerated in", "[sweep persisted"))
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["figures", "--only", "fig4", "--iters", "2", "--backend", "both"],
            ["figures", "--only", "fig7", "--iters", "2", "--backend", "both"],
            ["apps", "--pattern", "halo3d", "--ranks", "4", "--threads", "1",
             "--iters", "1", "--approach", "all", "--backend", "both",
             "--no-json"],
        ],
        ids=["fig4-both", "fig7-both", "apps-both"],
    )
    def test_store_report_matches_and_rerun_is_warm(
        self, tmp_path, capsys, argv
    ):
        store = tmp_path / "s"
        plain = self.report_lines(capsys, argv)
        cold = self.report_lines(capsys, argv + ["--store", str(store)])
        # One root per grid and backend (Fig. 7 has 7 series grids).
        n_grids = 7 if "fig7" in argv else 1
        assert len(list(store.iterdir())) == 2 * n_grids
        before = files_under(store)
        envs = Environment.instances_created
        warm = self.report_lines(capsys, argv + ["--store", str(store)])
        assert Environment.instances_created == envs
        assert files_under(store) == before
        assert plain == cold == warm
