"""Tests for sweeps and report formatting."""

import pytest

from repro.bench import (
    BenchSpec,
    format_bandwidth_table,
    format_us_table,
    sweep_approaches,
)


@pytest.fixture(scope="module")
def small_sweep():
    base = BenchSpec(approach="pt2pt_single", total_bytes=64, iterations=2)
    return sweep_approaches(
        base, ["pt2pt_single", "pt2pt_part"], [64, 1024, 16384]
    )


class TestSweep:
    def test_all_points_present(self, small_sweep):
        assert small_sweep.approaches() == ["pt2pt_part", "pt2pt_single"]
        assert small_sweep.sizes("pt2pt_single") == [64, 1024, 16384]
        assert small_sweep.sizes("pt2pt_part") == [64, 1024, 16384]

    def test_series_us_monotone_in_size(self, small_sweep):
        times = [
            small_sweep.get("pt2pt_single", size).mean_us
            for size in small_sweep.sizes("pt2pt_single")
        ]
        assert times == sorted(times)

    def test_bandwidth_series(self, small_sweep):
        sizes = small_sweep.sizes("pt2pt_single")
        first, last = (
            small_sweep.get("pt2pt_single", size).bandwidth_gbs
            for size in (sizes[0], sizes[-1])
        )
        assert last > first  # large msgs → more GB/s

    def test_ratio(self, small_sweep):
        r = small_sweep.ratio("pt2pt_part", "pt2pt_single", 64)
        assert r > 0


class TestReporting:
    def test_us_table_contains_data(self, small_sweep):
        table = format_us_table(small_sweep, title="demo")
        assert "demo" in table
        assert "pt2pt_single" in table and "pt2pt_part" in table
        assert "1KiB" in table and "16KiB" in table and "64B" in table

    def test_bandwidth_table(self, small_sweep):
        table = format_bandwidth_table(small_sweep)
        assert "pt2pt_single" in table

    def test_table_column_subset(self, small_sweep):
        table = format_us_table(small_sweep, approaches=["pt2pt_single"])
        assert "pt2pt_part" not in table
