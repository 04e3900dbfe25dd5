"""Tests for the Fig. 3 benchmark harness."""

import pytest

from repro.bench import APPROACHES, BenchSpec, run_benchmark
from repro.net import MELUXINA


class TestSpecValidation:
    def test_unknown_approach(self):
        with pytest.raises(KeyError):
            BenchSpec(approach="nope", total_bytes=64)

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            BenchSpec(approach="pt2pt_single", total_bytes=64, iterations=0)

    def test_compute_model_selection(self):
        from repro.threads import FixedDelayModel, NoDelayModel

        assert isinstance(
            BenchSpec(approach="pt2pt_single", total_bytes=64).compute_model(),
            NoDelayModel,
        )
        spec = BenchSpec(
            approach="pt2pt_single", total_bytes=64, gamma_us_per_mb=50.0
        )
        assert isinstance(spec.compute_model(), FixedDelayModel)


class TestSingleRuns:
    @pytest.mark.parametrize("name", sorted(APPROACHES))
    def test_every_approach_runs_and_verifies(self, name):
        result = run_benchmark(
            BenchSpec(
                approach=name,
                total_bytes=2048,
                n_threads=2,
                theta=2,
                iterations=3,
                verify=True,
            )
        )
        assert result.verified
        assert result.mean > 0
        assert len(result.times) == 3

    def test_deterministic_runs_have_zero_variance(self):
        result = run_benchmark(
            BenchSpec(approach="pt2pt_single", total_bytes=1024, iterations=8)
        )
        # Identical up to float rounding of timestamp subtraction.
        assert result.stats.relative_ci < 1e-9

    def test_deterministic_reproducibility(self):
        spec = BenchSpec(
            approach="pt2pt_part", total_bytes=4096, n_threads=4, iterations=4
        )
        assert run_benchmark(spec).mean == run_benchmark(spec).mean

    def test_warmup_iterations_excluded(self):
        r1 = run_benchmark(
            BenchSpec(approach="pt2pt_single", total_bytes=64,
                      iterations=5, warmup=0)
        )
        r2 = run_benchmark(
            BenchSpec(approach="pt2pt_single", total_bytes=64,
                      iterations=5, warmup=3)
        )
        assert len(r1.times) == len(r2.times) == 5

    def test_bandwidth_metric(self):
        result = run_benchmark(
            BenchSpec(approach="pt2pt_single", total_bytes=1 << 20,
                      iterations=3)
        )
        assert result.bandwidth == pytest.approx(
            (1 << 20) / result.mean
        )
        assert result.bandwidth_gbs < MELUXINA.bandwidth / 1e9

    def test_mean_us_unit(self):
        result = run_benchmark(
            BenchSpec(approach="pt2pt_single", total_bytes=64, iterations=2)
        )
        assert result.mean_us == pytest.approx(result.mean * 1e6)


class TestComputeRemoval:
    def test_delay_removed_from_bulk_measurement(self):
        """§2.1: the bulk time excludes the compute delay itself."""
        base = run_benchmark(
            BenchSpec(approach="pt2pt_single", total_bytes=1 << 20,
                      n_threads=4, iterations=3)
        ).mean
        delayed = run_benchmark(
            BenchSpec(approach="pt2pt_single", total_bytes=1 << 20,
                      n_threads=4, iterations=3, gamma_us_per_mb=100.0)
        ).mean
        # The delay is subtracted, so bulk time is delay-independent.
        assert delayed == pytest.approx(base, rel=0.02)

    def test_pipelined_time_shrinks_with_delay(self):
        """The early-bird effect: overlap reduces the net comm time."""
        base = run_benchmark(
            BenchSpec(approach="pt2pt_part", total_bytes=1 << 20,
                      n_threads=4, iterations=3)
        ).mean
        delayed = run_benchmark(
            BenchSpec(approach="pt2pt_part", total_bytes=1 << 20,
                      n_threads=4, iterations=3, gamma_us_per_mb=100.0)
        ).mean
        assert delayed < base


class TestAmForcing:
    def test_old_approach_gets_am_world(self):
        from repro.bench import build_world

        spec = BenchSpec(approach="pt2pt_part_old", total_bytes=64)
        assert build_world(spec).cvars.part_force_am

    def test_new_approach_keeps_tag_path(self):
        from repro.bench import build_world

        spec = BenchSpec(approach="pt2pt_part", total_bytes=64)
        assert not build_world(spec).cvars.part_force_am


class TestRetryRule:
    def test_no_retries_for_deterministic_run(self):
        result = run_benchmark(
            BenchSpec(approach="pt2pt_single", total_bytes=64,
                      iterations=4, max_retries=10)
        )
        assert result.retries == 0
