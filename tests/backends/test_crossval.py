"""Cross-validation: sim ↔ model agreement as an enforced invariant.

For every registered approach the analytic prediction must agree with
the simulation within its documented tolerance
(:data:`repro.backends.crossval.TOLERANCES`) at small and large sizes
under 1 and 32 threads — and the Fig. 4 η ratios (time relative to the
``pt2pt_single`` baseline) must agree in sign everywhere.
"""

import pytest

from repro.apps import PatternConfig
from repro.backends import (
    PATTERN_TOLERANCE,
    TOLERANCES,
    CrossValReport,
    compare_bench_sweeps,
    compare_pattern_sweeps,
)
from repro.bench import APPROACHES, BenchSpec
from repro.model import predict_bench_time, predict_pattern_time
from repro.mpi import Cvars

#: (label, size) probes: one latency-dominated, one bandwidth-dominated.
SMALL_BYTES = 1 << 10
LARGE_BYTES = 1 << 20


def _sim_and_analytic(spec):
    from repro.apps.base import run_pattern
    from repro.bench.harness import run_benchmark

    if isinstance(spec, BenchSpec):
        sim = run_benchmark(spec).stats.mean
        ana = predict_bench_time(spec).time
    else:
        sim = run_pattern(spec).stats.mean
        ana = predict_pattern_time(spec).time
    return sim, ana


class TestToleranceTable:
    def test_every_approach_has_a_documented_tolerance(self):
        assert set(TOLERANCES) == set(APPROACHES)

    def test_tolerances_are_meaningful(self):
        # Documented, not vacuous: every bench tolerance is a real
        # constraint (< 50 % relative error).
        for name, tol in TOLERANCES.items():
            assert 0 < tol < 0.5, name

class TestBenchAgreement:
    @pytest.mark.parametrize("approach", sorted(APPROACHES))
    @pytest.mark.parametrize("total_bytes", [SMALL_BYTES, LARGE_BYTES])
    @pytest.mark.parametrize("n_threads", [1, 32])
    def test_within_documented_tolerance(
        self, approach, total_bytes, n_threads
    ):
        spec = BenchSpec(
            approach=approach,
            total_bytes=total_bytes,
            n_threads=n_threads,
            theta=1,
            iterations=2,
        )
        sim, ana = _sim_and_analytic(spec)
        rel = abs(ana - sim) / sim
        assert rel <= TOLERANCES[approach], (
            f"{approach} at {total_bytes}B/{n_threads}T: "
            f"sim {sim * 1e6:.2f}us vs analytic {ana * 1e6:.2f}us "
            f"({rel:.1%} > {TOLERANCES[approach]:.0%})"
        )


class TestKnownMisses:
    """Cross-validation points the model misses today, pinned so that
    the fix shows up as an XPASS and has to remove the marker."""

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "ROADMAP item 2: the zcopy queue-feedback ramp saturates "
            "the model between 8 and 16 messages, the simulator between "
            "16 and 32"
        ),
    )
    def test_fig7_aggr16384_at_256k(self):
        spec = BenchSpec(
            approach="pt2pt_part",
            total_bytes=256 << 10,
            n_threads=4,
            theta=32,
            iterations=3,
            cvars=Cvars(part_aggr_size=16384),
        )
        sim, ana = _sim_and_analytic(spec)
        assert abs(ana - sim) / sim <= TOLERANCES["pt2pt_part"], (
            f"sim {sim * 1e6:.2f}us vs analytic {ana * 1e6:.2f}us"
        )


class TestDegenerateParams:
    def test_zero_post_overhead_machine(self):
        from dataclasses import replace

        from repro.net import MELUXINA

        spec = BenchSpec(
            approach="pt2pt_many",
            total_bytes=1 << 20,
            n_threads=2,
            params=replace(MELUXINA, post_overhead=0.0),
        )
        assert predict_bench_time(spec).time > 0


class TestEtaSignAgreement:
    """The Fig. 4 η ratios must agree in sign everywhere (N=1, θ=1)."""

    SIZES = [64, 1 << 12, 1 << 16, 1 << 20, 16 << 20]

    def test_eta_signs_match(self):
        from repro.bench.harness import run_benchmark

        for size in self.SIZES:
            base = BenchSpec(
                approach="pt2pt_single", total_bytes=size, iterations=2
            )
            sim_base = run_benchmark(base).stats.mean
            ana_base = predict_bench_time(base).time
            for approach in sorted(APPROACHES):
                if approach == "pt2pt_single":
                    continue
                spec = BenchSpec(
                    approach=approach, total_bytes=size, iterations=2
                )
                sim, ana = _sim_and_analytic(spec)
                sim_eta = sim_base / sim
                ana_eta = ana_base / ana
                # Same side of 1 — or both within the band where the
                # approaches genuinely tie (|η - 1| <= 5 %).
                tied = abs(sim_eta - 1) <= 0.05 and abs(ana_eta - 1) <= 0.05
                assert tied or ((sim_eta > 1) == (ana_eta > 1)), (
                    f"{approach}/{size}B: sim eta {sim_eta:.3f} vs "
                    f"analytic eta {ana_eta:.3f} disagree in sign"
                )


class TestPatternAgreement:
    @pytest.mark.parametrize("pattern", ["halo3d", "sweep3d", "fft"])
    def test_within_pattern_tolerance(self, pattern):
        config = PatternConfig(
            pattern=pattern,
            approach="pt2pt_part",
            n_ranks=8,
            n_threads=4,
            msg_bytes=1 << 14,
            iterations=2,
            compute_us_per_mb=200.0,
        )
        sim, ana = _sim_and_analytic(config)
        rel = abs(ana - sim) / sim
        assert rel <= PATTERN_TOLERANCE, (
            f"{pattern}: sim {sim * 1e6:.2f}us vs analytic "
            f"{ana * 1e6:.2f}us ({rel:.1%})"
        )


class TestPatternNoiseAgreement:
    """The injected-noise mean-shift correction: noisy pattern points
    must sit inside the documented noise tolerance (before the
    correction they missed by up to ~6x)."""

    @pytest.mark.parametrize(
        "pattern,approach,noise,noise_us,sigma",
        [
            ("halo3d", "pt2pt_part", "single", 50.0, 0.0),
            ("halo3d", "pt2pt_many", "uniform", 50.0, 0.0),
            ("halo3d", "pt2pt_single", "gaussian", 50.0, 10.0),
            ("sweep3d", "pt2pt_single", "single", 50.0, 0.0),
            ("sweep3d", "pt2pt_part", "gaussian", 50.0, 10.0),
            ("fft", "pt2pt_many", "uniform", 50.0, 0.0),
        ],
    )
    def test_noise_within_tolerance(
        self, pattern, approach, noise, noise_us, sigma
    ):
        from repro.backends.crossval import PATTERN_NOISE_TOLERANCE

        config = PatternConfig(
            pattern=pattern,
            approach=approach,
            n_ranks=8,
            n_threads=4,
            msg_bytes=1 << 16,
            iterations=3,
            compute_us_per_mb=200.0,
            noise=noise,
            noise_us=noise_us,
            noise_sigma_us=sigma,
        )
        sim, ana = _sim_and_analytic(config)
        rel = abs(ana - sim) / sim
        assert rel <= PATTERN_NOISE_TOLERANCE, (
            f"{pattern}/{approach}/{noise}: sim {sim * 1e6:.2f}us vs "
            f"analytic {ana * 1e6:.2f}us ({rel:.1%})"
        )

    def test_noisy_scenarios_use_noise_tolerance(self):
        from repro.apps import PatternSweep
        from repro.backends.crossval import PATTERN_NOISE_TOLERANCE
        from repro.runner import run_specs

        noisy = PatternConfig(pattern="halo3d", noise="single", noise_us=10.0)
        quiet = PatternConfig(pattern="halo3d")
        sweep = PatternSweep()
        for result in run_specs([noisy, quiet], backend="analytic"):
            sweep.add(result)
        report = compare_pattern_sweeps(sweep, sweep)
        assert [p.tolerance for p in report.points] == [
            PATTERN_NOISE_TOLERANCE, PATTERN_TOLERANCE,
        ]


class TestCrossValReport:
    def test_report_flags_failures(self):
        from repro.backends.crossval import CrossPoint

        report = CrossValReport(
            points=[
                CrossPoint(
                    label="x", kind="bench", approach="pt2pt_single",
                    sim_mean=1.0, analytic_mean=2.0, tolerance=0.05,
                )
            ]
        )
        assert not report.passed
        assert report.max_rel_error == pytest.approx(1.0)
        assert "FAIL" in report.to_text()

    def test_compare_bench_sweeps(self):
        from repro.bench import sweep_approaches

        base = BenchSpec(
            approach="pt2pt_single", total_bytes=1024, iterations=2
        )
        sizes = [1024, 65536]
        names = ["pt2pt_single", "pt2pt_part"]
        sim_sweep = sweep_approaches(base, names, sizes, backend="sim")
        ana_sweep = sweep_approaches(base, names, sizes, backend="analytic")
        report = compare_bench_sweeps(sim_sweep, ana_sweep)
        assert len(report.points) == 4
        assert report.passed, report.to_text()
        assert report.worst is not None
        text = report.to_text()
        assert "max relative error" in text
        assert "PASS" in text
