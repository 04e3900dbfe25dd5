"""Batch/scalar equivalence: the vectorized kernel vs the scalar model.

The scalar predictors are the single source of truth; the numpy kernel
(:mod:`repro.model.vector`) must be **bitwise identical** per point —
not merely close.  These property-style sweeps cross every registered
approach and pattern with sizes spanning all three wire protocols,
thread/partition geometries, VCI configurations, and compute models,
and assert exact float equality (``==``, no tolerance).
"""

import itertools

import numpy as np
import pytest

from repro.apps.base import PatternConfig
from repro.bench.harness import BenchSpec
from repro.mpi import Cvars
from repro.model.approaches import (
    APPROACH_PREDICTORS,
    predict_bench_time,
    predict_bench_times,
)
from repro.model.patterns import predict_pattern_time, predict_pattern_times
from repro.model.vector import BENCH_COLUMN_FIELDS, bench_times_from_columns
from repro.net import MELUXINA

ALL_APPROACHES = sorted(APPROACH_PREDICTORS)

#: Sizes straddling the short/bcopy/zcopy protocol thresholds plus the
#: large-message regime where the zcopy queue-feedback branches fire.
SIZES = [64, 1024, 2048, 8192, 16384, 262144, 1 << 20, 1 << 24]


def bench_sweep_specs():
    """The full cross-product equivalence fixture (~4k points)."""
    specs = []
    for approach, size, (nt, th), vcis, method in itertools.product(
        ALL_APPROACHES,
        SIZES,
        [(1, 1), (2, 4), (4, 1), (32, 1)],
        [1, 4],
        ["comm", "tag_rr"],
    ):
        specs.append(
            BenchSpec(
                approach=approach,
                total_bytes=size,
                n_threads=nt,
                theta=th,
                iterations=1,
                cvars=Cvars(num_vcis=vcis, vci_method=method),
            )
        )
    return specs


#: Cvars variations for the mixed-group tests: VCI counts, both VCI
#: methods, and an aggregation bound that merges 4 KiB partitions.
MIXED_CVARS = [
    Cvars(),
    Cvars(num_vcis=4),
    Cvars(num_vcis=4, vci_method="tag_rr"),
    Cvars(part_aggr_size=16384),
]


class TestBenchEquivalence:
    def test_full_sweep_bitwise_equal(self):
        specs = bench_sweep_specs()
        scalar = np.array([predict_bench_time(s).time for s in specs])
        vector = predict_bench_times(specs)
        mismatch = np.nonzero(scalar != vector)[0]
        assert mismatch.size == 0, (
            f"{mismatch.size} of {len(specs)} points diverge; first: "
            f"{specs[mismatch[0]]}"
        )

    @pytest.mark.parametrize("approach", ALL_APPROACHES)
    def test_compute_models_per_approach(self, approach):
        """Fixed-delay and Gaussian compute paths, per approach."""
        specs = [
            BenchSpec(
                approach=approach,
                total_bytes=size,
                n_threads=4,
                theta=2,
                iterations=1,
                gamma_us_per_mb=gamma,
                gaussian_mu_us_per_mb=mu,
            )
            for size in SIZES
            for gamma, mu in [(0.0, 0.0), (200.0, 0.0), (0.0, 150.0),
                              (400.0, 150.0)]
        ]
        scalar = [predict_bench_time(s).time for s in specs]
        vector = predict_bench_times(specs)
        assert scalar == list(vector)

    def test_mixed_params_grouping(self):
        """Batches mixing machine models and cvars group correctly: each
        (params, num_vcis, vci_method, part_aggr_size) is one kernel
        call, and the groups interleave in the batch."""
        fast = MELUXINA.with_updates(bandwidth=100e9)
        specs = []
        for params, cvars, size in itertools.product(
            (MELUXINA, fast), MIXED_CVARS, (1 << 15, 1 << 20)
        ):
            for approach in ("pt2pt_part", "rma_many_active"):
                specs.append(
                    BenchSpec(
                        approach=approach,
                        total_bytes=size,
                        n_threads=8,
                        iterations=1,
                        params=params,
                        cvars=cvars,
                    )
                )
        scalar = [predict_bench_time(s).time for s in specs]
        assert scalar == list(predict_bench_times(specs))

    def test_columns_api_matches_spec_api(self):
        """The campaign fast path (bare columns, no spec objects)."""
        specs = [
            BenchSpec(
                approach=approach,
                total_bytes=size,
                n_threads=nt,
                theta=2,
                iterations=1,
                gamma_us_per_mb=gamma,
            )
            for approach in ALL_APPROACHES
            for size in (2048, 1 << 20)
            for nt in (1, 16)
            for gamma in (0.0, 100.0)
        ]
        columns = {
            name: np.array([getattr(s, name) for s in specs])
            for name in BENCH_COLUMN_FIELDS
            if name != "approach"
        }
        columns["approach"] = np.array(
            [s.approach for s in specs], dtype=object
        )
        cvars = Cvars()
        from_columns = bench_times_from_columns(
            MELUXINA, cvars.num_vcis, cvars.vci_method,
            cvars.part_aggr_size, columns, len(specs),
        )
        assert list(predict_bench_times(specs)) == list(from_columns)

    def test_unknown_approach_rejected(self):
        spec = BenchSpec(
            approach="pt2pt_single", total_bytes=1024, iterations=1
        )
        with pytest.raises(KeyError):
            bench_times_from_columns(
                MELUXINA, 1, "comm", 0,
                {"approach": "no_such_approach", "total_bytes": 1024}, 1,
            )
        assert predict_bench_times([spec]).shape == (1,)


class TestPatternEquivalence:
    @pytest.mark.parametrize("pattern", ["halo3d", "sweep3d", "fft"])
    def test_all_approaches_bitwise_equal(self, pattern):
        configs = [
            PatternConfig(
                pattern=pattern,
                approach=approach,
                n_ranks=ranks,
                n_threads=nt,
                msg_bytes=size,
                iterations=1,
                compute_us_per_mb=comp,
                cvars=Cvars(num_vcis=vcis),
            )
            for approach in ALL_APPROACHES
            for ranks in (4, 8)
            for nt in (1, 4)
            for size in (1024, 65536, 1 << 20)
            for vcis in (1, 4)
            for comp in (0.0, 200.0)
        ]
        scalar = [predict_pattern_time(c).time for c in configs]
        batch = predict_pattern_times(configs)
        assert scalar == list(batch.times)

    def test_mixed_params_grouping(self):
        """The pattern twin of the bench test: each (params, num_vcis,
        part_aggr_size) is one kernel call, groups interleaved."""
        fast = MELUXINA.with_updates(bandwidth=100e9)
        configs = [
            PatternConfig(
                pattern=pattern,
                approach=approach,
                n_ranks=4,
                n_threads=4,
                msg_bytes=size,
                iterations=1,
                params=params,
                cvars=cvars,
            )
            for params, cvars, size in itertools.product(
                (MELUXINA, fast), MIXED_CVARS, (16384, 1 << 20)
            )
            for pattern in ("halo3d", "fft")
            for approach in ("pt2pt_part", "rma_many_active")
        ]
        scalar = [predict_pattern_time(c).time for c in configs]
        assert scalar == list(predict_pattern_times(configs).times)

    @pytest.mark.parametrize("pattern", ["halo3d", "sweep3d", "fft"])
    def test_noise_modes_bitwise_equal(self, pattern):
        """The injected-noise mean shift, all shapes x all approaches."""
        configs = [
            PatternConfig(
                pattern=pattern,
                approach=approach,
                n_ranks=8,
                n_threads=nt,
                msg_bytes=size,
                iterations=1,
                compute_us_per_mb=200.0,
                noise=noise,
                noise_us=noise_us,
                noise_sigma_us=sigma,
            )
            for approach in ALL_APPROACHES
            for nt in (2, 8)
            for size in (16384, 1 << 20)
            for noise, noise_us, sigma in [
                ("none", 0.0, 0.0),
                ("single", 25.0, 0.0),
                ("uniform", 80.0, 0.0),
                ("gaussian", 50.0, 15.0),
                ("gaussian", 50.0, 0.0),
            ]
        ]
        scalar = [predict_pattern_time(c).time for c in configs]
        batch = predict_pattern_times(configs)
        assert scalar == list(batch.times)

    @pytest.mark.parametrize("pattern", ["halo3d", "sweep3d", "fft"])
    def test_columns_api_matches_scalar(self, pattern):
        """The campaign fast path (bare columns, no config objects):
        all 8 approaches x noise modes, bitwise-equal to the scalar
        predictor — the tentpole invariant."""
        from repro.model.vector import pattern_times_from_columns

        configs = [
            PatternConfig(
                pattern=pattern,
                approach=approach,
                n_ranks=ranks,
                n_threads=nt,
                msg_bytes=size,
                iterations=1,
                compute_us_per_mb=comp,
                noise=noise,
                noise_us=noise_us,
            )
            for approach in ALL_APPROACHES
            for ranks in (4, 8)
            for nt in (2, 4)
            for size in (16384, 1 << 20)
            for comp in (0.0, 200.0)
            for noise, noise_us in [
                ("none", 0.0), ("single", 30.0),
                ("uniform", 30.0), ("gaussian", 30.0),
            ]
        ]
        columns = {
            name: np.array([getattr(c, name) for c in configs])
            for name in (
                "n_ranks", "n_threads", "msg_bytes",
                "compute_us_per_mb", "noise_us", "noise_sigma_us",
            )
        }
        for name in ("pattern", "approach", "noise"):
            columns[name] = np.array(
                [getattr(c, name) for c in configs], dtype=object
            )
        cvars = Cvars()
        batch = pattern_times_from_columns(
            MELUXINA, cvars.num_vcis, cvars.part_aggr_size,
            columns, len(configs),
        )
        scalar = [predict_pattern_time(c).time for c in configs]
        assert scalar == list(batch.times)
        native = predict_pattern_times(configs)
        assert list(batch.bytes_per_iteration) == list(
            native.bytes_per_iteration
        )
        assert list(batch.n_links) == list(native.n_links)

    def test_columns_api_defaults_and_scalars(self):
        """Scalar/broadcast columns and spec-default fallbacks."""
        from repro.model.vector import pattern_times_from_columns

        config = PatternConfig(pattern="halo3d")  # all defaults
        batch = pattern_times_from_columns(
            MELUXINA, 1, Cvars().part_aggr_size,
            {"pattern": "halo3d"}, 3,
        )
        expected = predict_pattern_time(config).time
        assert list(batch.times) == [expected] * 3

    def test_columns_api_requires_pattern(self):
        from repro.model.vector import pattern_times_from_columns

        with pytest.raises(KeyError):
            pattern_times_from_columns(
                MELUXINA, 1, 512, {"msg_bytes": 1024}, 1
            )

    def test_columns_api_rejects_unknown_approach(self):
        from repro.model.vector import pattern_times_from_columns

        with pytest.raises(KeyError, match="no analytic predictor"):
            pattern_times_from_columns(
                MELUXINA, 1, 512,
                {"pattern": "halo3d", "approach": "pt2pt_partt"}, 1,
            )

    def test_noise_mean_quantum_shapes(self):
        from repro.model.patterns import noise_mean_quantum

        assert noise_mean_quantum("none", 100.0, 0.0) == 0.0
        assert noise_mean_quantum("single", 50.0, 0.0) == 50.0 * 1e-6
        assert noise_mean_quantum("uniform", 50.0, 0.0) == 50.0 * 1e-6
        # sigma=0 degenerates to the amplitude
        assert noise_mean_quantum("gaussian", 50.0, 0.0) == 50.0 * 1e-6
        # truncation at zero pulls the mean above the raw mean
        truncated = noise_mean_quantum("gaussian", 10.0, 30.0)
        assert truncated > 10.0e-6
        with pytest.raises(KeyError):
            noise_mean_quantum("no_such_noise", 1.0, 0.0)

    def test_noise_free_predictions_unchanged_by_correction(self):
        """noise="none" must flow through the exact pre-correction
        arithmetic: the shift terms all collapse to + 0.0."""
        config = PatternConfig(
            pattern="halo3d", approach="pt2pt_part", n_ranks=8,
            n_threads=4, msg_bytes=1 << 16, compute_us_per_mb=200.0,
        )
        prediction = predict_pattern_time(config)
        assert prediction.breakdown["noise_shift"] == 0.0
        noisy = PatternConfig(
            pattern="halo3d", approach="pt2pt_part", n_ranks=8,
            n_threads=4, msg_bytes=1 << 16, compute_us_per_mb=200.0,
            noise="single", noise_us=50.0,
        )
        assert predict_pattern_time(noisy).time != prediction.time

    def test_topology_metadata_matches_pattern(self):
        from repro.apps.base import build_pattern

        configs = [
            PatternConfig(
                pattern=pattern,
                approach="pt2pt_part",
                n_ranks=8,
                n_threads=threads,
                msg_bytes=size,
                iterations=1,
            )
            for pattern in ("halo3d", "sweep3d", "fft")
            for threads in (2, 3)
            for size in (16384, 16385)
        ]
        batch = predict_pattern_times(configs)
        for j, config in enumerate(configs):
            built = build_pattern(config)
            assert batch.bytes_per_iteration[j] == built.bytes_per_iteration()
            assert batch.n_links[j] == len(built.links())


class TestTopologyColumns:
    """The topology summary: one link-graph build per (pattern,
    n_ranks), payload sizes as a column."""

    def test_equals_per_geometry_build(self):
        """Every registered pattern over ranks x threads x sizes equals
        a summary of the graph built at that exact geometry."""
        from collections import Counter

        from repro.apps.base import PATTERNS, build_pattern
        from repro.model.patterns import _dependency_depth
        from repro.model.vector import _topology_columns

        names = sorted(PATTERNS)
        combos = list(itertools.product(
            range(len(names)),
            (2, 3, 4, 5, 6, 8, 12, 16, 27),
            (1, 2, 3, 4, 7, 8, 32),
            (1, 2, 3, 1000, 4097, 16384, 65537),
        ))
        code, ranks, threads, size = (
            np.array(column, dtype=np.int64) for column in zip(*combos)
        )
        topo, bytes_per_iteration = _topology_columns(
            (names, code), ranks, threads, size
        )
        for i, (c, r, t, m) in enumerate(combos):
            pattern = build_pattern(PatternConfig(
                pattern=names[c], n_ranks=r, n_threads=t, msg_bytes=m,
            ))
            links = pattern.links()
            expected = {
                "max_out": max(Counter(l.src for l in links).values()),
                "max_in": max(Counter(l.dst for l in links).values()),
                "max_pair_links": max(
                    Counter((l.src, l.dst) for l in links).values()
                ),
                "depth": _dependency_depth(pattern, r),
                "n_links": len(links),
                "nbytes": links[0].nbytes,
            }
            got = {name: int(column[i]) for name, column in topo.items()}
            assert got == expected, combos[i]
            assert bytes_per_iteration[i] == pattern.bytes_per_iteration()
        assert len(combos) == 1323

    @pytest.mark.parametrize("field, bad, match", [
        ("msg_bytes", 0, "msg_bytes"),
        ("n_threads", 0, "n_threads"),
        ("n_ranks", 1, "n_ranks"),
    ])
    def test_columns_api_rejects_bad_geometry(self, field, bad, match):
        from repro.model.vector import pattern_times_from_columns

        columns = {"pattern": "halo3d", field: np.array([4, bad])}
        with np.errstate(all="raise"), pytest.raises(ValueError, match=match):
            pattern_times_from_columns(MELUXINA, 1, 512, columns, 2)

    def test_columns_api_rejects_unknown_pattern(self):
        from repro.model.vector import pattern_times_from_columns

        with pytest.raises(KeyError, match="unknown pattern"):
            pattern_times_from_columns(MELUXINA, 1, 512, {"pattern": "ring"}, 1)


NOISE_SHAPES = ("none", "single", "uniform", "gaussian")


class TestNoiseQuantumColumn:
    """The noise-quantum column equals a per-point loop over the scalar
    ``noise_mean_quantum``, bit for bit, whatever form its inputs take."""

    @staticmethod
    def check(noise, shapes, us, sigma):
        from repro.model.patterns import noise_mean_quantum
        from repro.model.vector import _noise_quantum_column

        us = np.asarray(us, dtype=np.float64)
        sigma = np.asarray(sigma, dtype=np.float64)
        got = _noise_quantum_column(noise, us, sigma)
        expected = np.array(
            [noise_mean_quantum(shape, u, s)
             for shape, u, s in zip(shapes, us.tolist(), sigma.tolist())],
            dtype=np.float64,
        )
        assert got.dtype == np.float64 and got.shape == us.shape
        assert got.tobytes() == expected.tobytes()

    def test_shapes_amplitudes_sigmas(self):
        """All four shapes over >= 1,000 distinct amplitudes and sigmas.
        Each base point recurs with only its amplitude, or only its
        sigma, moved one ulp or 3e-8, so no rounded key can pass."""
        rng = np.random.default_rng(7)
        base = 1200
        us0 = rng.uniform(0.0, 200.0, base)
        sigma0 = rng.uniform(0.0, 60.0, base)
        us0[::7] = 0.0
        sigma0[::11] = 0.0

        def same(column):
            return column

        def ulp(column):
            return np.nextafter(column, np.inf)

        def near(column):
            return column + 3e-8

        moves = [(same, same), (ulp, same), (near, same), (same, ulp),
                 (same, near)]
        us = np.concatenate([move(us0) for move, _ in moves])
        sigma = np.concatenate([move(sigma0) for _, move in moves])
        codes = np.tile(rng.integers(0, len(NOISE_SHAPES), base), len(moves))
        assert len(np.unique(us)) >= 1000 and len(np.unique(sigma)) >= 1000
        shapes = [NOISE_SHAPES[c] for c in codes]
        self.check((NOISE_SHAPES, codes), shapes, us, sigma)
        self.check(np.array(shapes), shapes, us, sigma)

    @pytest.mark.parametrize("shape", NOISE_SHAPES)
    def test_scalar_broadcast_columns(self, shape):
        n = 64
        us = np.full(n, 25.0)
        sigma = np.full(n, 5.0)
        codes = np.zeros(n, dtype=np.int64)
        self.check(([shape], codes), [shape] * n, us, sigma)
        self.check(np.array([shape] * n), [shape] * n, us, sigma)
        # a names list with an entry no point uses
        names = ["unused", shape]
        self.check((names, codes + 1), [shape] * n, us, sigma)

    def test_signed_zero_never_merges(self):
        """``single`` returns the amplitude as is, so ``-0.0`` and
        ``0.0`` must each reach the scalar."""
        us = np.array([0.0, -0.0, 0.0, -0.0])
        sigma = np.array([5.0, 5.0, -0.0, 0.0])
        for shape in NOISE_SHAPES:
            self.check(np.array([shape] * 4), [shape] * 4, us, sigma)
        from repro.model.vector import _noise_quantum_column

        got = _noise_quantum_column(np.array(["single"] * 2), us[:2], sigma[:2])
        assert np.signbit(got).tolist() == [False, True]

    def test_empty_batch(self):
        empty = np.empty(0, dtype=np.float64)
        self.check(np.array([], dtype=str), [], empty, empty)
        self.check((["gaussian"], np.empty(0, dtype=np.int64)), [], empty,
                   empty)


class TestFactorize:
    """The exact group-by behind every scalar-per-key column."""

    @staticmethod
    def check_groups(first, inverse, *columns):
        """``first`` holds each group's first point, ``inverse`` maps
        every point to a group whose key equals its own, bit for bit."""
        keys = [
            np.asarray(c).view(np.int64) if np.asarray(c).dtype.kind == "f"
            else np.asarray(c)
            for c in columns
        ]
        n = len(keys[0])
        assert inverse.shape == (n,)
        for key in keys:
            assert np.array_equal(key[first][inverse], key)
        seen = {}
        for i, row in enumerate(zip(*(k.tolist() for k in keys))):
            seen.setdefault(row, i)
        assert len(first) == len(seen)
        assert sorted(first.tolist()) == sorted(seen.values())

    def test_first_index_is_first_occurrence(self):
        from repro.model.vector import _factorize

        rng = np.random.default_rng(3)
        a = rng.integers(0, 5, 2000)  # narrow: a presence table
        wide = rng.integers(-2**62, 2**62, 7)[rng.integers(0, 7, 2000)]
        b = rng.choice([0.0, -0.0, 1.5, np.nan, 2.5], 2000)
        names = ["x", "y", "z"]
        codes = rng.integers(0, 3, 2000)
        first, inverse = _factorize((names, codes), a, wide, b)
        self.check_groups(first, inverse, codes, a, wide, b)
        for g, start in enumerate(first.tolist()):
            assert np.flatnonzero(inverse == g)[0] == start

    def test_negative_zero_and_nan_payloads_stay_apart(self):
        from repro.model.vector import _factorize

        quiet = np.float64(np.nan)
        payload = np.array([0x7FF8000000000001], dtype=np.int64).view(
            np.float64
        )[0]
        column = np.array([0.0, -0.0, quiet, payload, 0.0, payload])
        first, inverse = _factorize(column)
        assert len(first) == 4
        assert inverse[0] == inverse[4] and inverse[3] == inverse[5]
        self.check_groups(first, inverse, column)

    def test_three_wide_float_columns_pack_without_overflow(self):
        """~1e5 distinct values per column: the raw bit patterns packed
        directly would overflow int64; dense codes do not."""
        from repro.model.vector import _factorize

        rng = np.random.default_rng(11)
        n = 220_000
        columns = [rng.uniform(-1e6, 1e6, n) for _ in range(3)]
        for column in columns:
            column[n // 2:] = column[: n - n // 2]  # repeat rows
        columns[2][-1000:] = np.nextafter(columns[2][-1000:], np.inf)
        assert all(len(np.unique(c)) >= 100_000 for c in columns)
        first, inverse = _factorize(*columns)
        self.check_groups(first, inverse, *columns)

    def test_key_redensifies_before_overflow(self):
        """Five columns of 2**14 codes need 70 bits: rows that differ
        only by 256 in the first column would share a wrapped key."""
        from repro.model.vector import _factorize

        width = 1 << 14
        i = np.arange(width)
        first_col = np.concatenate([i, (i + 256) % width]).astype(np.float64)
        rest = [np.concatenate([i, i]) for _ in range(4)]
        first, inverse = _factorize(first_col, *rest)
        assert len(first) == 2 * width
        self.check_groups(first, inverse, first_col, *rest)

    def test_empty_columns(self):
        from repro.model.vector import _factorize

        empty = np.empty(0, dtype=np.int64)
        first, inverse = _factorize(empty, empty.astype(np.float64))
        assert first.shape == inverse.shape == (0,)


class TestRunBatchEquivalence:
    """`Backend.run_batch` must be indistinguishable from per-point
    `run` — asserted on the serialized result form, which is exactly
    what stores and reports consume."""

    def _assert_batch_equals_run(self, scenarios):
        from repro.backends import get_backend
        from repro.runner.scenario import result_to_dict

        backend = get_backend("analytic")
        batched = backend.run_batch(scenarios)
        for scenario, batch_result in zip(scenarios, batched):
            single = backend.run(scenario)
            assert result_to_dict(scenario, batch_result) == result_to_dict(
                scenario, single
            )

    def test_bench_all_approaches(self):
        from repro.runner.scenario import scenario_for

        self._assert_batch_equals_run([
            scenario_for(
                BenchSpec(
                    approach=approach,
                    total_bytes=size,
                    n_threads=4,
                    theta=2,
                    iterations=3,
                ),
                backend="analytic",
            )
            for approach in ALL_APPROACHES
            for size in (1024, 16384, 1 << 20)
        ])

    def test_large_batch_takes_vector_path(self):
        """Above VECTOR_MIN_BATCH the kernel path runs — same bits."""
        from repro.backends.analytic import AnalyticBackend
        from repro.runner.scenario import scenario_for

        scenarios = [
            scenario_for(
                BenchSpec(
                    approach=approach,
                    total_bytes=1024 * (j + 1),
                    n_threads=2,
                    iterations=1,
                ),
                backend="analytic",
            )
            for approach in ALL_APPROACHES
            for j in range(10)
        ]
        assert len(scenarios) >= AnalyticBackend.VECTOR_MIN_BATCH
        self._assert_batch_equals_run(scenarios)

    def test_patterns_all_three(self):
        from repro.runner.scenario import scenario_for

        self._assert_batch_equals_run([
            scenario_for(
                PatternConfig(
                    pattern=pattern,
                    approach=approach,
                    n_ranks=4,
                    n_threads=2,
                    msg_bytes=size,
                    iterations=2,
                ),
                backend="analytic",
            )
            for pattern in ("halo3d", "sweep3d", "fft")
            for approach in ("pt2pt_single", "pt2pt_part", "rma_many_active")
            for size in (4096, 1 << 20)
        ])

    def test_mixed_kind_batch_preserves_order(self):
        from repro.runner.scenario import scenario_for

        scenarios = [
            scenario_for(
                BenchSpec(
                    approach="pt2pt_part", total_bytes=65536, iterations=1
                ),
                backend="analytic",
            ),
            scenario_for(
                PatternConfig(
                    pattern="halo3d", n_ranks=4, n_threads=1,
                    msg_bytes=4096, iterations=1,
                ),
                backend="analytic",
            ),
            scenario_for(
                BenchSpec(
                    approach="pt2pt_single", total_bytes=1024, iterations=1
                ),
                backend="analytic",
            ),
        ]
        from repro.backends import get_backend

        results = get_backend("analytic").run_batch(scenarios)
        assert results[0].spec.approach == "pt2pt_part"
        assert results[1].config.pattern == "halo3d"
        assert results[2].spec.approach == "pt2pt_single"

    def test_default_run_batch_is_run_loop(self):
        """The base-class default (the simulator path) loops run()."""
        from repro.backends import get_backend
        from repro.runner.scenario import result_to_dict, scenario_for

        scenarios = [
            scenario_for(
                BenchSpec(
                    approach="pt2pt_single",
                    total_bytes=size,
                    iterations=1,
                    n_threads=2,
                ),
            )
            for size in (1024, 65536)
        ]
        backend = get_backend("sim")
        batched = backend.run_batch(scenarios)
        for scenario, result in zip(scenarios, batched):
            assert result_to_dict(scenario, result) == result_to_dict(
                scenario, backend.run(scenario)
            )


class TestNegotiationVector:
    """The columnar message-count negotiation both kernels call equals
    ``negotiate_message_count`` exactly, in every aggregation regime."""

    AGGRS = (0, -1, 1, 511, 512, 4096, 16384, 1 << 30)

    @staticmethod
    def cases():
        n, total, aggr = [], [], []
        for parts in range(1, 129):
            for size in (
                0, parts - 1, parts, 7 * parts + 3, 512 * parts,
                4096 * parts + 1, 1 << 20, (3 << 20) + 5,
            ):
                for a in TestNegotiationVector.AGGRS:
                    n.append(parts)
                    total.append(size)
                    aggr.append(a)
        return (
            np.array(n, dtype=np.int64),
            np.array(total, dtype=np.int64),
            np.array(aggr, dtype=np.int64),
        )

    @staticmethod
    def scalar(n, total, aggr):
        from repro.mpi.partitioned import negotiate_message_count

        return [
            negotiate_message_count(p, p, t, a)
            for p, t, a in zip(n.tolist(), total.tolist(), aggr.tolist())
        ]

    def test_cases_cover_every_regime(self):
        n, total, aggr = self.cases()
        msg = total // n
        merges = (aggr > 0) & (msg > 0) & (msg <= aggr)
        assert ((aggr > 0) & (msg == 0)).any()  # total_bytes < n
        assert ((aggr > 0) & (msg > aggr)).any()
        assert (merges & (aggr // np.maximum(msg, 1) >= n)).any()  # k_max >= g
        assert (merges & (aggr // np.maximum(msg, 1) < n)).any()

    def test_bench_entry_point_equals_scalar(self):
        from repro.model.vector import _negotiated_vec

        n, total, aggr = self.cases()
        counts = _negotiated_vec(n, total, aggr)
        assert counts.dtype == np.int64
        assert counts.tolist() == self.scalar(n, total, aggr)

    def test_pattern_entry_point_equals_scalar(self):
        from repro.model.vector import _pattern_link_messages

        n, total, aggr = self.cases()
        counts, msg_bytes = _pattern_link_messages(
            "pt2pt_part", total, n, aggr
        )
        expected = self.scalar(n, total, aggr)
        assert counts.tolist() == expected
        assert msg_bytes.tolist() == [
            t // c for t, c in zip(total.tolist(), expected)
        ]

    @pytest.mark.parametrize("aggr", [a for a in AGGRS if a >= 0])
    def test_bench_kernel_under_aggregation(self, aggr):
        """The bench call site, through the columns API, against the
        scalar predictor with the same aggregation bound."""
        cvars = Cvars(part_aggr_size=aggr)
        specs = [
            BenchSpec(
                approach="pt2pt_part", total_bytes=size, n_threads=nt,
                theta=theta, iterations=1, cvars=cvars,
            )
            for size in (64, 2048, 1 << 16, 1 << 20)
            for nt in (1, 4, 16)
            for theta in (1, 3)
        ]
        columns = {
            name: np.array([getattr(s, name) for s in specs])
            for name in BENCH_COLUMN_FIELDS
        }
        from_columns = bench_times_from_columns(
            MELUXINA, cvars.num_vcis, cvars.vci_method, aggr,
            columns, len(specs),
        )
        assert list(from_columns) == [predict_bench_time(s).time for s in specs]

    def test_zero_length_batch(self):
        from repro.model.vector import _negotiated_vec, _pattern_link_messages

        empty = np.empty(0, dtype=np.int64)
        counts = _negotiated_vec(empty, empty, empty)
        assert counts.dtype == np.int64 and counts.shape == (0,)
        counts, msg_bytes = _pattern_link_messages(
            "pt2pt_part", empty, empty, empty
        )
        assert counts.shape == msg_bytes.shape == (0,)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_partition_count_below_one_raises(self, bad):
        from repro.model.vector import _negotiated_vec, _pattern_link_messages
        from repro.mpi.errors import PartitionError
        from repro.mpi.partitioned import negotiate_message_count

        n = np.array([4, bad], dtype=np.int64)
        total = np.array([4096, 4096], dtype=np.int64)
        aggr = np.array([512, 512], dtype=np.int64)
        with pytest.raises(PartitionError):
            negotiate_message_count(bad, bad, 4096, 512)
        with pytest.raises(PartitionError):
            _negotiated_vec(n, total, aggr)
        with pytest.raises(PartitionError):
            _pattern_link_messages("pt2pt_part", total, n, aggr)
