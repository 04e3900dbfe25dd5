"""Golden determinism: exact simulated means, pinned as ``repr`` strings.

The engine processes events in ``(time, priority, insertion)`` order.
Any change that reorders two events at the same simulated time — a
dropped or added event, a different insertion point — shifts some
contention count or queue position and with it a mean in its last
digits.  Comparing ``repr()`` strings makes such a drift fail here, by
name, instead of surfacing as a slightly different figure.

The values were recorded before the engine's per-event overheads were
trimmed (no ``Release`` events, no per-packet delivery processes); they
must never be regenerated to make an engine change pass.
"""

import pytest

from repro.apps import PatternConfig, run_pattern
from repro.bench import BenchSpec, run_benchmark

#: (approach, threads, total bytes) -> repr(mean) at 3 iterations.  The
#: 4-thread points add a 100 us/MB delay on the last partition, so the
#: early-bird paths and the thread barriers interleave with the wire.
GOLDEN_BENCH = {
    ("pt2pt_many", 1, 4096): "2.5390666666666666e-06",
    ("pt2pt_many", 1, 1048576): "4.6499160000000014e-05",
    ("pt2pt_many", 4, 4096): "2.8927599999999977e-06",
    ("pt2pt_many", 4, 1048576): "2.381008000000001e-05",
    ("pt2pt_part", 1, 4096): "2.699066666666666e-06",
    ("pt2pt_part", 1, 1048576): "4.665915999999999e-05",
    ("pt2pt_part", 4, 4096): "3.0489999999999987e-06",
    ("pt2pt_part", 4, 1048576): "2.3950520000000022e-05",
    ("pt2pt_part_old", 1, 4096): "3.289066666666665e-06",
    ("pt2pt_part_old", 1, 1048576): "0.00013722826666666668",
    ("pt2pt_part_old", 4, 4096): "3.5646666666666665e-06",
    ("pt2pt_part_old", 4, 1048576): "0.0001374682666666667",
    ("pt2pt_single", 1, 4096): "2.539066666666666e-06",
    ("pt2pt_single", 1, 1048576): "4.6499160000000014e-05",
    ("pt2pt_single", 4, 4096): "3.1390666666666663e-06",
    ("pt2pt_single", 4, 1048576): "4.709916000000005e-05",
    ("rma_many_active", 1, 4096): "2.8925599999999985e-06",
    ("rma_many_active", 1, 1048576): "4.4135600000000005e-05",
    ("rma_many_active", 4, 4096): "8.425570000000023e-06",
    ("rma_many_active", 4, 1048576): "2.2185199999999965e-05",
    ("rma_many_passive", 1, 4096): "5.577679999999991e-06",
    ("rma_many_passive", 1, 1048576): "4.692072000000002e-05",
    ("rma_many_passive", 4, 4096): "7.046469999999999e-06",
    ("rma_many_passive", 4, 1048576): "2.163800000000005e-05",
    ("rma_single_active", 1, 4096): "2.8925599999999985e-06",
    ("rma_single_active", 1, 1048576): "4.4135600000000005e-05",
    ("rma_single_active", 4, 4096): "4.261329999999998e-06",
    ("rma_single_active", 4, 1048576): "1.8335199999999993e-05",
    ("rma_single_passive", 1, 4096): "5.577679999999991e-06",
    ("rma_single_passive", 1, 1048576): "4.692072000000002e-05",
    ("rma_single_passive", 4, 4096): "6.846489999999998e-06",
    ("rma_single_passive", 4, 1048576): "2.1120320000000013e-05",
}

#: An 8-rank Halo3D exchange under seeded Gaussian noise.
GOLDEN_HALO3D = "1.1266763572508828e-05"


@pytest.mark.parametrize(
    "approach,threads,nbytes",
    sorted(GOLDEN_BENCH),
    ids=lambda v: str(v),
)
def test_bench_mean_is_bit_identical(approach, threads, nbytes):
    spec = BenchSpec(
        approach=approach,
        total_bytes=nbytes,
        n_threads=threads,
        iterations=3,
        gamma_us_per_mb=100.0 if threads == 4 else 0.0,
    )
    assert repr(run_benchmark(spec).mean) == GOLDEN_BENCH[approach, threads, nbytes]


def test_halo3d_gaussian_mean_is_bit_identical():
    config = PatternConfig(
        pattern="halo3d",
        approach="pt2pt_part",
        n_ranks=8,
        n_threads=2,
        msg_bytes=64 << 10,
        iterations=3,
        noise="gaussian",
        noise_us=5.0,
        noise_sigma_us=2.0,
        seed=3,
    )
    assert repr(run_pattern(config).mean) == GOLDEN_HALO3D
