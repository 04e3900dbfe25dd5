"""Golden determinism of the N-rank pattern path: exact simulated means.

A seed-0 subset of the ``patterns-sim`` benchmark grid (8 ranks, two
threads, three iterations, 16 KiB per link, 200 us/MB compute), with no
noise and with seeded Gaussian noise, pinned as ``float.hex()`` strings.
The patterns always simulate every iteration, so these pin the full
path.  CI pins the same workload's ``sim.events`` and ``net.packets``.
A change that moves a simulated pattern number fails here by name; a
deliberate re-calibration re-pins it.
"""

import pytest

from repro.apps import PatternConfig, run_pattern

#: (pattern, approach, noise) -> mean per-iteration time, float hex.
GOLDEN_PATTERNS = {
    ("halo3d", "pt2pt_single", "none"): "0x1.a10c620892b20p-16",
    ("halo3d", "pt2pt_single", "gaussian"): "0x1.af7e1545bb473p-16",
    ("halo3d", "pt2pt_many", "none"): "0x1.43dfe196699e4p-17",
    ("halo3d", "pt2pt_many", "gaussian"): "0x1.421f6cb25486bp-17",
    ("halo3d", "pt2pt_part", "none"): "0x1.77efae1c24995p-17",
    ("halo3d", "pt2pt_part", "gaussian"): "0x1.533c8ef892d10p-17",
    ("halo3d", "rma_many_active", "none"): "0x1.12a8d85d9afe3p-15",
    ("halo3d", "rma_many_active", "gaussian"): "0x1.2a4983156e878p-15",
    ("sweep3d", "pt2pt_single", "none"): "0x1.2e5adeac48f8dp-15",
    ("sweep3d", "pt2pt_single", "gaussian"): "0x1.6b41761c2be6bp-13",
    ("sweep3d", "pt2pt_many", "none"): "0x1.d232c6a5d8687p-16",
    ("sweep3d", "pt2pt_many", "gaussian"): "0x1.d28e88ca53a63p-14",
    ("sweep3d", "pt2pt_part", "none"): "0x1.e0df7f7a79814p-16",
    ("sweep3d", "pt2pt_part", "gaussian"): "0x1.d67f22c55b8d3p-14",
    ("sweep3d", "rma_many_active", "none"): "0x1.0f64877623f11p-15",
    ("sweep3d", "rma_many_active", "gaussian"): "0x1.61d675c29ebe3p-13",
    ("fft", "pt2pt_single", "none"): "0x1.16782ea0f117fp-15",
    ("fft", "pt2pt_single", "gaussian"): "0x1.f201b0401542dp-16",
    ("fft", "pt2pt_many", "none"): "0x1.7f52e5bae34b4p-16",
    ("fft", "pt2pt_many", "gaussian"): "0x1.839ef5a6410a5p-17",
    ("fft", "pt2pt_part", "none"): "0x1.8924e289417f8p-16",
    ("fft", "pt2pt_part", "gaussian"): "0x1.9c1dead03ff3bp-17",
    ("fft", "rma_many_active", "none"): "0x1.58001c123983dp-15",
    ("fft", "rma_many_active", "gaussian"): "0x1.54d6751bd2a01p-15",
}


@pytest.mark.parametrize(
    "pattern,approach,noise",
    sorted(GOLDEN_PATTERNS),
    ids=lambda value: str(value),
)
def test_pattern_mean_is_bit_identical(pattern, approach, noise):
    config = PatternConfig(
        pattern=pattern,
        approach=approach,
        n_ranks=8,
        n_threads=2,
        msg_bytes=16 << 10,
        iterations=3,
        compute_us_per_mb=200.0,
        noise=noise,
        noise_us=25.0,
        noise_sigma_us=5.0,
        seed=0,
    )
    expected = GOLDEN_PATTERNS[pattern, approach, noise]
    assert run_pattern(config).mean.hex() == expected
