"""Application communication patterns at N-rank scale.

The paper quantifies partitioned communication on a two-rank harness;
this subsystem replays its motivating *applications* on full topologies:

* :class:`~repro.apps.halo3d.Halo3D` — 3-D Cartesian 6-neighbor ghost
  face exchange (stencil codes);
* :class:`~repro.apps.sweep3d.Sweep3D` — KBA wavefront with upstream
  dependencies (transport sweeps);
* :class:`~repro.apps.fft.FFTTranspose` — all-to-all transpose rounds
  (distributed FFTs);

each runnable under every registered benchmark approach (partitioned,
per-partition sends, RMA, ...), with Single/Uniform/Gaussian noise
injection (Temuçin et al., ICPP'22) composing onto the compute model,
and JSON-persisted sweeps (``BENCH_apps.json``).

Quick start
-----------
>>> from repro.apps import PatternConfig, run_pattern
>>> cfg = PatternConfig(pattern="halo3d", approach="pt2pt_part",
...                     n_ranks=8, n_threads=2, msg_bytes=1 << 14,
...                     iterations=3, compute_us_per_mb=200.0)
>>> result = run_pattern(cfg)
>>> result.mean_us > 0
True
"""

from .base import (
    PATTERNS,
    Link,
    Pattern,
    PatternConfig,
    PatternResult,
    align_bytes,
    build_pattern,
    build_world,
    register_pattern,
    run_pattern,
)
from .fft import FFTTranspose
from .halo3d import Halo3D
from .noise import (
    NOISE_MODELS,
    GaussianNoise,
    NoiseModel,
    NoisyComputeModel,
    NoNoise,
    SingleNoise,
    UniformNoise,
    make_noise,
)
from .sweep import DEFAULT_JSON_PATH, PatternSweep
from .sweep3d import Sweep3D

__all__ = [
    "Link",
    "Pattern",
    "PatternConfig",
    "PatternResult",
    "PATTERNS",
    "register_pattern",
    "build_pattern",
    "build_world",
    "run_pattern",
    "align_bytes",
    "Halo3D",
    "Sweep3D",
    "FFTTranspose",
    "NoiseModel",
    "NoNoise",
    "SingleNoise",
    "UniformNoise",
    "GaussianNoise",
    "NoisyComputeModel",
    "NOISE_MODELS",
    "make_noise",
    "PatternSweep",
    "DEFAULT_JSON_PATH",
]
