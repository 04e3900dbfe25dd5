"""The bench kernel factored over message configurations.

:func:`~repro.model.vector.bench_times_from_columns` evaluates every
delay-free term once per distinct ``(total_bytes, n_threads, theta)``
key of an approach (plus the compute class for the approaches whose
zcopy queue-feedback masks read it) and gathers them per point, where
the compute delay enters.  These tests use grids where every key recurs
under every compute rate γ (0 and > 0) and Gaussian mean μ, for all 8
approaches and four cvars variants, and assert bitwise equality with
the scalar model at every point.  Every column form (``(values,
codes)`` pairs, bare arrays, scalars) takes one path, so all three give
the same bytes.
"""

import numpy as np
import pytest

from repro.bench import BenchSpec
from repro.model.approaches import APPROACH_PREDICTORS, predict_bench_time
from repro.model.vector import BENCH_COLUMN_FIELDS, bench_times_from_columns
from repro.mpi import Cvars
from repro.net import MELUXINA
from repro.runner import ScenarioGrid

#: The mixed-group variants of ``test_vector.py``: VCI counts, both VCI
#: methods, and an aggregation bound that merges 4 KiB partitions.
CVARS = [
    Cvars(),
    Cvars(num_vcis=4),
    Cvars(num_vcis=4, vci_method="tag_rr"),
    Cvars(part_aggr_size=16384),
]

#: γ = 1e-6 us/MB is a compute model whose delay (1e-18 s per byte of a
#: partition) moves a time by about a part in 1e9: a point differs from
#: its γ = 0 twin through its compute class, not its delay.
GAMMAS = [0.0, 1e-6, 50.0, 400.0]

GRID = ScenarioGrid(
    "bench",
    base={"iterations": 1},
    axes={
        "approach": sorted(APPROACH_PREDICTORS),
        "total_bytes": [1024, 16384, 65536, 262144, 1 << 20],
        "n_threads": [1, 2, 4, 16],
        "theta": [1, 4],
        "gamma_us_per_mb": GAMMAS,
        "gaussian_mu_us_per_mb": [0.0, 150.0],
    },
    backend="analytic",
)


def kernel(cvars, columns, n_points):
    return bench_times_from_columns(
        MELUXINA, cvars.num_vcis, cvars.vci_method, cvars.part_aggr_size,
        columns, n_points,
    ).tobytes()


def as_arrays(indices):
    """Every field of the grid points at ``indices`` as a bare array."""
    codes = GRID.axis_codes_for_indices(indices)
    return {
        name: np.array(GRID.axes[name])[codes[name]]
        for name in BENCH_COLUMN_FIELDS
    }


def scalar_time(cvars, **fields):
    return predict_bench_time(
        BenchSpec(iterations=1, cvars=cvars, **fields)
    ).time


def test_every_key_recurs_under_every_compute_model():
    """8 points (4 γ x 2 μ) per approach and geometry key."""
    keys = {}
    for index in range(len(GRID)):
        a = GRID.assignment_at(index)
        key = (a["approach"], a["total_bytes"], a["n_threads"], a["theta"])
        keys.setdefault(key, set()).add(
            (a["gamma_us_per_mb"], a["gaussian_mu_us_per_mb"])
        )
    assert len(keys) == 8 * 5 * 4 * 2
    assert all(len(models) == 8 for models in keys.values())


@pytest.mark.parametrize(
    "cvars", CVARS, ids=["default", "vcis4", "vcis4-tag_rr", "aggr16384"]
)
def test_bitwise_equal_to_scalar_model(cvars):
    indices = np.arange(len(GRID))
    times = np.frombuffer(
        kernel(cvars, GRID.kernel_columns(indices, BENCH_COLUMN_FIELDS),
               len(GRID)),
        dtype=np.float64,
    )
    for index in indices.tolist():
        fields = GRID.assignment_at(index)
        expected = np.float64(scalar_time(cvars, **fields))
        assert times[index].tobytes() == expected.tobytes(), (index, fields)


def test_column_forms_give_identical_bytes():
    """Pairs, bare arrays, and constant fields as scalars: one slice
    (4 threads, θ = 4) three ways, plus the whole grid as pairs and as
    arrays."""
    cvars = CVARS[0]
    indices = np.arange(len(GRID))
    whole = kernel(
        cvars, GRID.kernel_columns(indices, BENCH_COLUMN_FIELDS), len(GRID)
    )
    assert kernel(cvars, as_arrays(indices), len(GRID)) == whole

    codes = GRID.axis_codes_for_indices(indices)
    part = indices[
        (codes["n_threads"] == GRID.axes["n_threads"].index(4))
        & (codes["theta"] == GRID.axes["theta"].index(4))
    ]
    pairs = GRID.kernel_columns(part, BENCH_COLUMN_FIELDS)
    arrays = as_arrays(part)
    scalars = dict(arrays, n_threads=4, theta=4)
    out = kernel(cvars, pairs, len(part))
    assert kernel(cvars, arrays, len(part)) == out
    assert kernel(cvars, scalars, len(part)) == out
    # ...and the slice equals the same points of the whole grid.
    assert out == np.frombuffer(whole, dtype=np.float64)[part].tobytes()


@pytest.mark.parametrize("approach", ["pt2pt_many", "pt2pt_part"])
def test_zcopy_single_vci_keeps_its_regime_per_compute_class(approach):
    """256 KiB over 4 threads x θ 4 is 16 KiB zcopy messages on one
    VCI.  Without a compute model the lock queue saturates; with one
    (γ = 1e-6 us/MB, a 16 fs delay) it does not, which costs ~40%
    less.  The two points share a geometry key, so the key
    must carry the compute class: each keeps its own regime, in one
    batch and in either order."""
    cvars = Cvars()
    geometry = dict(approach=approach, total_bytes=262144, n_threads=4,
                    theta=4)
    idle = scalar_time(cvars, **geometry)
    busy = scalar_time(cvars, gamma_us_per_mb=1e-6, **geometry)
    assert busy < 0.7 * idle  # the saturated regime is the slow one
    for gammas in ([0.0, 1e-6], [1e-6, 0.0], [0.0, 1e-6, 0.0, 1e-6]):
        columns = dict(geometry, gamma_us_per_mb=np.array(gammas))
        times = bench_times_from_columns(
            MELUXINA, cvars.num_vcis, cvars.vci_method, cvars.part_aggr_size,
            columns, len(gammas),
        )
        expected = [idle if gamma == 0.0 else busy for gamma in gammas]
        assert times.tobytes() == np.array(expected).tobytes()
