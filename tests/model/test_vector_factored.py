"""The pattern kernel factored over link configurations.

:func:`~repro.model.vector.pattern_times_from_columns` evaluates its
link-level terms once per distinct ``(pattern, n_ranks, n_threads,
msg_bytes)`` key and gathers them per point; the noise quantum is one
scalar call per distinct noise key.  These tests use a grid where every
link configuration recurs under every noise shape, amplitude, sigma and
compute rate, so each gathered term is shared by many points, and
assert bitwise equality with the scalar model at every point.  The
kernel takes every column form (``(values, codes)`` pairs, bare arrays,
scalars) down one path, so all three give the same bytes.
"""

import numpy as np
import pytest

from repro.apps.base import PatternConfig, build_pattern
from repro.model.approaches import APPROACH_PREDICTORS
from repro.model.patterns import predict_pattern_time
from repro.model.vector import PATTERN_COLUMN_FIELDS, pattern_times_from_columns
from repro.mpi import Cvars
from repro.net import MELUXINA
from repro.runner import ScenarioGrid

GRID = ScenarioGrid(
    "pattern",
    base={"iterations": 1},
    axes={
        "pattern": ["halo3d", "sweep3d", "fft"],
        "approach": sorted(APPROACH_PREDICTORS),
        "n_ranks": [4, 8],
        "n_threads": [2, 3],
        "msg_bytes": [4096, 1 << 20],
        "noise": ["none", "single", "uniform", "gaussian"],
        "noise_us": [0.0, 25.0, 100.0],
        "noise_sigma_us": [0.0, 5.0],
        "compute_us_per_mb": [0.0, 200.0],
    },
    backend="analytic",
)
CVARS = Cvars()


def kernel(columns, n_points):
    batch = pattern_times_from_columns(
        MELUXINA, CVARS.num_vcis, CVARS.part_aggr_size, columns, n_points
    )
    return [column.tobytes() for column in batch.store_columns()]


def as_arrays(indices):
    """Every field of the grid points at ``indices`` as a bare array."""
    codes = GRID.axis_codes_for_indices(indices)
    return {
        name: np.array(GRID.axes[name])[codes[name]]
        for name in PATTERN_COLUMN_FIELDS
    }


@pytest.fixture(scope="module")
def everything():
    indices = np.arange(len(GRID))
    return indices, kernel(GRID.kernel_columns(indices, PATTERN_COLUMN_FIELDS),
                           len(GRID))


def test_every_link_configuration_recurs():
    """48 points (4 shapes x 3 amplitudes x 2 sigmas x 2 rates) per link
    configuration and approach."""
    keys = {}
    for index in range(len(GRID)):
        a = GRID.assignment_at(index)
        key = (a["approach"], a["pattern"], a["n_ranks"], a["n_threads"],
               a["msg_bytes"])
        keys[key] = keys.get(key, 0) + 1
    assert len(keys) == 8 * 3 * 2 * 2 * 2
    assert set(keys.values()) == {48}


def test_bitwise_equal_to_scalar_model(everything):
    indices, (times, bytes_per_iteration, n_links) = everything
    times = np.frombuffer(times, dtype=np.float64)
    bytes_per_iteration = np.frombuffer(bytes_per_iteration, dtype=np.int64)
    n_links = np.frombuffer(n_links, dtype=np.int64)
    patterns = {}
    for index in indices.tolist():
        config = PatternConfig(**GRID.base, **GRID.assignment_at(index))
        geometry = (config.pattern, config.n_ranks, config.n_threads,
                    config.msg_bytes)
        if geometry not in patterns:
            patterns[geometry] = build_pattern(config)
        pattern = patterns[geometry]
        expected = predict_pattern_time(config, pattern).time
        assert times[index].tobytes() == np.float64(expected).tobytes(), (
            index, config
        )
        assert bytes_per_iteration[index] == pattern.bytes_per_iteration()
        assert n_links[index] == len(pattern.links())


def test_column_forms_give_identical_bytes(everything):
    """Pairs, bare arrays, and constant fields as scalars: one batch
    (the 8-rank, 200 us/MB slice) three ways, plus the whole grid as
    pairs and as arrays."""
    indices, whole = everything
    assert kernel(as_arrays(indices), len(indices)) == whole

    codes = GRID.axis_codes_for_indices(indices)
    part = indices[
        (codes["n_ranks"] == GRID.axes["n_ranks"].index(8))
        & (codes["compute_us_per_mb"] == 1)
    ]
    pairs = GRID.kernel_columns(part, PATTERN_COLUMN_FIELDS)
    arrays = as_arrays(part)
    scalars = dict(arrays, n_ranks=8, compute_us_per_mb=200.0)
    out = kernel(pairs, len(part))
    assert kernel(arrays, len(part)) == out
    assert kernel(scalars, len(part)) == out
    # ...and the slice equals the same points of the whole grid.
    for got, full, dtype in zip(out, whole, (np.float64, np.int64, np.int64)):
        assert got == np.frombuffer(full, dtype=dtype)[part].tobytes()
