"""The analytic model's hand-set corrections have one source.

Every calibrated shape factor of the closed form is a named constant of
:mod:`repro.model.approaches`, read by the scalar bench and pattern
predictors and by their vector twins in :mod:`repro.model.vector`.
Moving one constant must move every evaluator alike: scalar and vector
stay bitwise equal, and the points the correction calibrates change.
A literal copied into one evaluator would either stay put (no point
moves) or split the scalar from the vector result.
"""

import numpy as np
import pytest

from repro.apps import PatternConfig
from repro.bench import BenchSpec
from repro.model import approaches
from repro.model.approaches import predict_bench_time
from repro.model.patterns import predict_pattern_time
from repro.model.vector import (
    BENCH_COLUMN_FIELDS,
    PATTERN_COLUMN_FIELDS,
    bench_times_from_columns,
    pattern_times_from_columns,
)
from repro.mpi import Cvars


def _part(kib: int, aggr: int) -> BenchSpec:
    """A Fig. 7 point: ``pt2pt_part``, 4 threads × θ = 32 partitions."""
    return BenchSpec(
        approach="pt2pt_part", total_bytes=kib << 10, n_threads=4,
        theta=32, iterations=3, cvars=Cvars(part_aggr_size=aggr),
    )


BENCH_POINTS = [
    # Fig. 7's aggr=16384 points: 8, 16 and 32 zcopy messages of 16 KiB,
    # on the queue-feedback ramp.
    _part(128, 16384),
    _part(256, 16384),
    _part(512, 16384),
    # 8 × 128 KiB zcopy messages from one thread: a wire slot of ≈ 1.9
    # handshake RTTs, inside the hump window.
    BenchSpec(
        approach="pt2pt_many", total_bytes=1 << 20, n_threads=1, theta=8,
        iterations=3,
    ),
    # 128 × 2 KiB eager messages on the comm VCI: the stagger.
    _part(256, 0),
    # The same messages round-robin over 4 VCIs: four delivering lanes
    # on the receiver's completion counter.
    BenchSpec(
        approach="pt2pt_part", total_bytes=256 << 10, n_threads=4,
        theta=32, iterations=3,
        cvars=Cvars(num_vcis=4, vci_method="tag_rr"),
    ),
]

PATTERN_POINTS = [
    PatternConfig(pattern=name, approach="pt2pt_part")
    for name in ("halo3d", "fft", "sweep3d")
]

#: (constant, probe value, whether the pattern model reads it).  The
#: ramp divisor's probe is 3.0, the value ROADMAP item 2 probed; the
#: others step far enough to move at least one probe point.
CORRECTIONS = [
    ("ZCOPY_RAMP_DIVISOR", 3.0, True),
    ("ZCOPY_QUEUE_RTT_SHARE", 0.6, True),
    ("ZCOPY_HUMP_MIN_RTT", 2.0, False),
    ("ZCOPY_HUMP_MAX_RTT", 1.5, False),
    ("ZCOPY_HUMP_ONSET", 8, False),
    ("COMM_VCI_STAGGER", 0.6, False),
    ("COMPLETION_PEAK_DIVISOR", 4.0, False),
]


def _bench_times():
    scalar = np.array([predict_bench_time(s).time for s in BENCH_POINTS])
    vector = np.concatenate([
        bench_times_from_columns(
            s.params, s.cvars.num_vcis, s.cvars.vci_method,
            s.cvars.part_aggr_size,
            {name: getattr(s, name) for name in BENCH_COLUMN_FIELDS}, 1,
        )
        for s in BENCH_POINTS
    ])
    return scalar, vector


def _pattern_times():
    scalar = np.array([predict_pattern_time(c).time for c in PATTERN_POINTS])
    c = PATTERN_POINTS[0]
    vector = pattern_times_from_columns(
        c.params, c.cvars.num_vcis, c.cvars.part_aggr_size,
        {
            name: np.array([getattr(c, name) for c in PATTERN_POINTS])
            for name in PATTERN_COLUMN_FIELDS
        },
        len(PATTERN_POINTS),
    ).times
    return scalar, vector


def test_every_correction_is_probed():
    named = {
        name for name, value in vars(approaches).items()
        if name.isupper() and isinstance(value, (int, float))
    }
    assert named == {name for name, _, _ in CORRECTIONS}


@pytest.mark.parametrize(
    "name, value, moves_patterns", CORRECTIONS,
    ids=[name for name, _, _ in CORRECTIONS],
)
def test_one_edit_moves_every_evaluator(
    monkeypatch, name, value, moves_patterns
):
    bench_before, _ = _bench_times()
    pattern_before, _ = _pattern_times()
    monkeypatch.setattr(approaches, name, value)
    bench_scalar, bench_vector = _bench_times()
    pattern_scalar, pattern_vector = _pattern_times()

    assert bench_scalar.tobytes() == bench_vector.tobytes()
    assert pattern_scalar.tobytes() == pattern_vector.tobytes()
    assert (bench_scalar != bench_before).any()
    assert (pattern_scalar != pattern_before).any() == moves_patterns
