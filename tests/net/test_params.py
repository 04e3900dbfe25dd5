"""Unit tests for the system parameter model."""

import pytest

from repro.net import MELUXINA, Protocol, SystemParams


def test_meluxina_headline_numbers():
    assert MELUXINA.bandwidth == 25e9
    assert MELUXINA.latency == pytest.approx(1.22e-6)


def test_protocol_ladder_thresholds():
    p = MELUXINA
    assert p.protocol_for(1) is Protocol.SHORT
    assert p.protocol_for(1024) is Protocol.SHORT
    assert p.protocol_for(1025) is Protocol.BCOPY
    assert p.protocol_for(2048) is Protocol.BCOPY
    assert p.protocol_for(8192) is Protocol.BCOPY
    assert p.protocol_for(8193) is Protocol.ZCOPY
    assert p.protocol_for(16384) is Protocol.ZCOPY
    assert p.protocol_for(1 << 24) is Protocol.ZCOPY


def test_paper_protocol_jumps_land_in_reported_windows():
    """The paper observes short->bcopy between 1024 and 2048 B and
    bcopy->zcopy between 8192 and 16384 B (Fig. 4)."""
    p = MELUXINA
    assert p.protocol_for(1024) != p.protocol_for(2048)
    assert p.protocol_for(8192) != p.protocol_for(16384)


def test_wire_time_scales_with_bytes():
    p = MELUXINA
    small = p.wire_time(0)
    big = p.wire_time(10**6)
    assert big > small
    assert big - small == pytest.approx((10**6) / p.bandwidth)


def test_wire_time_includes_gap_and_header():
    p = MELUXINA
    assert p.wire_time(0) == pytest.approx(p.wire_gap + p.header_bytes / p.bandwidth)


def test_copy_time():
    p = MELUXINA
    assert p.copy_time(p.copy_bandwidth) == pytest.approx(1.0)
    assert p.copy_time(0) == 0.0


def test_barrier_time_log_growth():
    p = MELUXINA
    assert p.barrier_time(1) == 0.0
    assert p.barrier_time(2) == pytest.approx(p.thread_barrier_base)
    assert p.barrier_time(32) == pytest.approx(5 * p.thread_barrier_base)
    assert p.barrier_time(33) == pytest.approx(6 * p.thread_barrier_base)


def test_atomic_time_contention():
    p = MELUXINA
    assert p.atomic_time(1) == pytest.approx(p.atomic_overhead)
    assert p.atomic_time(4) == pytest.approx(
        p.atomic_overhead + 3 * p.atomic_bounce_coeff
    )


def test_with_updates_returns_new_instance():
    p = MELUXINA.with_updates(bandwidth=1e9)
    assert p.bandwidth == 1e9
    assert MELUXINA.bandwidth == 25e9


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(bandwidth=0)
    with pytest.raises(ValueError):
        SystemParams(latency=-1)
    with pytest.raises(ValueError):
        SystemParams(short_max=4096, eager_max=1024)


def test_describe_contains_all_fields():
    d = MELUXINA.describe()
    assert d["bandwidth"] == 25e9
    assert "vci_contention_coeff" in d
