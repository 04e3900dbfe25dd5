"""Unit tests for Status, Cvars, and VCI policies."""

import pytest

from repro.mpi import (
    Cvars,
    Status,
    VCI_METHOD_COMM,
    VCI_METHOD_TAG_RR,
    VCI_METHOD_THREAD,
)
from repro.mpi.vci import vci_for_comm, vci_for_partition_message


class TestStatus:
    def test_count(self):
        st = Status(source=1, tag=2, nbytes=64)
        assert st.count() == 64
        assert st.count(8) == 8

    def test_count_invalid_itemsize(self):
        with pytest.raises(ValueError):
            Status(0, 0, 8).count(0)

    def test_frozen(self):
        st = Status(0, 0, 8)
        with pytest.raises(Exception):
            st.nbytes = 9


class TestCvars:
    def test_defaults(self):
        cv = Cvars()
        assert cv.num_vcis == 1
        assert cv.vci_method == VCI_METHOD_COMM
        assert cv.part_aggr_size == 0
        assert not cv.part_force_am

    def test_with_updates(self):
        cv = Cvars().with_updates(num_vcis=8)
        assert cv.num_vcis == 8
        assert Cvars().num_vcis == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            Cvars(num_vcis=0)
        with pytest.raises(ValueError):
            Cvars(vci_method="bogus")
        with pytest.raises(ValueError):
            Cvars(part_aggr_size=-1)
        with pytest.raises(ValueError):
            Cvars(part_reserved_tags=0)


class TestVciPolicies:
    def test_comm_mapping_by_context(self):
        cv = Cvars(num_vcis=4)
        assert vci_for_comm(cv, 0) == 0
        assert vci_for_comm(cv, 5) == 1

    def test_single_vci_always_zero(self):
        cv = Cvars(num_vcis=1)
        for ctx in range(10):
            assert vci_for_comm(cv, ctx) == 0

    def test_tag_rr_round_robin_by_message(self):
        cv = Cvars(num_vcis=4, vci_method=VCI_METHOD_TAG_RR)
        got = [vci_for_partition_message(cv, 0, m) for m in range(8)]
        assert got == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_thread_policy_uses_thread_id(self):
        cv = Cvars(num_vcis=4, vci_method=VCI_METHOD_THREAD)
        assert vci_for_partition_message(cv, 0, 5, thread_id=2) == 2
        assert vci_for_partition_message(cv, 0, 5, thread_id=6) == 2

    def test_thread_policy_falls_back_to_round_robin(self):
        cv = Cvars(num_vcis=4, vci_method=VCI_METHOD_THREAD)
        assert vci_for_partition_message(cv, 0, 5, thread_id=None) == 1

    def test_comm_method_partition_follows_comm(self):
        cv = Cvars(num_vcis=4, vci_method=VCI_METHOD_COMM)
        assert vci_for_partition_message(cv, 3, 7) == 3
