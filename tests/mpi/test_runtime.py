"""Tests for RankRuntime internals: dispatch, tags, counters, errors."""

from collections import Counter

import pytest

from repro import telemetry
from repro.mpi import Cvars, MPIError, MPIWorld, PART_TAG_BASE
from repro.net import Packet, PacketKind
from repro.sim import NullTracer


def make_world(**kw):
    return MPIWorld(n_ranks=2, **kw)


class TestHandlers:
    def test_duplicate_ctrl_handler_rejected(self):
        rt = make_world().rank(0)
        rt.register_ctrl_handler("x", lambda pkt: None)
        with pytest.raises(MPIError, match="duplicate"):
            rt.register_ctrl_handler("x", lambda pkt: None)

    def test_duplicate_am_handler_rejected(self):
        rt = make_world().rank(0)
        rt.register_am_handler("x", lambda pkt: None)
        with pytest.raises(MPIError, match="duplicate"):
            rt.register_am_handler("x", lambda pkt: None)

    def test_unknown_ctrl_op_raises(self):
        world = make_world()

        def sender(world):
            yield from world.rank(0).post_ctrl(1, "nonexistent-op")

        world.launch(0, sender(world))
        with pytest.raises(MPIError, match="no handler"):
            world.run()

    def test_unknown_am_op_raises(self):
        world = make_world()

        def sender(world):
            yield from world.rank(0).post_ctrl(
                1, "nonexistent-am", kind=PacketKind.AM
            )

        world.launch(0, sender(world))
        with pytest.raises(MPIError, match="no handler"):
            world.run()

    def test_ctrl_handler_receives_packet(self):
        world = make_world()
        got = []
        world.rank(1).register_ctrl_handler("probe", got.append)

        def sender(world):
            yield from world.rank(0).post_ctrl(1, "probe", token=42)

        world.launch(0, sender(world))
        world.run()
        assert len(got) == 1
        assert got[0].header["token"] == 42
        assert got[0].src == 0


class TestPartTags:
    def test_allocation_advances(self):
        rt = make_world().rank(0)
        t1 = rt.alloc_part_tags(1, 8)
        t2 = rt.alloc_part_tags(1, 4)
        assert t1 == PART_TAG_BASE
        assert t2 == PART_TAG_BASE + 8

    def test_per_destination_budgets_independent(self):
        world = MPIWorld(n_ranks=3)
        rt = world.rank(0)
        assert rt.alloc_part_tags(1, 8) == PART_TAG_BASE
        assert rt.alloc_part_tags(2, 8) == PART_TAG_BASE

    def test_exhaustion_returns_none(self):
        world = make_world(cvars=Cvars(part_reserved_tags=10))
        rt = world.rank(0)
        assert rt.alloc_part_tags(1, 8) is not None
        assert rt.alloc_part_tags(1, 8) is None

    def test_request_count_tracked(self):
        rt = make_world().rank(0)
        rt.alloc_part_tags(1, 4)
        rt.alloc_part_tags(1, 4)
        assert rt.part_requests_per_dest[1] == 2


class TestCounters:
    def test_tx_rx_counters_symmetric(self):
        world = make_world()

        def sender(world):
            comm = world.comm_world(0)
            yield from comm.send(dest=1, tag=1, nbytes=64)
            yield from comm.send(dest=1, tag=2, nbytes=64)

        def receiver(world):
            comm = world.comm_world(1)
            yield from comm.recv(source=0, tag=1, nbytes=64)
            yield from comm.recv(source=0, tag=2, nbytes=64)

        world.launch(0, sender(world))
        world.launch(1, receiver(world))
        world.run()
        assert world.rank(0).tx_counters[PacketKind.EAGER] == 2
        assert world.rank(1).rx_counters[PacketKind.EAGER] == 2


class TestTracing:
    def test_world_trace_records_nic_activity(self):
        records = []
        previous = telemetry.set_trace_sink(records.append)
        try:
            world = MPIWorld(n_ranks=2)
        finally:
            telemetry.set_trace_sink(previous)

        def sender(world):
            yield from world.comm_world(0).send(dest=1, tag=1, nbytes=64)

        def receiver(world):
            yield from world.comm_world(1).recv(source=0, tag=1, nbytes=64)

        world.launch(0, sender(world))
        world.launch(1, receiver(world))
        world.run()
        # The world keeps the sink it was built with.
        kinds = Counter((r.category, r.event) for r in records)
        assert kinds["nic", "post"] >= 1
        assert kinds["nic", "recv"] >= 1
        assert kinds["fabric", "wire"] >= 1

    def test_trace_disabled_by_default(self):
        world = make_world()

        def sender(world):
            yield from world.comm_world(0).send(dest=1, tag=1, nbytes=64)

        def receiver(world):
            yield from world.comm_world(1).recv(source=0, tag=1, nbytes=64)

        world.launch(0, sender(world))
        world.launch(1, receiver(world))
        world.run()
        assert isinstance(world.tracer, NullTracer)
        assert not world.tracer.enabled
