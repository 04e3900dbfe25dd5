"""RMA tests: windows, puts, passive and active synchronization."""

import numpy as np
import pytest

from repro.mpi import (
    Cvars,
    LOCK_EXCLUSIVE,
    MODE_NOCHECK,
    MPIWorld,
    RmaSyncError,
)
from repro.mpi.rma import win_create


def make_world(**kw):
    kw.setdefault("cvars", Cvars(verify_payloads=True))
    return MPIWorld(n_ranks=2, **kw)


class TestWindowCreation:
    def test_win_ids_match_across_ranks(self):
        world = make_world()

        def proc(world, rank):
            comm = world.comm_world(rank)
            w1 = yield from win_create(comm, 64)
            w2 = yield from win_create(comm, 64)
            return (w1.win_id, w2.win_id)

        p0 = world.launch(0, proc(world, 0))
        p1 = world.launch(1, proc(world, 1))
        world.run()
        assert p0.value == p1.value
        assert p0.value[0] != p0.value[1]

    def test_windows_map_to_vcis_by_id(self):
        world = make_world(cvars=Cvars(num_vcis=4, verify_payloads=True))

        def proc(world, rank):
            comm = world.comm_world(rank)
            wins = []
            for _ in range(4):
                wins.append((yield from win_create(comm, 64)))
            return [w.vci for w in wins]

        p0 = world.launch(0, proc(world, 0))
        world.launch(1, proc(world, 1))
        world.run()
        assert len(set(p0.value)) == 4


class TestPassive:
    def test_put_flush_delivers(self):
        world = make_world()
        target_buf = np.zeros(64, dtype=np.uint8)
        data = np.arange(64, dtype=np.uint8)

        def origin(world):
            comm = world.comm_world(0)
            win = yield from win_create(comm, 64)
            yield from win.lock(1, assertion=MODE_NOCHECK)
            yield from win.put(1, 0, 64, data)
            yield from win.flush(1)
            yield from comm.send(dest=1, tag=1, nbytes=0)
            yield from win.unlock(1, assertion=MODE_NOCHECK)

        def target(world):
            comm = world.comm_world(1)
            yield from win_create(comm, 64, target_buf)
            yield from comm.recv(source=0, tag=1, nbytes=0)
            # The flushed put has landed by the time the notice arrives.
            return target_buf.copy()

        world.launch(0, origin(world))
        p = world.launch(1, target(world))
        world.run()
        assert (p.value == data).all()
        assert (target_buf == data).all()

    def test_put_at_offset(self):
        world = make_world()
        target_buf = np.zeros(64, dtype=np.uint8)

        def origin(world):
            comm = world.comm_world(0)
            win = yield from win_create(comm, 64)
            yield from win.lock(1, assertion=MODE_NOCHECK)
            yield from win.put(1, 16, 16, np.full(16, 9, np.uint8))
            yield from win.flush(1)
            yield from comm.send(dest=1, tag=1, nbytes=0)

        def target(world):
            comm = world.comm_world(1)
            yield from win_create(comm, 64, target_buf)
            yield from comm.recv(source=0, tag=1, nbytes=0)

        world.launch(0, origin(world))
        world.launch(1, target(world))
        world.run()
        assert (target_buf[16:32] == 9).all()
        assert (target_buf[:16] == 0).all() and (target_buf[32:] == 0).all()

    def test_put_outside_epoch_raises(self):
        world = make_world()

        def origin(world):
            comm = world.comm_world(0)
            win = yield from win_create(comm, 64)
            with pytest.raises(RmaSyncError):
                yield from win.put(1, 0, 8)

        def target(world):
            yield from win_create(world.comm_world(1), 64)

        world.launch(0, origin(world))
        world.launch(1, target(world))
        world.run()

    def test_put_beyond_window_raises(self):
        world = make_world()

        def origin(world):
            comm = world.comm_world(0)
            win = yield from win_create(comm, 64)
            yield from win.lock(1, assertion=MODE_NOCHECK)
            with pytest.raises(RmaSyncError):
                yield from win.put(1, 60, 16)

        def target(world):
            yield from win_create(world.comm_world(1), 64)

        world.launch(0, origin(world))
        world.launch(1, target(world))
        world.run()

    def test_double_lock_raises(self):
        world = make_world()

        def origin(world):
            comm = world.comm_world(0)
            win = yield from win_create(comm, 64)
            yield from win.lock(1, assertion=MODE_NOCHECK)
            with pytest.raises(RmaSyncError):
                yield from win.lock(1, assertion=MODE_NOCHECK)

        def target(world):
            yield from win_create(world.comm_world(1), 64)

        world.launch(0, origin(world))
        world.launch(1, target(world))
        world.run()

    def test_real_exclusive_lock_round_trip(self):
        world = make_world()
        buf = np.zeros(8, dtype=np.uint8)

        def origin(world):
            comm = world.comm_world(0)
            win = yield from win_create(comm, 8)
            yield from win.lock(1, LOCK_EXCLUSIVE)
            yield from win.put(1, 0, 8, np.full(8, 3, np.uint8))
            yield from win.unlock(1)
            yield from comm.send(dest=1, tag=1, nbytes=0)

        def target(world):
            comm = world.comm_world(1)
            yield from win_create(comm, 8, buf)
            yield from comm.recv(source=0, tag=1, nbytes=0)

        world.launch(0, origin(world))
        world.launch(1, target(world))
        world.run()
        assert (buf == 3).all()

    def test_nocheck_lock_has_no_wire_traffic(self):
        world = make_world()

        def origin(world):
            comm = world.comm_world(0)
            win = yield from win_create(comm, 8)
            before = world.fabric.packets_sent
            yield from win.lock(1, assertion=MODE_NOCHECK)
            return world.fabric.packets_sent - before

        def target(world):
            yield from win_create(world.comm_world(1), 8)

        p = world.launch(0, origin(world))
        world.launch(1, target(world))
        world.run()
        assert p.value == 0


class TestActive:
    def test_pscw_round_trip(self):
        world = make_world()
        buf = np.zeros(32, dtype=np.uint8)
        data = np.arange(32, dtype=np.uint8)

        def origin(world):
            comm = world.comm_world(0)
            win = yield from win_create(comm, 32)
            yield from win.start([1])
            yield from win.put(1, 0, 32, data)
            yield from win.complete()

        def target(world):
            comm = world.comm_world(1)
            win = yield from win_create(comm, 32, buf)
            yield from win.post([0])
            yield from win.wait()
            return world.env.now

        world.launch(0, origin(world))
        p = world.launch(1, target(world))
        world.run()
        assert (buf == data).all()
        assert p.value > 0

    def test_pscw_reusable_across_iterations(self):
        world = make_world()
        buf = np.zeros(16, dtype=np.uint8)
        seen = []

        def origin(world):
            comm = world.comm_world(0)
            win = yield from win_create(comm, 16)
            for i in range(3):
                yield from win.start([1])
                yield from win.put(1, 0, 16, np.full(16, i + 1, np.uint8))
                yield from win.complete()

        def target(world):
            comm = world.comm_world(1)
            win = yield from win_create(comm, 16, buf)
            for _ in range(3):
                yield from win.post([0])
                yield from win.wait()
                seen.append(int(buf[0]))

        world.launch(0, origin(world))
        world.launch(1, target(world))
        world.run()
        assert seen == [1, 2, 3]

    def test_start_blocks_until_post(self):
        world = make_world()

        def origin(world):
            comm = world.comm_world(0)
            win = yield from win_create(comm, 8)
            yield from win.start([1])
            return world.env.now

        def target(world):
            comm = world.comm_world(1)
            win = yield from win_create(comm, 8)
            yield world.env.timeout(200e-6)
            yield from win.post([0])
            yield from win.wait()

        p = world.launch(0, origin(world))
        t = world.launch(1, target(world))
        world.launch(0, _completer(world, p, t))
        world.run()
        assert p.value > 200e-6

    def test_complete_without_start_raises(self):
        world = make_world()

        def origin(world):
            comm = world.comm_world(0)
            win = yield from win_create(comm, 8)
            with pytest.raises(RmaSyncError):
                yield from win.complete()

        def target(world):
            yield from win_create(world.comm_world(1), 8)

        world.launch(0, origin(world))
        world.launch(1, target(world))
        world.run()

    def test_wait_without_post_raises(self):
        world = make_world()

        def origin(world):
            yield from win_create(world.comm_world(0), 8)

        def target(world):
            win = yield from win_create(world.comm_world(1), 8)
            with pytest.raises(RmaSyncError):
                yield from win.wait()

        world.launch(0, origin(world))
        world.launch(1, target(world))
        world.run()


def _completer(world, origin_proc, target_proc):
    """Close the PSCW epoch so the target's wait() terminates."""
    yield origin_proc
    win = world.rank(0).rma_windows[0]
    yield from win.put(1, 0, 8)
    yield from win.complete()
