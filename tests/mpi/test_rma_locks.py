"""Concurrency semantics of real (non-NOCHECK) RMA locks."""

import numpy as np

from repro.mpi import (
    Cvars,
    LOCK_EXCLUSIVE,
    LOCK_SHARED,
    MPIWorld,
)
from repro.mpi.rma import _LockManager, win_create


class TestLockManager:
    def test_exclusive_blocks_everything(self):
        mgr = _LockManager()
        mgr.grant(0, LOCK_EXCLUSIVE)
        assert not mgr.can_grant(LOCK_SHARED)
        assert not mgr.can_grant(LOCK_EXCLUSIVE)

    def test_shared_allows_shared_blocks_exclusive(self):
        mgr = _LockManager()
        mgr.grant(0, LOCK_SHARED)
        assert mgr.can_grant(LOCK_SHARED)
        assert not mgr.can_grant(LOCK_EXCLUSIVE)

    def test_release_grants_queued_in_order(self):
        mgr = _LockManager()
        mgr.grant(0, LOCK_EXCLUSIVE)
        mgr.queue.append((1, LOCK_SHARED, 0))
        mgr.queue.append((2, LOCK_SHARED, 0))
        mgr.queue.append((3, LOCK_EXCLUSIVE, 0))
        granted = mgr.release(0)
        # Both shared grants flow; the exclusive stays queued.
        assert [g[0] for g in granted] == [1, 2]
        assert mgr.queue == [(3, LOCK_EXCLUSIVE, 0)]

    def test_empty_release_grants_nothing(self):
        mgr = _LockManager()
        mgr.grant(0, LOCK_SHARED)
        assert mgr.release(0) == []


class TestExclusiveSerialization:
    def test_two_origins_serialize_on_exclusive_lock(self):
        """Three ranks: 1 and 2 both take an exclusive lock on rank 0's
        window; their epochs must not overlap."""
        world = MPIWorld(n_ranks=3, cvars=Cvars(verify_payloads=True))
        buf = np.zeros(8, dtype=np.uint8)
        spans = {}

        def origin(world, rank, hold_us):
            comm = world.comm_world(rank)
            win = yield from win_create(comm, 8)
            yield from win.lock(0, LOCK_EXCLUSIVE)
            t0 = world.env.now
            yield world.env.timeout(hold_us * 1e-6)
            yield from win.put(0, 0, 8, np.full(8, rank, np.uint8))
            yield from win.unlock(0)
            spans[rank] = (t0, world.env.now)

        def target(world):
            comm = world.comm_world(0)
            yield from win_create(comm, 8, buf)

        world.launch(0, target(world))
        world.launch(1, origin(world, 1, 20.0))
        world.launch(2, origin(world, 2, 20.0))
        world.run()
        (a0, a1), (b0, b1) = spans[1], spans[2]
        assert a1 <= b0 or b1 <= a0, f"epochs overlap: {spans}"

    def test_shared_locks_overlap(self):
        world = MPIWorld(n_ranks=3, cvars=Cvars(verify_payloads=True))
        buf = np.zeros(8, dtype=np.uint8)
        spans = {}

        def origin(world, rank):
            comm = world.comm_world(rank)
            win = yield from win_create(comm, 8)
            yield from win.lock(0, LOCK_SHARED)
            t0 = world.env.now
            yield world.env.timeout(20e-6)
            yield from win.unlock(0)
            spans[rank] = (t0, world.env.now)

        def target(world):
            comm = world.comm_world(0)
            yield from win_create(comm, 8, buf)

        world.launch(0, target(world))
        world.launch(1, origin(world, 1))
        world.launch(2, origin(world, 2))
        world.run()
        (a0, a1), (b0, b1) = spans[1], spans[2]
        assert a0 < b1 and b0 < a1, f"shared epochs did not overlap: {spans}"
