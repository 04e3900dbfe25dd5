"""The §3.2.1 tension: aggregation vs ``MPI_Parrived`` granularity.

"The use of MPI_Parrived is in contradiction with message aggregation":
aggregated partitions arrive together, so a partition reads as arrived
only once its whole aggregated message landed.  These tests pin that
semantic.
"""

from repro.mpi import Cvars, MPIWorld


def run_scenario(aggr_size, ready_order, probe_after, n_parts=8,
                 nbytes=8192):
    """Sender readies ``ready_order[:probe_after]`` partitions, then the
    receiver probes all partitions.  Returns the parrived() vector."""
    world = MPIWorld(
        n_ranks=2, cvars=Cvars(part_aggr_size=aggr_size)
    )
    observed = {}

    def sender(world):
        comm = world.comm_world(0)
        req = yield from comm.psend_init(
            dest=1, tag=5, partitions=n_parts, nbytes=nbytes
        )
        yield from req.start()
        for p in ready_order[:probe_after]:
            yield from req.pready(p)
        yield world.env.timeout(50e-6)  # let messages land
        yield from comm.send(dest=1, tag=6, nbytes=0)  # probe signal
        for p in ready_order[probe_after:]:
            yield from req.pready(p)
        yield from req.wait()

    def receiver(world):
        comm = world.comm_world(1)
        req = yield from comm.precv_init(
            source=0, tag=5, partitions=n_parts, nbytes=nbytes
        )
        yield from req.start()
        yield from comm.recv(source=0, tag=6, nbytes=0)
        for p in range(n_parts):
            observed[p] = req.parrived(p)
        yield from req.wait()

    world.launch(0, sender(world))
    world.launch(1, receiver(world))
    world.run()
    return observed


def test_no_aggregation_fine_grained_arrival():
    """Without aggregation each partition is individually visible."""
    obs = run_scenario(aggr_size=0, ready_order=list(range(8)),
                       probe_after=3)
    assert [obs[p] for p in range(8)] == [True] * 3 + [False] * 5


def test_aggregation_coarsens_parrived():
    """With 2-partition aggregation, readying one partition of a pair
    does not make either visible; readying both makes both visible."""
    # 8 partitions of 1 KiB aggregated under 2 KiB -> 4 messages of 2.
    obs = run_scenario(aggr_size=2048, ready_order=[0, 1, 2],
                       probe_after=3)
    # Message 0 = partitions {0,1}: complete -> both arrived.
    assert obs[0] and obs[1]
    # Message 1 = partitions {2,3}: only 2 readied -> nothing arrived.
    assert not obs[2] and not obs[3]
    assert not any(obs[p] for p in range(4, 8))


def test_full_aggregation_is_all_or_nothing():
    obs = run_scenario(aggr_size=1 << 20, ready_order=list(range(8)),
                       probe_after=7)
    # One aggregated message: 7 of 8 partitions ready -> nothing sent.
    assert not any(obs.values())


def test_out_of_order_ready_with_aggregation():
    """Readying partitions of different pairs leaves all pairs
    incomplete; completing one pair exposes exactly that pair."""
    obs = run_scenario(aggr_size=2048, ready_order=[0, 2, 4, 6, 1],
                       probe_after=5)
    # Pair {0,1} completed by the 5th pready; others half-done.
    assert obs[0] and obs[1]
    assert not any(obs[p] for p in (2, 3, 4, 5, 6, 7))
