"""Whole-system determinism: identical seeds produce identical runs."""

from repro import telemetry
from repro.bench import BenchSpec, run_benchmark
from repro.mpi import Cvars, MPIWorld, VCI_METHOD_TAG_RR


def test_benchmark_bitwise_reproducible():
    spec = BenchSpec(
        approach="pt2pt_part",
        total_bytes=1 << 16,
        n_threads=8,
        theta=2,
        iterations=5,
        cvars=Cvars(num_vcis=4, vci_method=VCI_METHOD_TAG_RR,
                    part_aggr_size=4096),
        gamma_us_per_mb=50.0,
        seed=11,
    )
    a = run_benchmark(spec)
    b = run_benchmark(spec)
    assert a.times == b.times
    assert a.mean == b.mean


def test_all_approaches_reproducible():
    from repro.bench import APPROACHES

    for name in APPROACHES:
        spec = BenchSpec(approach=name, total_bytes=4096, n_threads=2,
                         iterations=3, seed=5)
        assert run_benchmark(spec).times == run_benchmark(spec).times, name


def test_trace_is_reproducible():
    def run_world():
        records = []
        previous = telemetry.set_trace_sink(records.append)
        try:
            world = MPIWorld(n_ranks=2, seed=9)
        finally:
            telemetry.set_trace_sink(previous)

        def sender(world):
            comm = world.comm_world(0)
            for tag in range(5):
                yield from comm.send(dest=1, tag=tag, nbytes=512 << tag)

        def receiver(world):
            comm = world.comm_world(1)
            for tag in range(5):
                yield from comm.recv(source=0, tag=tag, nbytes=512 << tag)

        world.launch(0, sender(world))
        world.launch(1, receiver(world))
        world.run()
        return [(r.time, r.category, r.event) for r in records]

    assert run_world() == run_world()


def test_event_count_reproducible():
    def packets():
        world = MPIWorld(n_ranks=2, seed=1)

        def sender(world):
            comm = world.comm_world(0)
            req = yield from comm.psend_init(dest=1, tag=1, partitions=8,
                                             nbytes=1 << 16)
            yield from req.start()
            for p in range(8):
                yield from req.pready(p)
            yield from req.wait()

        def receiver(world):
            comm = world.comm_world(1)
            req = yield from comm.precv_init(source=0, tag=1, partitions=8,
                                             nbytes=1 << 16)
            yield from req.start()
            yield from req.wait()

        world.launch(0, sender(world))
        world.launch(1, receiver(world))
        world.run()
        return world.fabric.packets_sent, world.fabric.bytes_sent

    assert packets() == packets()


def test_final_clock_reproducible_under_noise():
    """Even with Gaussian noise the seeded streams make time exact."""
    def final_time(seed):
        spec = BenchSpec(
            approach="pt2pt_many",
            total_bytes=1 << 18,
            n_threads=4,
            iterations=4,
            gaussian_mu_us_per_mb=100.0,
            gaussian_epsilon=0.5,
            seed=seed,
        )
        return run_benchmark(spec).mean

    assert final_time(2) == final_time(2)
    assert final_time(2) != final_time(3)
