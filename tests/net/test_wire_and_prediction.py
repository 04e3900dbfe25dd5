"""Wire queueing, per-protocol timing predictions, and NIC counters."""

import pytest

from repro import telemetry
from repro.bench import BenchSpec, run_benchmark
from repro.model import predict_bench_time
from repro.mpi import MPIWorld
from repro.net import MELUXINA


class TestWireStats:
    def test_wire_queueing_recorded_under_load(self):
        """Concurrent senders on distinct VCIs collide on the shared wire."""
        from repro.mpi import Cvars

        def sender(world, tid):
            comm = world.comm_world(0)
            mine = yield from comm.dup(key=tid)
            yield from mine.send(dest=1, tag=tid, nbytes=8192)

        def receiver(world, tid):
            comm = world.comm_world(1)
            mine = yield from comm.dup(key=tid)
            yield from mine.recv(source=0, tag=tid, nbytes=8192)

        records = []
        previous = telemetry.set_trace_sink(records.append)
        try:
            world = MPIWorld(n_ranks=2, cvars=Cvars(num_vcis=4))
            for tid in range(4):
                world.launch(0, sender(world, tid))
                world.launch(1, receiver(world, tid))
            world.run()
        finally:
            telemetry.set_trace_sink(previous)
        # One record per packet as it leaves the 0 -> 1 wire.
        leave = [r.time for r in records
                 if (r.category, r.event) == ("fabric", "wire")
                 and " 0->1 " in r.fields["pkt"]]
        assert len(leave) == 4
        # Simultaneous injections queue behind each other on the wire.
        gaps = [b - a for a, b in zip(leave, leave[1:])]
        assert min(gaps) >= MELUXINA.wire_time(8192) * (1 - 1e-9)

    def test_vci_counters(self):
        world = MPIWorld(n_ranks=2)

        def sender(world):
            comm = world.comm_world(0)
            yield from comm.send(dest=1, tag=0, nbytes=64)

        def receiver(world):
            yield from world.comm_world(1).recv(source=0, tag=0, nbytes=64)

        world.launch(0, sender(world))
        world.launch(1, receiver(world))
        world.run()
        assert world.rank(0).nic.vcis[0].tx_count == 1
        assert world.rank(1).nic.vcis[0].rx_count == 1


class TestPredictionAgainstSimulator:
    """The scalar oracle `predict_bench_time` must track the simulator
    per protocol: exactly on the eager paths, within 1% on zcopy."""

    @pytest.mark.parametrize("nbytes", [64, 512, 1024])
    def test_short_protocol(self, nbytes):
        self._check(nbytes)

    @pytest.mark.parametrize("nbytes", [2048, 4096, 8192])
    def test_bcopy_protocol(self, nbytes):
        self._check(nbytes)

    @pytest.mark.parametrize("nbytes", [16384, 1 << 17, 1 << 21])
    def test_zcopy_protocol(self, nbytes):
        self._check(nbytes, rel=0.01)

    @staticmethod
    def _check(nbytes, rel=1e-9):
        spec = BenchSpec(approach="pt2pt_single", total_bytes=nbytes,
                         iterations=3)
        predicted = predict_bench_time(spec).time
        measured = run_benchmark(spec).mean
        assert measured == pytest.approx(predicted, rel=rel), (
            f"{nbytes} B: predicted {predicted * 1e6:.3f} us, "
            f"measured {measured * 1e6:.3f} us"
        )
