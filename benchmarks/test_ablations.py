"""Ablation benchmarks for the simulator's modelling choices.

Each ablation switches one mechanism off (or sweeps it) and reports the
headline factor it is responsible for:

* VCI-lock contention model → the Fig. 5 congestion factor;
* shared-counter atomics → the Fig. 6/7 partitioned residual;
* message aggregation bound → the Fig. 7 family;
* first-iteration CTS → warm-up cost (the paper's §5 future work);
* thread-based VCI mapping (MPIX_Stream stand-in) vs round-robin at
  θ > 1 — the paper's "likely to break" prediction, quantified.
"""

import pytest

from repro.bench import BenchSpec, run_benchmark
from repro.mpi import Cvars, VCI_METHOD_TAG_RR, VCI_METHOD_THREAD
from repro.net import MELUXINA


@pytest.fixture
def mean_us(bench_iters):
    """Mean time (us) of one benchmark point at ``bench_iters``."""

    def run(**kw):
        kw.setdefault("iterations", bench_iters)
        return run_benchmark(BenchSpec(**kw)).mean_us

    return run


class TestContentionAblation:
    """Without the contention multiplier, Fig. 5's x30 collapses."""

    def test_contention_model_drives_congestion(self, benchmark, mean_us):
        params_off = MELUXINA.with_updates(
            vci_contention_coeff=0.0, vci_contention_quad=0.0
        )

        def run():
            with_model = mean_us(
                approach="pt2pt_many", total_bytes=1024, n_threads=32
            )
            without = mean_us(
                approach="pt2pt_many", total_bytes=1024, n_threads=32,
                params=params_off,
            )
            return with_model, without

        with_model, without = benchmark(run)
        assert with_model > 4 * without

    def test_single_thread_unaffected_by_contention_model(self, benchmark, mean_us):
        params_off = MELUXINA.with_updates(
            vci_contention_coeff=0.0, vci_contention_quad=0.0
        )

        def run():
            return (
                mean_us(approach="pt2pt_single", total_bytes=1024),
                mean_us(approach="pt2pt_single", total_bytes=1024,
                         params=params_off),
            )

        a, b = benchmark(run)
        assert a == pytest.approx(b, rel=1e-6)


class TestAtomicsAblation:
    """The shared-counter atomics are the Fig. 6 partitioned residual."""

    def test_free_atomics_remove_partitioned_residual(self, benchmark, mean_us):
        cv = Cvars(num_vcis=32, vci_method=VCI_METHOD_TAG_RR)
        params_off = MELUXINA.with_updates(
            atomic_overhead=0.0,
            atomic_bounce_coeff=0.0,
            pready_atomic_bounce=0.0,
        )

        def run():
            with_atomics = mean_us(
                approach="pt2pt_part", total_bytes=1024, n_threads=32,
                cvars=cv,
            )
            without = mean_us(
                approach="pt2pt_part", total_bytes=1024, n_threads=32,
                cvars=cv, params=params_off,
            )
            single = mean_us(
                approach="pt2pt_single", total_bytes=1024, n_threads=32,
                cvars=cv,
            )
            return with_atomics, without, single

        with_atomics, without, single = benchmark(run)
        # The residual shrinks markedly once the counters are free.
        assert (without / single) < 0.6 * (with_atomics / single)


class TestAggregationSweep:
    """Message count vs aggregation bound (the Fig. 7 mechanism)."""

    @pytest.mark.parametrize("aggr", [0, 512, 4096, 1 << 20])
    def test_aggregation_bound(self, benchmark, aggr, mean_us):
        time_us = benchmark.pedantic(
            mean_us,
            kwargs=dict(
                approach="pt2pt_part",
                total_bytes=2048,
                n_threads=4,
                theta=32,
                cvars=Cvars(part_aggr_size=aggr),
            ),
            rounds=1,
            iterations=1,
        )
        baseline = mean_us(
            approach="pt2pt_part", total_bytes=2048, n_threads=4, theta=32
        )
        if aggr == 0:
            assert time_us == pytest.approx(baseline, rel=1e-6)
        else:
            assert time_us < baseline


class TestFirstIterationCts:
    """§5 future work: dropping the first-iteration handshake."""

    def test_skip_cts_cuts_first_iteration(self, benchmark):
        def first_iter_time(skip):
            spec = BenchSpec(
                approach="pt2pt_part",
                total_bytes=4096,
                n_threads=4,
                iterations=1,
                warmup=0,  # keep the first (normally discarded) iteration
                cvars=Cvars(part_skip_first_cts=skip),
            )
            return run_benchmark(spec).times[0]

        t_with, t_skip = benchmark(
            lambda: (first_iter_time(False), first_iter_time(True))
        )
        assert t_skip < t_with


class TestThreadVciMapping:
    """θ > 1 breaks the round-robin thread assumption (§3.2.2): the
    MPIX_Stream-style thread mapping recovers the lost locality."""

    def test_thread_mapping_beats_round_robin_at_theta_gt_1(
        self, benchmark, mean_us
    ):
        kw = dict(
            approach="pt2pt_part",
            total_bytes=16384,
            n_threads=8,
            theta=4,
        )

        def run():
            rr = mean_us(
                cvars=Cvars(num_vcis=8, vci_method=VCI_METHOD_TAG_RR), **kw
            )
            thread = mean_us(
                cvars=Cvars(num_vcis=8, vci_method=VCI_METHOD_THREAD), **kw
            )
            return rr, thread

        rr, thread = benchmark(run)
        # Round-robin spreads one thread's partitions over many VCIs,
        # re-introducing sharing; the explicit mapping avoids it.
        assert thread <= rr * 1.05
