"""Tests for the approach implementations against Tables 1 and 2."""

import pytest

from repro.bench import APPROACHES, BenchSpec
from repro.bench.approaches import ApproachConfig
from repro.figures.tables import TABLE1_SENDER, TABLE2_RECEIVER
from repro.net import PacketKind


class TestConfig:
    def test_partition_geometry(self):
        cfg = ApproachConfig(total_bytes=1024, n_threads=4, theta=2)
        assert cfg.n_parts == 8
        assert cfg.part_bytes == 128
        assert list(cfg.partitions_of(0)) == [0, 1]
        assert list(cfg.partitions_of(3)) == [6, 7]

    def test_indivisible_total_rejected(self):
        with pytest.raises(ValueError):
            ApproachConfig(total_bytes=1000, n_threads=3, theta=1)

    def test_too_small_total_rejected(self):
        with pytest.raises(ValueError):
            ApproachConfig(total_bytes=2, n_threads=4, theta=1)


class TestRegistry:
    def test_all_eight_paper_approaches_registered(self):
        assert set(APPROACHES) == {
            "pt2pt_single",
            "pt2pt_many",
            "pt2pt_part",
            "pt2pt_part_old",
            "rma_single_passive",
            "rma_many_passive",
            "rma_single_active",
            "rma_many_active",
        }

    def test_registry_matches_tables(self):
        """Every Table-1/2 approach exists (tables fold old into part)."""
        for name in TABLE1_SENDER:
            assert name in APPROACHES
        for name in TABLE2_RECEIVER:
            assert name in APPROACHES

    def test_labels_match_paper_legends(self):
        assert APPROACHES["pt2pt_part"].label == "Pt2Pt part"
        assert APPROACHES["pt2pt_part_old"].label == "Pt2Pt part - old"
        assert APPROACHES["rma_many_passive"].label == "RMA many - passive"


def _wire_counts(name, **kw):
    kw.setdefault("total_bytes", 2048)
    kw.setdefault("n_threads", 2)
    kw.setdefault("iterations", 2)
    spec = BenchSpec(approach=name, **kw)
    # Reach into a single run's world to inspect traffic.
    from repro.bench import build_world
    from repro.bench.approaches import ApproachConfig
    from repro.bench.harness import _Recorder, _receiver_thread, _sender_thread
    from repro.threads import ThreadTeam

    world = build_world(spec)
    cfg = ApproachConfig(spec.total_bytes, spec.n_threads, spec.theta)
    approach = APPROACHES[name](world, cfg)
    total = spec.iterations + spec.warmup
    rec = _Recorder(total, spec.n_threads)
    s_team = ThreadTeam(world.env, spec.n_threads)
    r_team = ThreadTeam(world.env, spec.n_threads)
    compute = spec.compute_model()
    for tid in range(spec.n_threads):
        world.launch(0, _sender_thread(world, approach, s_team, compute,
                                       rec, tid, total))
        world.launch(1, _receiver_thread(world, approach, r_team, rec, tid,
                                         total))
    world.run()
    return world


class TestWireBehaviour:
    def test_single_sends_one_message_per_iteration(self):
        world = _wire_counts("pt2pt_single", iterations=3)
        # 4 total iterations (1 warmup); barriers also use eager 0B msgs.
        eager = world.rank(0).tx_counters[PacketKind.EAGER]
        barrier_msgs = 4  # one per iteration from rank 0
        assert eager == 4 + barrier_msgs

    def test_many_sends_one_message_per_partition(self):
        world = _wire_counts("pt2pt_many", n_threads=2, iterations=2)
        eager = world.rank(0).tx_counters[PacketKind.EAGER]
        assert eager == 3 * 2 + 3  # (iters+warmup)*partitions + barriers

    def test_part_uses_tag_path_not_am(self):
        world = _wire_counts("pt2pt_part")
        assert world.rank(0).tx_counters.get(PacketKind.AM) is None

    def test_part_old_uses_am_path(self):
        world = _wire_counts("pt2pt_part_old")
        assert world.rank(0).tx_counters.get(PacketKind.AM, 0) > 0

    def test_rma_passive_puts_and_ctrl(self):
        world = _wire_counts("rma_single_passive", n_threads=2, iterations=2)
        rt0 = world.rank(0)
        # One put per partition per iteration.
        assert rt0.tx_counters[PacketKind.RMA_PUT] == 3 * 2
        # Flush requests travel as RMA_CTRL.
        assert rt0.tx_counters[PacketKind.RMA_CTRL] >= 3

    def test_rma_active_tokens(self):
        world = _wire_counts("rma_single_active", n_threads=2, iterations=2)
        rt1 = world.rank(1)
        # One post token per iteration from the receiver.
        assert rt1.tx_counters[PacketKind.RMA_CTRL] == 3

    def test_rma_many_creates_window_per_thread(self):
        world = _wire_counts("rma_many_passive", n_threads=2)
        assert len(world.rank(0).rma_windows) == 2
        assert len(world.rank(1).rma_windows) == 2

    def test_rma_single_creates_one_window(self):
        world = _wire_counts("rma_single_passive", n_threads=2)
        assert len(world.rank(1).rma_windows) == 1
