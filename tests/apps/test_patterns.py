"""Pattern framework: topologies, determinism, speedup direction, and the
full approach × noise compatibility matrix."""

import pytest

from repro.apps import (
    PATTERNS,
    Link,
    PatternConfig,
    align_bytes,
    build_pattern,
    run_pattern,
)
from repro.bench import APPROACHES

#: Small-but-real geometry used by the matrix smoke tests.
SMALL = dict(n_ranks=4, n_threads=2, msg_bytes=1 << 14, iterations=2,
             compute_us_per_mb=100.0)


class TestFramework:
    def test_align_bytes(self):
        assert align_bytes(16, 4) == 16
        assert align_bytes(17, 4) == 20
        with pytest.raises(ValueError):
            align_bytes(0, 4)

    def test_link_validation(self):
        with pytest.raises(ValueError):
            Link(src=1, dst=1, nbytes=64, key="self")
        with pytest.raises(ValueError):
            Link(src=0, dst=1, nbytes=0, key="empty")

    def test_registry(self):
        assert set(PATTERNS) == {"halo3d", "sweep3d", "fft"}

    def test_unknown_pattern_rejected(self):
        with pytest.raises(KeyError):
            build_pattern(
                PatternConfig(pattern="ring", **SMALL)
            )

    def test_config_validation(self):
        with pytest.raises(KeyError):
            PatternConfig(pattern="halo3d", approach="carrier-pigeon")
        with pytest.raises(KeyError):
            PatternConfig(pattern="halo3d", noise="pink")
        with pytest.raises(ValueError):
            PatternConfig(pattern="halo3d", n_ranks=1)
        with pytest.raises(ValueError):
            PatternConfig(pattern="halo3d", iterations=0)
        with pytest.raises(ValueError):
            PatternConfig(pattern="halo3d", compute_us_per_mb=-1)


class TestTopologies:
    def test_halo3d_links(self):
        pattern = build_pattern(PatternConfig(pattern="halo3d", n_ranks=8,
                                              n_threads=2, msg_bytes=1 << 12))
        links = pattern.links()
        # 2x2x2 periodic: 6 outgoing faces per rank.
        assert len(links) == 48
        assert len({link.key for link in links}) == 48
        for rank in range(8):
            assert sum(1 for l in links if l.src == rank) == 6
            assert sum(1 for l in links if l.dst == rank) == 6

    def test_halo3d_no_self_links(self):
        # 2 ranks -> 2x1x1 grid: extent-1 dims contribute nothing.
        pattern = build_pattern(PatternConfig(pattern="halo3d", n_ranks=2,
                                              n_threads=2, msg_bytes=1 << 12))
        links = pattern.links()
        assert all(l.src != l.dst for l in links)
        assert len(links) == 4  # +0 and -0 faces, both directions

    def test_sweep3d_wavefront_is_acyclic(self):
        pattern = build_pattern(PatternConfig(pattern="sweep3d", n_ranks=8,
                                              n_threads=2, msg_bytes=1 << 12))
        links = pattern.links()
        # Edges only go "downstream": topological order by coords sum.
        coord_sum = {
            r: sum(pattern.topo.coords(r)) for r in range(8)
        }
        for link in links:
            assert coord_sum[link.dst] == coord_sum[link.src] + 1

    def test_sweep3d_blocking_matches_links(self):
        pattern = build_pattern(PatternConfig(pattern="sweep3d", n_ranks=8,
                                              n_threads=2, msg_bytes=1 << 12))
        keys = {l.key for l in pattern.links()}
        corner_blocking = pattern.blocking_recvs(0)
        assert corner_blocking == []  # the sweep origin never waits
        for rank in range(8):
            for key in pattern.blocking_recvs(rank):
                assert key in keys

    def test_fft_links(self):
        pattern = build_pattern(PatternConfig(pattern="fft", n_ranks=5,
                                              n_threads=2, msg_bytes=1 << 12))
        links = pattern.links()
        assert len(links) == 20  # R*(R-1)
        assert pattern.bytes_per_iteration() == sum(l.nbytes for l in links)

    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_graph_depends_on_ranks_alone(self, name):
        """The `Pattern` contract the analytic kernel's one-build-per-
        (pattern, n_ranks) shape cache relies on."""
        n_ranks = 12
        built = [
            build_pattern(PatternConfig(pattern=name, n_ranks=n_ranks,
                                        n_threads=threads, msg_bytes=size))
            for threads, size in ((1, 1), (7, 65537))
        ]
        graphs = [
            (
                [(l.src, l.dst, l.key) for l in pattern.links()],
                [pattern.blocking_recvs(rank) for rank in range(n_ranks)],
            )
            for pattern in built
        ]
        assert graphs[0] == graphs[1]
        for pattern in built:
            config = pattern.config
            payload = align_bytes(config.msg_bytes, config.n_threads)
            assert {l.nbytes for l in pattern.links()} == {payload}


class TestDeterminism:
    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    def test_same_seed_identical_times(self, pattern):
        config = PatternConfig(pattern=pattern, approach="pt2pt_part",
                               noise="gaussian", noise_us=5.0,
                               noise_sigma_us=1.0, seed=11, **SMALL)
        a = run_pattern(config)
        b = run_pattern(config)
        assert a.times == b.times

    def test_different_seed_differs_under_noise(self):
        base = dict(pattern="halo3d", approach="pt2pt_part",
                    noise="gaussian", noise_us=5.0, noise_sigma_us=2.0,
                    **SMALL)
        a = run_pattern(PatternConfig(seed=1, **base))
        b = run_pattern(PatternConfig(seed=2, **base))
        assert a.times != b.times


class TestSpeedupDirection:
    def test_partitioned_beats_single_on_halo3d(self):
        """The acceptance criterion: overlap-friendly compute -> eta > 1."""
        base = dict(pattern="halo3d", n_ranks=8, n_threads=4,
                    msg_bytes=256 << 10, iterations=5,
                    compute_us_per_mb=200.0)
        part = run_pattern(PatternConfig(approach="pt2pt_part", **base))
        single = run_pattern(PatternConfig(approach="pt2pt_single", **base))
        assert part.mean > 0 and single.mean > 0
        eta = single.mean / part.mean
        assert eta > 1.0, f"expected eta > 1, got {eta:.3f}"


class TestCompatibilityMatrix:
    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    @pytest.mark.parametrize("approach", sorted(APPROACHES))
    def test_pattern_runs_under_approach(self, pattern, approach):
        result = run_pattern(
            PatternConfig(pattern=pattern, approach=approach, **SMALL)
        )
        assert result.mean_us > 0
        assert len(result.times) == SMALL["iterations"]
        assert result.bandwidth_gbs > 0

    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    @pytest.mark.parametrize("noise", ["single", "uniform", "gaussian"])
    def test_pattern_runs_under_noise(self, pattern, noise):
        result = run_pattern(
            PatternConfig(pattern=pattern, approach="pt2pt_part",
                          noise=noise, noise_us=5.0, noise_sigma_us=1.0,
                          **SMALL)
        )
        assert result.mean_us > 0
