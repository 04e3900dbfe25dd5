"""Sharded campaign execution: shard planning, collision-free segment
namespaces, shard runs, and the verified merge/adopt step."""

import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.runner import (
    CampaignStore,
    merge_shards,
    parse_grid_spec,
    run_campaign,
    run_shard,
    run_sharded,
    shard_plan,
    shard_token,
)
from repro.runner.campaign import (
    ENC_RESULT,
    _index_array_to_ranges,
    _intersect_ranges,
    _merge_ranges,
    _subtract_ranges,
)
from repro.telemetry import read_metrics_jsonl


def analytic_spec(sizes=(10, 16)):
    return {
        "kind": "bench",
        "backend": "analytic",
        "base": {"n_threads": 2, "theta": 2, "iterations": 3},
        "axes": {
            "approach": ["pt2pt_single", "pt2pt_part", "rma_many_active"],
            "total_bytes": {"pow2": list(sizes)},
            "gamma_us_per_mb": [0.0, 200.0],
        },
    }


def make_grid(sizes=(10, 16)):
    return parse_grid_spec(analytic_spec(sizes))


class TestRangeArithmetic:
    """Edge cases of the interval helpers the merge relies on."""

    def test_merge_adjacent_ranges_coalesce(self):
        assert _merge_ranges([(0, 5), (5, 10)]) == [(0, 10)]

    def test_merge_empty_input(self):
        assert _merge_ranges([]) == []

    def test_merge_drops_empty_ranges(self):
        assert _merge_ranges([(3, 3), (1, 2)]) == [(1, 2)]

    def test_merge_overlapping_and_nested(self):
        assert _merge_ranges([(0, 4), (2, 6), (1, 3), (8, 9)]) == [
            (0, 6),
            (8, 9),
        ]

    def test_subtract_full_overlap_yields_nothing(self):
        assert _subtract_ranges(3, 7, [(0, 10)]) == []

    def test_subtract_empty_covered_yields_whole(self):
        assert _subtract_ranges(2, 9, []) == [(2, 9)]

    def test_subtract_adjacent_covered_does_not_bite(self):
        # [0, 3) and [7, 12) touch the query only at its edges.
        assert _subtract_ranges(3, 7, [(0, 3), (7, 12)]) == [(3, 7)]

    def test_subtract_punches_holes(self):
        assert _subtract_ranges(0, 10, [(2, 4), (6, 8)]) == [
            (0, 2),
            (4, 6),
            (8, 10),
        ]

    def test_indices_to_ranges_empty(self):
        assert _index_array_to_ranges(np.array([], dtype=np.int64)) == []

    def test_indices_to_ranges_runs(self):
        assert _index_array_to_ranges(np.array([0, 1, 2, 5, 7, 8])) == [
            (0, 3),
            (5, 6),
            (7, 9),
        ]

    def test_intersect_disjoint(self):
        assert _intersect_ranges([(0, 5)], [(5, 10)]) == []

    def test_intersect_partial_and_nested(self):
        assert _intersect_ranges(
            [(0, 10), (20, 30)], [(5, 25), (28, 40)]
        ) == [(5, 10), (20, 25), (28, 30)]

    def test_intersect_empty_operands(self):
        assert _intersect_ranges([], [(0, 5)]) == []
        assert _intersect_ranges([(0, 5)], []) == []


class TestShardPlan:
    def test_even_split_covers_everything_disjointly(self):
        plans = shard_plan(100, 4)
        assert len(plans) == 4
        counts = [sum(e - s for s, e in p) for p in plans]
        assert counts == [25, 25, 25, 25]
        union = _merge_ranges([r for p in plans for r in p])
        assert union == [(0, 100)]

    def test_uneven_split_differs_by_at_most_one(self):
        plans = shard_plan(10, 3)
        counts = [sum(e - s for s, e in p) for p in plans]
        assert counts == [4, 3, 3]

    def test_completed_ranges_are_excluded(self):
        plans = shard_plan(100, 2, completed=[(10, 30), (50, 60)])
        union = _merge_ranges([r for p in plans for r in p])
        assert union == [(0, 10), (30, 50), (60, 100)]
        counts = [sum(e - s for s, e in p) for p in plans]
        assert counts == [35, 35]

    def test_more_shards_than_points_leaves_trailing_empty(self):
        plans = shard_plan(2, 5)
        counts = [sum(e - s for s, e in p) for p in plans]
        assert counts == [1, 1, 0, 0, 0]

    def test_fully_completed_grid_plans_nothing(self):
        assert shard_plan(10, 3, completed=[(0, 10)]) == [[], [], []]

    def test_accepts_grid_object(self):
        grid = make_grid()
        plans = shard_plan(grid, 3)
        union = _merge_ranges([r for p in plans for r in p])
        assert union == [(0, len(grid))]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            shard_plan(10, 0)
        with pytest.raises(ValueError):
            shard_plan(10, 2, completed=[(5, 15)])
        with pytest.raises(ValueError):
            shard_plan(10, 2, completed=[(4, 6), (2, 3)])


class TestShardToken:
    def test_token_names_index_and_count(self):
        assert shard_token(2, 4) == "s002of004"
        for index, count in ((0, 4), (5, 4), (1, 0)):
            with pytest.raises(ValueError):
                shard_token(index, count)


class TestWriterTokenNaming:
    def test_tokened_names_cannot_collide_across_writers(self, tmp_path):
        grid = make_grid()
        a = CampaignStore.create(tmp_path, grid, writer_token="a")
        b = CampaignStore.open(tmp_path, writer_token="b")
        # Both writers see the same n_existing, yet name disjoint files.
        assert a._segment_name(0, ".jsonl") == "segments/seg-a-000000.jsonl"
        assert b._segment_name(0, ".jsonl") == "segments/seg-b-000000.jsonl"

    def test_default_naming_unchanged(self, tmp_path):
        store = CampaignStore.create(tmp_path, make_grid())
        assert store._segment_name(0, ".jsonl") == "segments/seg-000000.jsonl"

    def test_bad_token_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            CampaignStore(tmp_path, writer_token="has/slash")
        with pytest.raises(ValueError):
            CampaignStore(tmp_path, writer_token="x" * 33)

    def test_writer_recorded_in_header_and_index(self, tmp_path):
        grid = make_grid()
        store = CampaignStore.create(tmp_path, grid, writer_token="w1")
        run_campaign(store, limit=4, chunk_points=4, async_write=False)
        index = store._index()
        assert [e["writer"] for e in index["segments"]] == ["w1"]
        seg = tmp_path / index["segments"][0]["file"]
        with seg.open("rb") as handle:
            header = json.loads(handle.readline())
        assert header["writer"] == "w1"
        # rebuild_index recovers the writer from the header alone.
        (tmp_path / "index.json").unlink()
        rebuilt = CampaignStore.open(tmp_path)._index()
        assert [e["writer"] for e in rebuilt["segments"]] == ["w1"]

    def test_concurrent_writers_never_collide(self, tmp_path):
        """Two tokened writers appending into ONE directory at once:
        every segment lands under its own name and a rebuilt index
        sees all of them (the race `_segment_name` used to lose)."""
        grid = make_grid()
        CampaignStore.create(tmp_path, grid)
        n_each = 8
        errors = []

        def writer(token, base):
            try:
                store = CampaignStore.open(tmp_path, writer_token=token)
                for k in range(n_each):
                    start = base + k
                    store.append_chunk(
                        [[start, {"times": [1.0 + start]}]],
                        ENC_RESULT,
                        [(start, start + 1)],
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=("wa", 0)),
            threading.Thread(target=writer, args=("wb", n_each)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        on_disk = sorted(p.name for p in tmp_path.glob("segments/*"))
        assert len(on_disk) == 2 * n_each
        assert len(set(on_disk)) == 2 * n_each
        # index.json itself was raced (last write wins) — the rebuild
        # from segment headers recovers every point.
        store = CampaignStore(tmp_path)
        store.rebuild_index()
        assert store.completed_ranges() == [(0, 2 * n_each)]


class TestRunShardAndMerge:
    def _run_shards(self, tmp_path, grid, n, compression="none"):
        target = CampaignStore.create(
            tmp_path / "target", grid, compression=compression
        )
        plans = shard_plan(len(grid), n, completed=target.completed_ranges())
        roots = []
        for i, plan in enumerate(plans, start=1):
            summary = run_shard(
                tmp_path / "shards" / shard_token(i, n),
                grid,
                i,
                n,
                ranges=plan,
            )
            assert summary["shard"]["remaining"] == 0
            roots.append(summary["shard"]["root"])
        return target, roots

    @pytest.mark.parametrize("compression", ["none", "binary"])
    def test_merged_store_equals_unsharded(self, tmp_path, compression):
        import numpy as np

        grid = make_grid()
        ref = CampaignStore.create(
            tmp_path / "ref", grid, compression=compression
        )
        run_campaign(ref)
        target, roots = self._run_shards(
            tmp_path, grid, 3, compression=compression
        )
        summary = merge_shards(target, roots)
        assert summary["completed"] == len(grid)
        assert list(target.iter_rows()) == list(ref.iter_rows())
        ref_idx, ref_cols = ref.read_columns()
        got_idx, got_cols = target.read_columns()
        assert np.array_equal(ref_idx, got_idx)
        for name in ref_cols:
            assert np.array_equal(ref_cols[name], got_cols[name])

    def test_shard_resume_executes_nothing(self, tmp_path):
        grid = make_grid()
        plan = shard_plan(len(grid), 2)[0]
        first = run_shard(tmp_path / "s1", grid, 1, 2, plan)
        assert first["executed"] == sum(e - s for s, e in plan)
        assert first["shard"]["ranges"] == [[s, e] for s, e in plan]
        again = run_shard(tmp_path / "s1", grid, 1, 2, plan)
        assert again["executed"] == 0
        assert again["shard"]["remaining"] == 0

    def test_merge_respects_partially_complete_target(self, tmp_path):
        """Driver shape: target already holds points, shards run the
        complement, merge stitches without overlap."""
        grid = make_grid()
        target = CampaignStore.create(tmp_path / "target", grid)
        run_campaign(target, limit=7, chunk_points=7)
        assert target.n_completed == 7
        plans = shard_plan(
            len(grid), 2, completed=target.completed_ranges()
        )
        roots = []
        for i, plan in enumerate(plans, start=1):
            summary = run_shard(
                tmp_path / f"s{i}", grid, i, 2, ranges=plan
            )
            roots.append(summary["shard"]["root"])
        merge_shards(target, roots)
        assert target.n_completed == len(grid)

    def test_merge_is_not_repeatable(self, tmp_path):
        """Adopting the same shard twice must fail loudly (coverage
        overlap), not silently duplicate points."""
        grid = make_grid()
        target, roots = self._run_shards(tmp_path, grid, 2)
        copy = tmp_path / "copy-of-shard-1"
        shutil.copytree(roots[0], copy)
        merge_shards(target, roots)
        with pytest.raises(ValueError, match="overlap"):
            merge_shards(target, [copy])

    def test_stats_shard_awareness(self, tmp_path):
        grid = make_grid()
        target, roots = self._run_shards(tmp_path, grid, 2)
        # Before the merge: shard stores under <root>/shards are listed.
        shards_dir = tmp_path / "target" / "shards"
        shards_dir.mkdir()
        os.rename(roots[0], shards_dir / "s001of002")
        stats = target.stats()
        assert len(stats["shards"]) == 1
        entry = stats["shards"][0]
        assert entry["shard"]["index"] == 1
        assert entry["missing"] == 0
        # After merging the other shard: per-writer coverage appears.
        merge_shards(target, [roots[1]])
        writers = target.stats()["shard_segments"]
        assert list(writers) == ["s002of002"]
        assert writers["s002of002"]["points"] == sum(
            e - s for s, e in shard_plan(len(grid), 2)[1]
        )


class TestMergeRejections:
    def test_grid_hash_mismatch_rejected(self, tmp_path):
        grid = make_grid()
        other = make_grid(sizes=(10, 15))
        target = CampaignStore.create(tmp_path / "target", grid)
        summary = run_shard(tmp_path / "s1", other, 1, 1, [(0, len(other))])
        with pytest.raises(ValueError, match="different campaign"):
            merge_shards(target, [summary["shard"]["root"]])

    def test_overlapping_shard_coverage_rejected(self, tmp_path):
        grid = make_grid()
        target = CampaignStore.create(tmp_path / "target", grid)
        a = run_shard(
            tmp_path / "sa", grid, 1, 2, ranges=[(0, 10)]
        )
        b = run_shard(
            tmp_path / "sb", grid, 2, 2, ranges=[(5, 15)]
        )
        with pytest.raises(ValueError, match="overlap"):
            merge_shards(
                target, [a["shard"]["root"], b["shard"]["root"]]
            )

    def test_overlap_with_target_coverage_rejected(self, tmp_path):
        grid = make_grid()
        target = CampaignStore.create(tmp_path / "target", grid)
        run_campaign(target, limit=10, chunk_points=10)
        shard = run_shard(
            tmp_path / "s1", grid, 1, 1, ranges=[(5, 12)]
        )
        with pytest.raises(ValueError, match="overlap"):
            merge_shards(target, [shard["shard"]["root"]])

    def test_doctored_segment_schema_rejected(self, tmp_path):
        """A segment whose header no longer validates against the
        target (wrong schema version) rejects the merge instead of
        being silently dropped."""
        grid = make_grid()
        target = CampaignStore.create(tmp_path / "target", grid)
        summary = run_shard(
            tmp_path / "s1", grid, 1, 1, ranges=[(0, 6)],
        )
        shard_root = Path(summary["shard"]["root"])
        seg = next(shard_root.glob("segments/*.bin"))
        first, rest = seg.read_bytes().split(b"\n", 1)
        header = json.loads(first)
        header["schema"] = "repro.campaign.segment/v999"
        seg.write_bytes(
            json.dumps(header, sort_keys=True).encode() + b"\n" + rest
        )
        with pytest.raises(ValueError, match="fails target validation"):
            merge_shards(target, [shard_root])

    def test_name_collision_rejected(self, tmp_path):
        """Un-tokened shard segments colliding with target names must
        refuse rather than overwrite."""
        grid = make_grid()
        target = CampaignStore.create(tmp_path / "target", grid)
        run_campaign(target, limit=6, chunk_points=6)
        # An un-tokened writer produced seg-000000 in its own store
        # covering disjoint points — same name as the target's first.
        shard = CampaignStore.create(tmp_path / "s1", grid)
        run_campaign(shard, ranges=[(10, 16)], chunk_points=6)
        with pytest.raises(ValueError, match="already exists"):
            merge_shards(target, [tmp_path / "s1"])


class TestRunCampaignRanges:
    def test_ranges_scope_execution(self, tmp_path):
        grid = make_grid()
        store = CampaignStore.create(tmp_path, grid)
        summary = run_campaign(store, ranges=[(4, 9), (12, 14)])
        assert summary["executed"] == 7
        assert store.completed_ranges() == [(4, 9), (12, 14)]

    def test_ranges_intersect_missing(self, tmp_path):
        grid = make_grid()
        store = CampaignStore.create(tmp_path, grid)
        run_campaign(store, ranges=[(0, 8)])
        summary = run_campaign(store, ranges=[(4, 12)])
        assert summary["executed"] == 4
        assert store.completed_ranges() == [(0, 12)]

    def test_out_of_grid_ranges_rejected(self, tmp_path):
        grid = make_grid()
        store = CampaignStore.create(tmp_path, grid)
        with pytest.raises(ValueError):
            run_campaign(store, ranges=[(0, len(grid) + 1)])


class TestRunSharded:
    def test_subprocess_driver_end_to_end(self, tmp_path):
        """3 real shard processes, merged, equal to unsharded."""
        import numpy as np

        grid = make_grid()
        ref = CampaignStore.create(
            tmp_path / "ref", grid, compression="binary"
        )
        run_campaign(ref)
        target = CampaignStore.create(
            tmp_path / "target", grid, compression="binary"
        )
        summary = run_sharded(target, n_shards=3)
        assert summary["executed"] == len(grid)
        assert len(summary["shards"]) == 3
        assert summary["merge"]["segments_adopted"] >= 3
        assert target.n_completed == len(grid)
        # Shard working stores are cleaned up after the merge.
        assert not (tmp_path / "target" / "shards").exists()
        ref_idx, ref_cols = ref.read_columns()
        got_idx, got_cols = target.read_columns()
        assert np.array_equal(ref_idx, got_idx)
        for name in ref_cols:
            assert np.array_equal(ref_cols[name], got_cols[name])

    def test_nothing_missing_spawns_nothing(self, tmp_path):
        grid = make_grid()
        target = CampaignStore.create(tmp_path / "target", grid)
        run_campaign(target)
        summary = run_sharded(target, n_shards=3)
        assert summary["executed"] == 0
        assert summary["shards"] == []
        assert summary["merge"] is None

    def test_sim_shards_run_their_own_pools(self, tmp_path):
        """A simulation-backed shard with jobs > 1 starts a worker pool
        inside its shard process, which a daemonic process may not."""
        grid = parse_grid_spec({
            "kind": "bench",
            "backend": "sim",
            "base": {"iterations": 1, "warmup": 0},
            "axes": {
                "approach": ["pt2pt_single", "pt2pt_part"],
                "total_bytes": [16384, 32768],
                "n_threads": [1, 2],
            },
        })
        assert len(grid) == 8
        ref = CampaignStore.create(tmp_path / "ref", grid)
        run_campaign(ref, jobs=1)
        target = CampaignStore.create(tmp_path / "target", grid)
        summary = run_sharded(target, n_shards=2, jobs=2)
        assert summary["executed"] == len(grid)
        assert list(target.iter_rows()) == list(ref.iter_rows())

    def test_failed_shard_merges_nothing_and_resumes(self, tmp_path):
        import numpy as np

        grid = make_grid()
        root = tmp_path / "target"
        target = CampaignStore.create(root, grid, compression="binary")
        # A regular file where shard 2's store directory belongs makes
        # that shard fail before it writes anything.
        blocker = root / "shards" / shard_token(2, 2)
        blocker.parent.mkdir()
        blocker.write_text("not a campaign store\n")
        with pytest.raises(RuntimeError, match="2/2"):
            run_sharded(target, n_shards=2)
        assert CampaignStore.open(root).n_completed == 0
        first = CampaignStore.open(root / "shards" / shard_token(1, 2))
        assert first.n_completed == sum(
            e - s for s, e in shard_plan(len(grid), 2)[0]
        )
        # The rerun resumes shard 1's store and runs shard 2.
        blocker.unlink()
        summary = run_sharded(target, n_shards=2)
        assert summary["merge"]["completed"] == len(grid)
        assert not (root / "shards").exists()
        ref = CampaignStore.create(
            tmp_path / "ref", grid, compression="binary"
        )
        run_campaign(ref)
        ref_idx, ref_cols = ref.read_columns()
        got_idx, got_cols = CampaignStore.open(root).read_columns()
        assert np.array_equal(ref_idx, got_idx)
        assert set(ref_cols) == set(got_cols)
        for name in ref_cols:
            assert np.array_equal(ref_cols[name], got_cols[name])

    def test_shard_metrics_files_per_shard(self, tmp_path):
        """The contract the benchmark reads: one metrics file per shard
        with a campaign.run span and a producer naming the shard, and no
        working files left behind."""
        grid = make_grid()
        root = tmp_path / "target"
        target = CampaignStore.create(root, grid, compression="binary")
        summary = run_sharded(target, n_shards=2, shard_metrics=True)
        assert summary["executed"] == len(grid)
        assert summary["merge"]["wall_s"] >= 0
        assert sorted(p.name for p in root.glob("metrics-*.jsonl")) == [
            "metrics-s001of002.jsonl", "metrics-s002of002.jsonl",
        ]
        for info in summary["shards"]:
            metrics = read_metrics_jsonl(info["metrics"])
            assert "campaign.run" in metrics["span_totals"]
            producer = metrics["header"]["producer"]
            assert producer["shard"] == {"index": info["index"], "count": 2}
        assert not (root / "shards").exists()
        assert not (root / "shard-grid.json").exists()


class TestAffinityAwareDefaults:
    def test_default_jobs_respects_affinity(self, monkeypatch):
        from repro.runner import executor
        from repro.runner import planner

        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(
                os, "sched_getaffinity", lambda pid: {0, 1, 2}
            )
            assert planner.available_cpus() == 3
            assert executor.default_jobs() == 3

    def test_available_cpus_falls_back_to_cpu_count(self, monkeypatch):
        from repro.runner import planner

        def boom(pid):
            raise OSError("no affinity here")

        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(os, "sched_getaffinity", boom)
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert planner.available_cpus() == 7


class TestShardCLI:
    def _spec_file(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(analytic_spec()))
        return spec

    def _run(self, *argv):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else src
        )
        return subprocess.run(
            [sys.executable, "-m", "repro", "campaign", *argv],
            capture_output=True,
            text=True,
            env=env,
        )

    def test_shard_subcommand_is_gone(self, tmp_path):
        spec = self._spec_file(tmp_path)
        plan = self._run("shard", "plan", str(spec), "--shards", "2")
        assert plan.returncode == 2
        assert "invalid choice" in plan.stderr

    def test_sharded_metrics_record_the_jobs_that_ran(self, tmp_path, capsys):
        """--jobs 0 with --shards runs every shard without a pool, and
        the metrics producers say so."""
        from repro.__main__ import main

        spec = self._spec_file(tmp_path)
        root = tmp_path / "camp"
        assert main([
            "campaign", "run", str(spec), "--root", str(root),
            "--shards", "2", "--jobs", "0", "--metrics",
        ]) == 0
        assert "across 2 shard(s)" in capsys.readouterr().out
        for name in ("metrics.jsonl", "metrics-s001of002.jsonl",
                     "metrics-s002of002.jsonl"):
            producer = read_metrics_jsonl(root / name)["header"]["producer"]
            assert producer["jobs"] == 1, name

    def test_status_json_reports_writers(self, tmp_path):
        grid = make_grid()
        target = CampaignStore.create(tmp_path / "target", grid)
        run_sharded(target, n_shards=2)
        status = self._run(
            "status", str(tmp_path / "target"), "--json"
        )
        assert status.returncode == 0, status.stderr
        payload = json.loads(status.stdout)
        assert sorted(payload["shard_segments"]) == [
            "s001of002", "s002of002",
        ]
