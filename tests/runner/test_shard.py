"""Sharded campaign execution: shard planning, collision-free segment
namespaces, and shard processes writing straight into the target
store."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.runner import (
    CampaignStore,
    parse_grid_spec,
    run_campaign,
    run_sharded,
    shard_plan,
    shard_token,
)
from repro.runner import shard as shard_module
from repro.runner.campaign import (
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


def read_back(store):
    """Every covered point's columns, as a comparable tuple."""
    indices, columns = store.read_columns()
    return indices.tolist(), {
        name: column.tobytes() for name, column in columns.items()
    }


class TestRangeArithmetic:
    """Edge cases of the interval helpers sharding relies on."""

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
        assert _subtract_ranges([(3, 7)], [(0, 10)]) == []
        assert _subtract_ranges([(0, 2), (4, 9)], [(0, 10)]) == []

    def test_subtract_empty_covered_yields_whole(self):
        assert _subtract_ranges([(2, 9)], []) == [(2, 9)]

    def test_subtract_adjacent_covered_does_not_bite(self):
        # [0, 3) and [7, 12) touch the query only at its edges.
        assert _subtract_ranges([(3, 7)], [(0, 3), (7, 12)]) == [(3, 7)]

    def test_subtract_punches_holes(self):
        assert _subtract_ranges([(0, 10)], [(2, 4), (6, 8)]) == [
            (0, 2),
            (4, 6),
            (8, 10),
        ]

    def test_subtract_takes_a_list_of_ranges(self):
        # Unsorted, overlapping and adjacent input ranges merge first;
        # one covered range can bite several of them.
        assert _subtract_ranges(
            [(20, 30), (0, 6), (4, 10), (10, 12)], [(5, 22), (25, 26)]
        ) == [(0, 5), (22, 25), (26, 30)]
        assert _subtract_ranges([], [(0, 5)]) == []

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
        plans = shard_plan([(0, 100)], 4)
        assert len(plans) == 4
        counts = [sum(e - s for s, e in p) for p in plans]
        assert counts == [25, 25, 25, 25]
        union = _merge_ranges([r for p in plans for r in p])
        assert union == [(0, 100)]

    def test_uneven_split_differs_by_at_most_one(self):
        plans = shard_plan([(0, 10)], 3)
        counts = [sum(e - s for s, e in p) for p in plans]
        assert counts == [4, 3, 3]

    def test_completed_ranges_are_excluded(self):
        plans = shard_plan([(0, 10), (30, 50), (60, 100)], 2)
        union = _merge_ranges([r for p in plans for r in p])
        assert union == [(0, 10), (30, 50), (60, 100)]
        counts = [sum(e - s for s, e in p) for p in plans]
        assert counts == [35, 35]

    def test_more_shards_than_points_leaves_trailing_empty(self):
        plans = shard_plan([(0, 2)], 5)
        counts = [sum(e - s for s, e in p) for p in plans]
        assert counts == [1, 1, 0, 0, 0]

    def test_fully_completed_grid_plans_nothing(self):
        assert shard_plan([], 3) == [[], [], []]

    def test_splits_a_store_missing_ranges(self, tmp_path):
        grid = make_grid()
        store = CampaignStore.create(tmp_path / "camp", grid)
        run_campaign(store, ranges=[(5, 9), (20, 30)])
        plans = shard_plan(store.missing_ranges(), 3)
        union = _merge_ranges([r for p in plans for r in p])
        assert union == [(0, 5), (9, 20), (30, len(grid))]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            shard_plan([(0, 10)], 0)


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
        run_campaign(store, limit=4, chunk_points=4)
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
    """Shard processes append into the target itself; what is left of
    the merge is the driver's one index rebuild after the joins."""

    @pytest.mark.parametrize("compression", ["none", "binary"])
    def test_merged_store_equals_unsharded(self, tmp_path, compression):
        grid = make_grid()
        ref = CampaignStore.create(
            tmp_path / "ref", grid, compression=compression
        )
        run_campaign(ref)
        target = CampaignStore.create(
            tmp_path / "target", grid, compression=compression
        )
        summary = run_sharded(target, n_shards=3)
        assert summary["completed"] == len(grid)
        assert list(target.iter_rows()) == list(ref.iter_rows())
        assert read_back(target) == read_back(ref)

    def test_shard_resume_executes_nothing(self, tmp_path):
        grid = make_grid()
        target = CampaignStore.create(tmp_path / "target", grid)
        first = run_sharded(target, n_shards=2)
        assert first["executed"] == len(grid)
        index = (tmp_path / "target" / "index.json").read_bytes()
        again = run_sharded(CampaignStore.open(tmp_path / "target"), n_shards=2)
        assert again["executed"] == 0
        assert again["shards"] == [] and again["merge"] is None
        assert (tmp_path / "target" / "index.json").read_bytes() == index

    def test_merge_respects_partially_complete_target(self, tmp_path):
        """A target that already holds points: the shards execute only
        the missing ones, and the export equals an unsharded run's."""
        grid = make_grid()
        ref = CampaignStore.create(tmp_path / "ref", grid)
        run_campaign(ref)
        target = CampaignStore.create(tmp_path / "target", grid)
        run_campaign(target, ranges=[(5, 12), (20, 23)])
        before = {p.name for p in (tmp_path / "target").glob("segments/*")}
        summary = run_sharded(target, n_shards=2)
        assert summary["executed"] == len(grid) - 10
        assert target.n_completed == len(grid)
        after = {p.name for p in (tmp_path / "target").glob("segments/*")}
        assert before < after
        assert all("-s00" in name for name in after - before)
        assert target.export_jsonl(tmp_path / "got.jsonl") == len(grid)
        ref.export_jsonl(tmp_path / "want.jsonl")
        assert (tmp_path / "got.jsonl").read_bytes() == (
            tmp_path / "want.jsonl"
        ).read_bytes()

    def test_stats_shard_awareness(self, tmp_path):
        grid = make_grid()
        target = CampaignStore.create(tmp_path / "target", grid)
        run_sharded(target, n_shards=2)
        stats = target.stats()
        assert "shards" not in stats
        writers = stats["shard_segments"]
        assert list(writers) == ["s001of002", "s002of002"]
        for writer, plan in zip(writers.values(), shard_plan(
            [(0, len(grid))], 2
        )):
            assert writer["ranges"] == [[s, e] for s, e in plan]
            assert writer["points"] == sum(e - s for s, e in plan)


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
        """3 real shard processes writing into the target: no second
        store anywhere, three writer tokens on the segments, and an
        index.json that a fresh open finds current."""
        grid = make_grid()
        ref = CampaignStore.create(
            tmp_path / "ref", grid, compression="binary"
        )
        run_campaign(ref)
        root = tmp_path / "target"
        target = CampaignStore.create(root, grid, compression="binary")
        summary = run_sharded(target, n_shards=3)
        assert summary["executed"] == len(grid)
        assert len(summary["shards"]) == 3
        assert summary["merge"]["wall_s"] >= 0
        assert target.n_completed == len(grid)
        assert not (root / "shards").exists()
        assert sorted(p.name for p in root.iterdir()) == [
            "campaign.json", "index.json", "segments",
        ]
        assert {
            p.name.split("-")[1] for p in (root / "segments").iterdir()
        } == {shard_token(i, 3) for i in (1, 2, 3)}
        index = CampaignStore(root)._read_index()
        assert index is not None
        assert len(index["segments"]) == len(list(root.glob("segments/*")))
        assert read_back(target) == read_back(ref)

    def test_index_rebuilt_once_by_the_driver(self, tmp_path, monkeypatch):
        """Forked shards inherit a patched ``rebuild_index`` and
        ``_write_index`` that log the calling process: the shards never
        rebuild the index they were handed nor write ``index.json``, and
        the driver rebuilds it exactly once, its one index write."""
        log = tmp_path / "calls.log"
        rebuild = CampaignStore.rebuild_index
        write = CampaignStore._write_index
        run = shard_module.run_campaign

        def note(event):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()} {event}\n")

        def logged_rebuild(self):
            note("rebuild")
            return rebuild(self)

        def logged_write(self, *args, **kwargs):
            note("write")
            return write(self, *args, **kwargs)

        def logged_run(*args, **kwargs):
            note("run")
            return run(*args, **kwargs)

        monkeypatch.setattr(CampaignStore, "rebuild_index", logged_rebuild)
        monkeypatch.setattr(shard_module, "run_campaign", logged_run)
        target = CampaignStore.create(tmp_path / "target", make_grid())
        monkeypatch.setattr(CampaignStore, "_write_index", logged_write)
        run_sharded(target, n_shards=3)
        calls = [line.split() for line in log.read_text().splitlines()]
        driver = str(os.getpid())
        shards = {pid for pid, event in calls if event == "run"}
        assert len(shards) == 3 and driver not in shards
        rebuilds = [pid for pid, event in calls if event == "rebuild"]
        assert rebuilds == [driver]
        writes = [pid for pid, event in calls if event == "write"]
        assert writes == [driver]
        # ...and that one write lists every segment the shards finished.
        index = CampaignStore(target.root)._read_index()
        assert index is not None
        assert len(index["segments"]) == len(
            list(target.root.glob("segments/*"))
        )

    def test_every_writer_opens_before_the_first_fork(
        self, tmp_path, monkeypatch
    ):
        """A shard already writing segments would make a later writer's
        open find ``index.json`` stale and rebuild it in the driver, so
        the driver opens all the writers before it starts any shard."""
        events = []
        open_store = CampaignStore.open.__func__
        start = shard_module.multiprocessing.Process.start

        def logged_open(cls, *args, **kwargs):
            events.append("open")
            return open_store(cls, *args, **kwargs)

        def logged_start(self):
            events.append("start")
            return start(self)

        monkeypatch.setattr(CampaignStore, "open", classmethod(logged_open))
        monkeypatch.setattr(
            shard_module.multiprocessing.Process, "start", logged_start
        )
        target = CampaignStore.create(tmp_path / "target", make_grid())
        run_sharded(target, n_shards=3)
        assert events == ["open"] * 3 + ["start"] * 3

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

    def test_failed_shard_keeps_finished_segments_and_resumes(
        self, tmp_path, monkeypatch
    ):
        """Shard 2 raises before it writes anything: the run raises
        naming it only after the driver's rebuild has listed shard 1's
        segments, and the rerun executes shard 2's points alone."""
        grid = make_grid()
        root = tmp_path / "target"
        target = CampaignStore.create(root, grid, compression="binary")
        run = shard_module.run_campaign

        def second_shard_fails(store, **kwargs):
            if store.writer_token == shard_token(2, 2):
                raise RuntimeError("shard kernel failed")
            return run(store, **kwargs)

        monkeypatch.setattr(shard_module, "run_campaign", second_shard_fails)
        with pytest.raises(RuntimeError, match="shard 2/2 exited 1"):
            run_sharded(target, n_shards=2)
        first, second = shard_plan([(0, len(grid))], 2)
        assert target.completed_ranges() == first
        assert CampaignStore(root)._read_index() is not None

        monkeypatch.setattr(shard_module, "run_campaign", run)
        summary = run_sharded(CampaignStore.open(root), n_shards=2)
        assert summary["executed"] == sum(e - s for s, e in second)
        ref = CampaignStore.create(
            tmp_path / "ref", grid, compression="binary"
        )
        run_campaign(ref)
        assert read_back(CampaignStore.open(root)) == read_back(ref)

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


class TestAffinityAwareDefaults:
    def test_default_jobs_respects_affinity(self, monkeypatch):
        from repro.runner import available_cpus

        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(
                os, "sched_getaffinity", lambda pid: {0, 1, 2}
            )
            assert available_cpus() == 3

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

    @pytest.mark.parametrize("argv", [
        ["--shards", "-1"],
        ["--shards", "2", "--trace", "--metrics"],
        ["--shards", "2", "--limit", "5"],
    ])
    def test_usage_errors_leave_no_root(self, tmp_path, capsys, argv):
        """Flag combinations --shards rejects exit 2 before the spec is
        read, so no campaign.json or index.json lands at --root."""
        from repro.__main__ import main

        spec = self._spec_file(tmp_path)
        root = tmp_path / "camp"
        assert main(
            ["campaign", "run", str(spec), "--root", str(root), *argv]
        ) == 2
        assert "error:" in capsys.readouterr().err
        assert not root.exists()

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
