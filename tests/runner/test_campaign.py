"""Campaign store: grid addressing, segments, resume, compaction,
provenance, and stores left by older versions."""

import gzip
import json

import numpy as np
import pytest

from repro.runner import (
    CampaignStore,
    ScenarioGrid,
    parse_grid_spec,
    run_campaign,
    run_scenarios,
)
from repro.runner.campaign import (
    CAMPAIGN_SCHEMA,
    ENC_RESULT,
    SEGMENT_SCHEMA,
)
from repro.runner.scenario import execute


def segment_header(path):
    """The JSON header line of any segment (text or binary)."""
    with path.open("rb") as handle:
        return json.loads(handle.readline())


def rewrite_segment_header(path, **changes):
    """Rewrite a segment's header line in place, payload untouched."""
    first, rest = path.read_bytes().split(b"\n", 1)
    header = json.loads(first)
    header.update(changes)
    path.write_bytes(
        json.dumps(header, sort_keys=True).encode() + b"\n" + rest
    )


def analytic_spec():
    return {
        "kind": "bench",
        "backend": "analytic",
        "base": {"n_threads": 2, "theta": 2, "iterations": 3},
        "axes": {
            "approach": ["pt2pt_single", "pt2pt_part", "rma_many_active"],
            "total_bytes": {"pow2": [10, 17]},
            "gamma_us_per_mb": [0.0, 200.0],
        },
    }


class TestGridAddressing:
    def test_to_dict_round_trip_preserves_hash(self):
        grid = parse_grid_spec(analytic_spec())
        clone = ScenarioGrid.from_dict(grid.to_dict())
        assert clone.content_hash() == grid.content_hash()
        assert len(clone) == len(grid)

    def test_assignment_at_matches_expand_order(self):
        grid = parse_grid_spec(analytic_spec())
        for index, (assignment, scenario) in enumerate(grid.points()):
            assert grid.assignment_at(index) == assignment
            assert grid.scenario_at(index) == scenario

    def test_axis_columns_decode(self):
        import numpy as np

        grid = parse_grid_spec(analytic_spec())
        indices = np.array([0, 5, 17, len(grid) - 1])
        columns = grid.axis_columns(indices)
        for j, i in enumerate(indices):
            assignment = grid.assignment_at(int(i))
            for name, values in columns.items():
                assert values[j] == assignment[name]

    def test_out_of_range_rejected(self):
        grid = parse_grid_spec(analytic_spec())
        with pytest.raises(IndexError):
            grid.assignment_at(len(grid))

    def test_axis_order_survives_key_sorted_serialization(self):
        """Axis declaration order IS the row-major index mapping; it
        must survive a sort_keys round trip (the campaign header is
        written that way — losing it silently remaps every index)."""
        spec = {
            "kind": "bench",
            "backend": "analytic",
            "base": {"iterations": 1},
            # deliberately non-alphabetical axis order
            "axes": {
                "total_bytes": [1024, 2048],
                "approach": ["pt2pt_single", "pt2pt_part"],
                "n_threads": [1, 2, 4],
            },
        }
        grid = parse_grid_spec(spec)
        sorted_json = json.dumps(grid.to_dict(), sort_keys=True)
        clone = ScenarioGrid.from_dict(json.loads(sorted_json))
        assert list(clone.axes) == ["total_bytes", "approach", "n_threads"]
        assert clone.content_hash() == grid.content_hash()
        for index in range(len(grid)):
            assert clone.assignment_at(index) == grid.assignment_at(index)

    def test_axis_order_mismatch_rejected(self):
        payload = parse_grid_spec(analytic_spec()).to_dict()
        payload["axis_order"] = payload["axis_order"][:-1]
        with pytest.raises(ValueError):
            ScenarioGrid.from_dict(payload)

    def test_campaign_reopened_from_disk_keeps_index_mapping(self, tmp_path):
        """The end-to-end regression: a campaign written by one
        process and reopened cold from campaign.json must decode every
        stored row to the same scenario the writer executed."""
        grid = parse_grid_spec(
            {
                "kind": "pattern",
                "backend": "analytic",
                "base": {"n_ranks": 4, "iterations": 2},
                # pattern deliberately NOT alphabetically last-fastest
                "axes": {
                    "pattern": ["halo3d", "fft"],
                    "msg_bytes": [16384, 65536],
                    "approach": ["pt2pt_single", "pt2pt_part"],
                },
            }
        )
        store = CampaignStore.create(tmp_path / "camp", grid)
        run_campaign(store)
        reopened = CampaignStore.open(tmp_path / "camp")  # cold header
        assert list(reopened.grid.axes) == ["pattern", "msg_bytes",
                                            "approach"]
        for index, result in reopened.iter_rows():
            native = execute(reopened.scenario_at(index))
            assert result["times"] == [float(t) for t in native.times]
            assert result["n_links"] == native.n_links

    def test_shorthand_axes(self):
        grid = parse_grid_spec(
            {
                "kind": "bench",
                "backend": "analytic",
                "base": {"iterations": 1},
                "axes": {
                    "approach": {"values": ["pt2pt_single"]},
                    "total_bytes": {"pow2": [10, 12]},
                    "n_threads": {"range": [1, 8, 2]},
                },
            }
        )
        assert grid.axes["total_bytes"] == [1024, 2048, 4096]
        assert grid.axes["n_threads"] == [1, 3, 5, 7]

    def test_non_scalar_axis_rejected(self):
        grid = ScenarioGrid(
            "bench",
            base={"iterations": 1},
            axes={"approach": ["pt2pt_single"], "total_bytes": [(1,)]},
        )
        with pytest.raises(TypeError):
            grid.to_dict()


class TestCampaignLifecycle:
    def test_run_resume_and_equivalence(self, tmp_path):
        grid = parse_grid_spec(analytic_spec())
        store = CampaignStore.create(tmp_path / "camp", grid)
        first = run_campaign(store, chunk_points=7, limit=10)
        assert first["executed"] == 10
        assert store.missing_ranges() == [(10, len(grid))]
        second = run_campaign(store, chunk_points=7)
        assert second["executed"] == len(grid) - 10
        assert store.n_completed == len(grid)
        rows = dict(store.iter_rows())
        assert len(rows) == len(grid)
        # Campaign rows are bitwise-identical to per-point execution.
        for index in (0, 9, 10, len(grid) - 1):
            native = execute(store.scenario_at(index))
            assert rows[index]["times"] == [float(t) for t in native.times]

    def test_resume_from_segments_without_index(self, tmp_path):
        grid = parse_grid_spec(analytic_spec())
        store = CampaignStore.create(tmp_path / "camp", grid)
        run_campaign(store, chunk_points=11)
        (tmp_path / "camp" / "index.json").unlink()
        reopened = CampaignStore.open(tmp_path / "camp")
        assert reopened.n_completed == len(grid)
        assert run_campaign(reopened)["executed"] == 0

    def test_create_validates_grid_before_io(self, tmp_path):
        bad = ScenarioGrid(
            "bench",
            base={"iterations": 1},
            axes={"approach": ["pt2pt_single", "no_such_approach"],
                  "total_bytes": [1024]},
            backend="analytic",
        )
        with pytest.raises(KeyError):
            CampaignStore.create(tmp_path / "camp", bad)
        assert not (tmp_path / "camp").exists()
        good = ScenarioGrid(
            "bench",
            base={"iterations": 1},
            axes={"approach": ["pt2pt_single"], "total_bytes": [1024]},
            backend="no_such_backend",
        )
        with pytest.raises(KeyError):
            CampaignStore.create(tmp_path / "camp2", good)

    def test_resume_accepts_v1_header_with_recoverable_order(self, tmp_path):
        """A root whose header predates the axis_order field resumes
        when the stored grid re-hashes to the requested identity (the
        only case where the old index mapping is unambiguous)."""
        # axes declared in alphabetical order == the order a v1
        # sort_keys header preserved, so the identity is recoverable
        spec = {
            "kind": "bench",
            "backend": "analytic",
            "base": {"iterations": 2},
            "axes": {
                "approach": ["pt2pt_single", "pt2pt_part"],
                "n_threads": [1, 2],
                "total_bytes": [1024, 4096],
            },
        }
        grid = parse_grid_spec(spec)
        store = CampaignStore.create(tmp_path / "camp", grid)
        run_campaign(store, limit=3)
        # Rewrite the header as a v1 producer would have left it.
        header_path = tmp_path / "camp" / "campaign.json"
        header = json.loads(header_path.read_text())
        header["grid"]["schema"] = "repro.runner.grid/v1"
        del header["grid"]["axis_order"]
        v1_like = dict(header)
        v1_like["grid_hash"] = "0" * 64  # a v1 hash never matches v2
        header_path.write_text(json.dumps(v1_like, sort_keys=True))
        # Segments are tagged with the old hash; retag to match.
        for seg in (tmp_path / "camp" / "segments").glob("*.bin"):
            rewrite_segment_header(seg, campaign="0" * 64)
        (tmp_path / "camp" / "index.json").unlink()
        resumed = CampaignStore.create(tmp_path / "camp", grid)
        assert resumed.n_completed == 3
        assert run_campaign(resumed)["executed"] == len(grid) - 3

    def test_create_refuses_foreign_grid(self, tmp_path):
        grid = parse_grid_spec(analytic_spec())
        CampaignStore.create(tmp_path / "camp", grid)
        other = parse_grid_spec(
            {**analytic_spec(), "base": {"n_threads": 4, "iterations": 3}}
        )
        with pytest.raises(ValueError):
            CampaignStore.create(tmp_path / "camp", other)

    def test_compact_preserves_rows(self, tmp_path):
        grid = parse_grid_spec(analytic_spec())
        store = CampaignStore.create(tmp_path / "camp", grid)
        run_campaign(store, chunk_points=5)
        before = dict(store.iter_rows())
        n_before = store.stats()["segments"]
        summary = store.compact()
        assert summary["segments_before"] == n_before
        assert summary["segments_after"] < n_before
        assert dict(store.iter_rows()) == before
        assert store.n_completed == len(grid)

    def test_export_and_query(self, tmp_path):
        import io

        grid = parse_grid_spec(analytic_spec())
        store = CampaignStore.create(tmp_path / "camp", grid)
        run_campaign(store)
        buffer = io.StringIO()
        count = store.export_jsonl(buffer)
        lines = buffer.getvalue().splitlines()
        assert count == len(grid) == len(lines)
        record = json.loads(lines[0])
        assert set(record) == {"index", "assignment", "result"}
        matches = list(store.query(approach="pt2pt_part"))
        assert len(matches) == len(grid) // 3
        assert all(a["approach"] == "pt2pt_part" for _, a, _ in matches)
        # base-field filters work too
        assert len(list(store.query(n_threads=2))) == len(grid)
        assert list(store.query(n_threads=64)) == []

    def test_iterations_axis_reconstructs_times_length(self, tmp_path):
        spec = {
            "kind": "bench",
            "backend": "analytic",
            "base": {"n_threads": 1},
            "axes": {
                "approach": ["pt2pt_single"],
                "total_bytes": [1024, 4096],
                "iterations": [1, 4],
            },
        }
        grid = parse_grid_spec(spec)
        store = CampaignStore.create(tmp_path / "camp", grid)
        run_campaign(store)
        for index, result in store.iter_rows():
            assert len(result["times"]) == grid.assignment_at(index)[
                "iterations"
            ]


class TestProvenance:
    def test_header_and_segments_tagged(self, tmp_path):
        grid = parse_grid_spec(analytic_spec())
        store = CampaignStore.create(tmp_path / "camp", grid)
        run_campaign(store, chunk_points=50)
        header = json.loads((tmp_path / "camp" / "campaign.json").read_text())
        assert header["schema"] == CAMPAIGN_SCHEMA
        assert header["producer"]["backend"] == "analytic"
        assert header["grid_hash"] == grid.content_hash()
        segments = sorted((tmp_path / "camp" / "segments").glob("*.bin"))
        assert segments
        for path in segments:
            seg_header = segment_header(path)
            assert seg_header["schema"] == SEGMENT_SCHEMA
            assert seg_header["backend"] == "analytic"
            assert seg_header["campaign"] == grid.content_hash()

    def test_compact_writes_replacements_before_deleting(self, tmp_path):
        """A crash mid-compact must never lose completed results: the
        replacement segments land on disk before any old file goes."""
        grid = parse_grid_spec(analytic_spec())
        store = CampaignStore.create(tmp_path / "camp", grid)
        run_campaign(store, chunk_points=5)
        original = object.__getattribute__(store, "_write_index")

        seen = {}

        def spy(segments, ignored=()):
            # At index-switch time every new segment file must exist.
            seen["files_present"] = all(
                (store.root / e["file"]).is_file() for e in segments
            )
            return original(segments, ignored)

        store._write_index = spy
        store.compact()
        assert seen["files_present"]
        assert store.n_completed == len(grid)

    def test_index_converges_with_foreign_file_present(self, tmp_path):
        grid = parse_grid_spec(analytic_spec())
        store = CampaignStore.create(tmp_path / "camp", grid)
        run_campaign(store, chunk_points=20)
        stray = tmp_path / "camp" / "segments" / "seg-zzz.jsonl"
        stray.write_text("not a segment\n")
        reopened = CampaignStore.open(tmp_path / "camp")
        assert reopened.n_completed == len(grid)
        # One rebuild recorded the stray as ignored; subsequent reads
        # must be served by the fresh index, not a rescan.
        index_path = tmp_path / "camp" / "index.json"
        payload = json.loads(index_path.read_text())
        assert payload["ignored"] == ["segments/seg-zzz.jsonl"]
        mtime = index_path.stat().st_mtime_ns
        assert reopened.n_completed == len(grid)
        list(reopened.iter_rows())
        assert index_path.stat().st_mtime_ns == mtime

    def test_export_with_where_filter(self, tmp_path):
        import io

        grid = parse_grid_spec(analytic_spec())
        store = CampaignStore.create(tmp_path / "camp", grid)
        run_campaign(store)
        buffer = io.StringIO()
        count = store.export_jsonl(
            buffer, where={"approach": "pt2pt_part"}
        )
        assert count == len(grid) // 3
        for line in buffer.getvalue().splitlines():
            assert json.loads(line)["assignment"]["approach"] == "pt2pt_part"

    def test_foreign_segment_ignored(self, tmp_path):
        grid = parse_grid_spec(analytic_spec())
        store = CampaignStore.create(tmp_path / "camp", grid)
        run_campaign(store, limit=5, chunk_points=5)
        alien = tmp_path / "camp" / "segments" / "seg-999999.jsonl"
        alien.write_text(
            json.dumps({"schema": SEGMENT_SCHEMA, "campaign": "deadbeef",
                        "encoding": "bench-mean", "ranges": [[5, 10]],
                        "count": 0, "backend": "analytic",
                        "kind": "bench"}) + "\n"
        )
        reopened = CampaignStore.open(tmp_path / "camp")
        # the alien segment's claimed coverage must not count
        assert reopened.n_completed == 5


def pattern_spec():
    return {
        "kind": "pattern",
        "backend": "analytic",
        "base": {"n_ranks": 8, "iterations": 2},
        "axes": {
            "pattern": ["halo3d", "sweep3d", "fft"],
            "approach": ["pt2pt_single", "pt2pt_part", "rma_many_active"],
            "msg_bytes": [16384, 1 << 20],
            "n_threads": [2, 4],
            "noise": ["none", "single", "gaussian"],
            "noise_us": [0.0, 40.0],
            "compute_us_per_mb": [0.0, 200.0],
        },
    }


class TestPatternCampaignFastPath:
    def test_fast_path_engages_and_matches_per_point(self, tmp_path):
        """The columns-first pattern campaign must be bit-identical to
        per-point execution — the tentpole invariant, through the
        whole store round-trip."""
        from repro.runner.campaign import _check_kernel_axes

        grid = parse_grid_spec(pattern_spec())
        _check_kernel_axes(grid)  # raises on an axis the kernel cannot read
        store = CampaignStore.create(tmp_path / "camp", grid)
        summary = run_campaign(store, chunk_points=100)
        assert summary["executed"] == len(grid)
        rows = dict(store.iter_rows())
        assert len(rows) == len(grid)
        stride = max(1, len(grid) // 23)
        for index in range(0, len(grid), stride):
            native = execute(store.scenario_at(index))
            assert rows[index]["times"] == [float(t) for t in native.times]
            assert rows[index]["n_links"] == native.n_links
            assert (
                rows[index]["bytes_per_iteration"]
                == native.bytes_per_iteration
            )

    @pytest.mark.parametrize("kind", ["bench", "pattern"])
    def test_unreadable_axis_rejected(self, tmp_path, kind):
        """Every JSON-scalar spec field is a kernel column or provably
        ignored, so no grid ``CampaignStore.create`` admits is refused.
        A hand-edited ``campaign.json`` with a ``cvars`` axis (which
        the kernel takes as a batch constant from the base) must raise
        ``ValueError`` before a segment is written, not store numbers
        that ignore the axis."""
        import dataclasses

        from repro.apps.base import PatternConfig
        from repro.bench import BenchSpec
        from repro.model.vector import (
            BENCH_COLUMN_FIELDS,
            PATTERN_COLUMN_FIELDS,
        )
        from repro.runner.campaign import _IGNORABLE_AXES

        spec_type, fields, spec = {
            "bench": (BenchSpec, BENCH_COLUMN_FIELDS, {
                "kind": "bench", "backend": "analytic",
                "axes": {"approach": ["pt2pt_part", "pt2pt_many"],
                         "total_bytes": [4096, 1 << 20]},
            }),
            "pattern": (PatternConfig, PATTERN_COLUMN_FIELDS, pattern_spec()),
        }[kind]
        scalar_fields = {
            f.name
            for f in dataclasses.fields(spec_type)
            if f.name not in ("params", "cvars")  # never JSON-scalar axes
        }
        assert scalar_fields <= set(fields) | _IGNORABLE_AXES[kind]

        root = tmp_path / "camp"
        CampaignStore.create(root, parse_grid_spec(spec))
        header = json.loads((root / "campaign.json").read_text())
        header["grid"]["axes"]["cvars"] = [{"num_vcis": 1}, {"num_vcis": 4}]
        header["grid"]["axis_order"].append("cvars")
        (root / "campaign.json").write_text(json.dumps(header))
        with pytest.raises(ValueError, match="'cvars'"):
            run_campaign(CampaignStore.open(root))
        assert not list((root / "segments").glob("*"))

    def test_kernel_columns_decode(self):
        import numpy as np

        grid = parse_grid_spec(pattern_spec())
        indices = np.array([0, 11, 101, len(grid) - 1])
        columns = grid.kernel_columns(
            indices,
            ("pattern", "approach", "msg_bytes", "n_ranks", "noise"),
            categorical=("pattern", "approach", "noise"),
        )
        assert columns["n_ranks"] == 8  # base scalar passthrough
        for j, i in enumerate(indices):
            assignment = grid.assignment_at(int(i))
            for name in ("pattern", "approach", "noise"):
                values, codes = columns[name]
                assert values[codes[j]] == assignment[name]
            assert columns["msg_bytes"][j] == assignment["msg_bytes"]

    def test_kernel_columns_out_of_range(self):
        grid = parse_grid_spec(pattern_spec())
        with pytest.raises(IndexError):
            grid.kernel_columns([len(grid)], ("pattern",))


def bench_cols_text(store, start, stop, times):
    """A ``bench-cols`` JSONL segment as an older version wrote it:
    header line, then the whole times column as one JSON array."""
    header = {
        "schema": SEGMENT_SCHEMA,
        "campaign": store.header["grid_hash"],
        "kind": "bench",
        "backend": "analytic",
        "encoding": "bench-cols",
        "ranges": [[start, stop]],
        "count": stop - start,
    }
    return json.dumps(header, sort_keys=True) + "\n" + json.dumps(times) + "\n"


def gzip_one_segment(store, start, stop):
    """Replace the .bin segment covering [start, stop) with the gzip
    form older versions wrote; returns the new file's path."""
    seg = next(
        p for p in (store.root / "segments").glob("*.bin")
        if segment_header(p)["ranges"] == [[start, stop]]
    )
    _, columns = store.read_columns()
    times = columns["times"][start:stop].tolist()
    gz = seg.with_name(seg.stem + ".jsonl.gz")
    gz.write_bytes(
        gzip.compress(bench_cols_text(store, start, stop, times).encode())
    )
    seg.unlink()
    (store.root / "index.json").unlink()
    return gz


class TestGzipSegments:
    """gzip segments are no longer read: a root holding them resumes by
    recomputing their points."""

    def test_gzip_resume_from_segments(self, tmp_path):
        grid = parse_grid_spec(analytic_spec())
        store = CampaignStore.create(tmp_path / "camp", grid)
        run_campaign(store, chunk_points=16)
        before = dict(store.iter_rows())
        gz = gzip_one_segment(store, 16, 32)
        reopened = CampaignStore.open(tmp_path / "camp")
        assert reopened.stats()["ignored"] == [
            str(gz.relative_to(tmp_path / "camp"))
        ]
        assert reopened.missing_ranges() == [(16, 32)]
        assert run_campaign(reopened)["executed"] == 16
        assert dict(reopened.iter_rows()) == before

    def test_unknown_compression_rejected(self, tmp_path):
        grid = parse_grid_spec(analytic_spec())
        for compression in ("zstd", "gzip"):
            with pytest.raises(ValueError):
                CampaignStore.create(
                    tmp_path / "camp", grid, compression=compression
                )

    def test_truncated_gzip_segment_is_ignored_not_fatal(self, tmp_path):
        """rebuild_index is the repair tool for damaged roots: a
        truncated .jsonl.gz must land in 'ignored' like any unreadable
        file, never crash."""
        grid = parse_grid_spec(analytic_spec())
        store = CampaignStore.create(tmp_path / "camp", grid)
        run_campaign(store, chunk_points=16)
        victim = gzip_one_segment(store, 0, 16)
        victim.write_bytes(victim.read_bytes()[:20])  # mid-stream cut
        reopened = CampaignStore.open(tmp_path / "camp")
        index = json.loads(
            (tmp_path / "camp" / "index.json").read_text()
        )
        assert str(victim.relative_to(tmp_path / "camp")) in index["ignored"]
        # the rest of the store stays usable; the lost range reruns
        assert reopened.n_completed == len(grid) - 16
        assert run_campaign(reopened)["executed"] == 16


class TestLegacyStore:
    def test_parent_shaped_root_recomputes_retired_formats(self, tmp_path):
        """A root as an older version left it — a bench-cols JSONL
        segment, a .jsonl.gz, a bench-mean segment, a loose/ file and a
        v2 index.json beside ordinary .bin segments — opens, lists the
        retired files under 'ignored', recomputes exactly their points,
        and then reads back what a fresh store holds."""
        grid = parse_grid_spec(analytic_spec())
        fresh = CampaignStore.create(tmp_path / "fresh", grid)
        run_campaign(fresh)
        _, fresh_cols = fresh.read_columns()
        times = fresh_cols["times"].tolist()

        root = tmp_path / "legacy"
        store = CampaignStore.create(root, grid)
        run_campaign(store, chunk_points=12)  # 4 segments of 12 points
        segs = root / "segments"
        assert len(list(segs.glob("*.bin"))) == 4
        for n in (1, 2, 3):
            (segs / f"seg-00000{n}.bin").unlink()
        (segs / "seg-000001.jsonl").write_text(
            bench_cols_text(store, 12, 24, times[12:24])
        )
        (segs / "seg-000002.jsonl.gz").write_bytes(
            gzip.compress(
                bench_cols_text(store, 24, 36, times[24:36]).encode()
            )
        )
        mean_header = json.loads(
            bench_cols_text(store, 36, 48, []).splitlines()[0]
        )
        mean_header["encoding"] = "bench-mean"
        (segs / "seg-000003.jsonl").write_text(
            json.dumps(mean_header, sort_keys=True) + "\n"
            + "".join(f"[{i},{times[i]!r}]\n" for i in range(36, 48))
        )
        loose_header = dict(
            mean_header, encoding="hashed-result", ranges=[], count=1,
            backend="v1-migration",
        )
        (root / "loose").mkdir()
        (root / "loose" / "loose-000000.jsonl").write_text(
            json.dumps(loose_header, sort_keys=True) + "\n"
            + json.dumps({"hash": "ab", "scenario": {}, "result": {}})
            + "\n"
        )
        retired = [
            "loose/loose-000000.jsonl",
            "segments/seg-000001.jsonl",
            "segments/seg-000002.jsonl.gz",
            "segments/seg-000003.jsonl",
        ]
        (root / "index.json").write_text(json.dumps({
            "schema": "repro.campaign.index/v2",
            "campaign": store.header["grid_hash"],
            "segments": [
                {"file": f"segments/seg-00000{n}.jsonl", "count": 12,
                 "ranges": [[12 * n, 12 * n + 12]], "backend": "analytic",
                 "encoding": "bench-cols"}
                for n in (1, 3)
            ],
            "loose": [{"file": retired[0], "count": 1,
                       "encoding": "hashed-result",
                       "backend": "v1-migration"}],
            "ignored": [],
        }))

        legacy = CampaignStore.open(root)
        assert legacy.stats()["ignored"] == retired
        assert legacy.missing_ranges() == [(12, 48)]
        assert run_campaign(legacy)["executed"] == 36
        assert legacy.n_completed == len(grid)
        assert dict(legacy.iter_rows()) == dict(fresh.iter_rows())
        _, legacy_cols = legacy.read_columns()
        assert np.array_equal(legacy_cols["times"], fresh_cols["times"])


class TestSubmitAheadPipeline:
    def sim_grid(self):
        return parse_grid_spec(
            {
                "kind": "bench",
                "backend": "sim",
                "base": {"n_threads": 2, "theta": 1, "iterations": 2},
                "axes": {
                    "approach": ["pt2pt_single", "pt2pt_part"],
                    "total_bytes": [1024, 16384, 65536],
                },
            }
        )

    @staticmethod
    def store_bytes(root):
        """(name, bytes) of every segment plus the index, the
        byte-identity fingerprint."""
        segments = [
            (p.name, p.read_bytes())
            for p in sorted((root / "segments").glob("*"))
        ]
        index = json.loads((root / "index.json").read_text())
        return segments, index

    def test_pipelined_store_byte_identical_to_sequential(
        self, tmp_path, two_cpus
    ):
        """The acceptance invariant: same segments, same index, byte
        for byte, whether chunks run sequentially in-process or
        through the submit-ahead pool pipeline."""
        grid = self.sim_grid()
        serial = CampaignStore.create(tmp_path / "serial", grid)
        run_campaign(serial, jobs=1, chunk_points=2)
        piped = CampaignStore.create(tmp_path / "piped", grid)
        summary = run_campaign(piped, jobs=2, chunk_points=2)
        assert summary["executed"] == len(grid)
        assert self.store_bytes(tmp_path / "serial") == self.store_bytes(
            tmp_path / "piped"
        )

    def test_submit_ahead_serial_fallback_matches(self, tmp_path):
        """On a single-CPU box the planner pipelines serially — still
        the same bytes."""
        grid = self.sim_grid()
        a = CampaignStore.create(tmp_path / "a", grid)
        run_campaign(a, jobs=1, chunk_points=4)
        b = CampaignStore.create(tmp_path / "b", grid)
        run_campaign(b, jobs=4, chunk_points=4)
        assert self.store_bytes(tmp_path / "a") == self.store_bytes(
            tmp_path / "b"
        )

    def test_pipelined_respects_limit(self, tmp_path, two_cpus):
        grid = self.sim_grid()
        store = CampaignStore.create(tmp_path / "camp", grid)
        # 5 points keep two per worker, so the pool runs; the limit
        # still cuts the last 2-point chunk.
        summary = run_campaign(store, jobs=2, chunk_points=2, limit=5)
        assert summary["executed"] == 5
        assert store.n_completed == 5

    def test_default_chunking_feeds_every_worker(self, tmp_path, two_cpus):
        """A chunk is one pool task, so the default sizing must
        produce several chunks per worker (not one giant chunk that
        would idle the rest of the pool)."""
        grid = self.sim_grid()  # 6 points
        store = CampaignStore.create(tmp_path / "camp", grid)
        summary = run_campaign(store, jobs=2)
        # auto_chunk_size(6, 2) == 1 -> one chunk per point
        assert summary["chunks"] == len(grid)
        assert store.n_completed == len(grid)

    def test_fully_warm_campaign_forks_no_pool(
        self, tmp_path, monkeypatch, two_cpus
    ):
        """A resume with every point already stored must not pay for
        worker processes."""
        from repro.runner import executor as executor_module

        grid = self.sim_grid()
        store = CampaignStore.create(tmp_path / "camp", grid)
        run_campaign(store, jobs=1, chunk_points=2)

        def forbidden_pool(*args, **kwargs):
            raise AssertionError("pool forked for an all-warm campaign")

        monkeypatch.setattr(
            executor_module.multiprocessing, "Pool", forbidden_pool
        )
        summary = run_campaign(store, jobs=2, chunk_points=2)
        assert summary["executed"] == 0
        assert store.n_completed == len(grid)


class TestSimCampaignAndMigration:
    def sim_grid(self):
        return parse_grid_spec(
            {
                "kind": "bench",
                "backend": "sim",
                "base": {"n_threads": 2, "theta": 1, "iterations": 2},
                "axes": {
                    "approach": ["pt2pt_single", "pt2pt_part"],
                    "total_bytes": [1024, 65536],
                },
            }
        )

    def test_sim_campaign_matches_runner(self, tmp_path):
        grid = self.sim_grid()
        store = CampaignStore.create(tmp_path / "camp", grid)
        summary = run_campaign(store, chunk_points=3)
        assert summary["executed"] == len(grid)
        rows = dict(store.iter_rows())
        report = run_scenarios(grid.expand(), jobs=1)
        for index in range(len(grid)):
            assert rows[index] == report.result_dicts[index]

    def test_append_chunk_rows_must_cover_their_ranges(self, tmp_path):
        """A chunk whose rows do not back every point of its ranges is
        refused: it would mark points complete that no read returns,
        and resume would never recompute them."""
        grid = self.sim_grid()
        store = CampaignStore.create(tmp_path / "camp", grid)
        result = {"times": [1.0], "retries": 0, "verified": True}
        with pytest.raises(ValueError):
            store.append_chunk([[0, result]], ENC_RESULT, [(0, 3)])
        with pytest.raises(ValueError):  # a row outside the ranges
            store.append_chunk(
                [[0, result], [3, result]], ENC_RESULT, [(0, 1)]
            )
        assert store.n_completed == 0
        assert list((tmp_path / "camp" / "segments").glob("*")) == []
        # duplicates and any row order are fine: distinct indices count
        store.append_chunk(
            [[1, result], [0, result], [1, result]], ENC_RESULT, [(0, 2)]
        )
        assert store.n_completed == 2
        assert len(dict(store.iter_rows())) == 2
