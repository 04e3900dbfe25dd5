"""Binary columnar segments, the async segment writer, and the
streaming latest-wins read path."""

import hashlib
import json
import tracemalloc

import pytest

from repro.runner import CampaignStore, parse_grid_spec, run_campaign
from repro.runner.campaign import ENC_BENCH_COLS, ENC_PATTERN_BIN
from repro.runner.executor import AsyncSegmentWriter
from repro.runner.scenario import execute, result_to_dict


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


def pattern_spec():
    return {
        "kind": "pattern",
        "backend": "analytic",
        "base": {"n_ranks": 8, "iterations": 2},
        "axes": {
            "pattern": ["halo3d", "fft"],
            "approach": ["pt2pt_single", "pt2pt_part"],
            "msg_bytes": [16384, 1 << 20],
            "n_threads": [2, 4],
            "noise": ["none", "gaussian"],
            "noise_us": [0.0, 40.0],
        },
    }


def wide_spec(n_sizes=256):
    """A larger grid for the many-small-segments memory fixture."""
    return {
        "kind": "bench",
        "backend": "analytic",
        "base": {"theta": 2, "iterations": 3},
        "axes": {
            "approach": ["pt2pt_single", "pt2pt_part"],
            "total_bytes": {
                "range": [1024, 1024 + n_sizes * 1024, 1024]
            },
            "n_threads": [1, 2, 4, 8],
            "gamma_us_per_mb": [0.0, 100.0],
        },
    }


def segment_bytes(root):
    """{relative name: file bytes} for every segment under ``root``."""
    return {
        p.name: p.read_bytes()
        for p in (root / "segments").glob("*")
    }


class TestBinarySegments:
    def test_binary_campaign_round_trips_vs_jsonl(self, tmp_path):
        """A binary campaign's rows survive a JSONL export exactly:
        JSON float repr round-trips bitwise, so the equality is exact,
        not approximate."""
        import io

        grid = parse_grid_spec(analytic_spec())
        binary = CampaignStore.create(
            tmp_path / "bin", grid, compression="binary"
        )
        run_campaign(binary, chunk_points=40)
        seg_files = list((tmp_path / "bin" / "segments").glob("*"))
        assert seg_files
        assert all(p.name.endswith(".bin") for p in seg_files)
        buffer = io.StringIO()
        assert binary.export_jsonl(buffer) == len(grid)
        exported = {
            record["index"]: record["result"]
            for record in map(json.loads, buffer.getvalue().splitlines())
        }
        assert exported == dict(binary.iter_rows())

    def test_binary_pattern_campaign_round_trips(self, tmp_path):
        """Both accepted ``compression`` values build the same store,
        byte for byte, and it reads back the per-point model."""
        from repro.runner.scenario import execute

        grid = parse_grid_spec(pattern_spec())
        plain = CampaignStore.create(tmp_path / "plain", grid)
        run_campaign(plain, chunk_points=48)
        binary = CampaignStore.create(
            tmp_path / "bin", grid, compression="binary"
        )
        run_campaign(binary, chunk_points=48)
        assert all(
            p.name.endswith(".bin")
            for p in (tmp_path / "bin" / "segments").glob("*")
        )
        assert segment_bytes(tmp_path / "bin") == segment_bytes(
            tmp_path / "plain"
        )
        rows = dict(binary.iter_rows())
        for index in range(0, len(grid), 7):
            native = execute(grid.scenario_at(index))
            assert rows[index]["times"] == [float(t) for t in native.times]
            assert rows[index]["n_links"] == native.n_links

    def test_binary_header_is_self_describing(self, tmp_path):
        grid = parse_grid_spec(analytic_spec())
        store = CampaignStore.create(
            tmp_path / "camp", grid, compression="binary"
        )
        run_campaign(store, chunk_points=40)
        seg = sorted((tmp_path / "camp" / "segments").glob("*.bin"))[0]
        with seg.open("rb") as handle:
            header = json.loads(handle.readline())
        assert header["encoding"] == "bench-bin"
        assert header["columns"] == [["times", "<f8"]]
        assert header["count"] == 40

    def test_binary_resume_from_segments(self, tmp_path):
        """index.json is an accelerator for binary stores too: resume
        works from the .bin headers alone."""
        grid = parse_grid_spec(analytic_spec())
        store = CampaignStore.create(
            tmp_path / "camp", grid, compression="binary"
        )
        run_campaign(store, chunk_points=64)
        (tmp_path / "camp" / "index.json").unlink()
        reopened = CampaignStore.open(tmp_path / "camp")
        assert reopened.n_completed == len(grid)
        assert run_campaign(reopened)["executed"] == 0

    def test_truncated_binary_payload_is_ignored_not_fatal(self, tmp_path):
        """A .bin whose payload is short of the header's declared
        layout must land in 'ignored' (lost coverage reruns)."""
        grid = parse_grid_spec(analytic_spec())
        store = CampaignStore.create(
            tmp_path / "camp", grid, compression="binary"
        )
        run_campaign(store, chunk_points=40)
        victim = sorted((tmp_path / "camp" / "segments").glob("*.bin"))[0]
        victim.write_bytes(victim.read_bytes()[:-16])
        (tmp_path / "camp" / "index.json").unlink()
        reopened = CampaignStore.open(tmp_path / "camp")
        index = json.loads((tmp_path / "camp" / "index.json").read_text())
        assert str(victim.relative_to(tmp_path / "camp")) in index["ignored"]
        assert reopened.n_completed == len(grid) - 40
        assert run_campaign(reopened)["executed"] == 40

    def test_truncated_binary_header_is_ignored_not_fatal(self, tmp_path):
        """Truncation *inside* the header line (no trailing newline)."""
        grid = parse_grid_spec(analytic_spec())
        store = CampaignStore.create(
            tmp_path / "camp", grid, compression="binary"
        )
        run_campaign(store, chunk_points=40)
        victim = sorted((tmp_path / "camp" / "segments").glob("*.bin"))[0]
        victim.write_bytes(victim.read_bytes()[:20])
        (tmp_path / "camp" / "index.json").unlink()
        reopened = CampaignStore.open(tmp_path / "camp")
        index = json.loads((tmp_path / "camp" / "index.json").read_text())
        assert str(victim.relative_to(tmp_path / "camp")) in index["ignored"]
        assert run_campaign(reopened)["executed"] == 40

    @pytest.mark.parametrize(
        "spec, good, n_good, bad, n_bad",
        [
            (analytic_spec, ENC_BENCH_COLS, 1, ENC_PATTERN_BIN, 3),
            (pattern_spec, ENC_PATTERN_BIN, 3, ENC_BENCH_COLS, 1),
        ],
    )
    def test_append_columns_refuses_the_other_kind(
        self, tmp_path, spec, good, n_good, bad, n_bad
    ):
        """A column chunk is encoded as its store's kind: the other
        kind's encoding (a bench store fed pattern columns, or the
        reverse) raises and writes nothing."""
        store = CampaignStore.create(tmp_path / "camp", parse_grid_spec(spec()))
        columns = [[1.0, 2.0, 3.0], [8, 8, 8], [2, 2, 2]]
        with pytest.raises(ValueError, match="column encoding"):
            store.append_columns(0, 3, columns[:n_bad], bad)
        with pytest.raises(ValueError, match="column encoding"):
            store.append_columns(0, 3, columns[:n_good], "result")
        assert store.n_completed == 0
        assert list((tmp_path / "camp" / "segments").glob("*")) == []
        store.append_columns(0, 3, columns[:n_good], good)
        assert [len(c) for _, c in store.iter_columns()] == [n_good]

    @pytest.mark.parametrize("spec", [analytic_spec, pattern_spec])
    def test_default_iterations_come_from_the_spec(self, tmp_path, spec):
        """With ``iterations`` in neither base nor axes, a binary
        point's row form repeats its time the spec's default number of
        times: the same dict the scalar model's result serializes to."""
        payload = spec()
        del payload["base"]["iterations"]
        grid = parse_grid_spec(payload)
        store = CampaignStore.create(tmp_path / "camp", grid)
        run_campaign(store, chunk_points=16)
        default = grid.scenario_at(0).spec.iterations
        for index, result in store.iter_rows():
            scenario = grid.scenario_at(index)
            assert len(result["times"]) == default
            assert result == result_to_dict(scenario, execute(scenario))


class TestCompactBinary:
    def test_compact_binary_keeps_result_rows_jsonl(self, tmp_path):
        """Full-result rows have no columnar form: compaction keeps
        them JSONL while the analytic columns stay binary."""
        grid = parse_grid_spec(analytic_spec())
        store = CampaignStore.create(tmp_path / "camp", grid)
        run_campaign(store, chunk_points=40, limit=80)
        result_rows = [
            [i, {"times": [1.0, 2.0], "retries": 0, "verified": True}]
            for i in range(100, 110)
        ]
        store.append_chunk(result_rows, [(100, 110)])
        before = dict(store.iter_rows())
        store.compact()
        suffixes = {
            p.suffix for p in (tmp_path / "camp" / "segments").glob("*")
        }
        assert suffixes == {".bin", ".jsonl"}
        assert dict(store.iter_rows()) == before


def replay(appends):
    """Latest-wins reference: the appends' rows replayed in order
    into a dict, a later append overwriting an earlier one."""
    rows = {}
    for append in appends:
        rows.update(append)
    return rows


class TestMixedFormatStore:
    def _append_synthetic(self, store, start, stop, scale):
        """One columnar append with values derived from the index, so
        a twin store fed the same appends holds the same rows."""
        times = [float(i) * scale for i in range(start, stop)]
        store.append_columns(start, stop, [times], ENC_BENCH_COLS)

    @staticmethod
    def _result_rows(start, stop, scale):
        return [
            [i, {"times": [float(i) * scale] * 3, "retries": 0,
                 "verified": True}]
            for i in range(start, stop)
        ]

    def test_mixed_formats_with_overlap_match_pure_jsonl_twin(
        self, tmp_path
    ):
        """Binary and ``result`` segments with overlapping ranges in
        ONE store: iter_rows, query, resume, and compact all resolve
        latest-append-wins and agree with a pure-JSONL twin fed the
        same appends as result rows, and with a dict replay."""
        grid = parse_grid_spec(analytic_spec())
        mixed = CampaignStore.create(tmp_path / "mixed", grid)
        twin = CampaignStore.create(tmp_path / "twin", grid)
        appends = [
            (0, 20, 1.0, "bin"),
            (10, 35, 2.0, "result"),    # overlaps the first
            (25, 48, 3.0, "bin"),       # overlaps the second
        ]
        for start, stop, scale, form in appends:
            rows = self._result_rows(start, stop, scale)
            if form == "bin":
                self._append_synthetic(mixed, start, stop, scale)
            else:
                mixed.append_chunk(rows, [(start, stop)])
            twin.append_chunk(rows, [(start, stop)])
        suffixes = {
            p.suffix for p in (tmp_path / "mixed" / "segments").glob("*")
        }
        assert suffixes == {".jsonl", ".bin"}

        expected = replay(
            {i: row for i, row in self._result_rows(start, stop, scale)}
            for start, stop, scale, _ in appends
        )
        assert dict(mixed.iter_rows()) == expected
        assert dict(twin.iter_rows()) == expected
        # latest-wins on the overlaps, spot-checked directly
        assert mixed.n_completed == 48
        assert expected[5]["times"][0] == 5.0          # only append 1
        assert expected[15]["times"][0] == 30.0        # append 2 beats 1
        assert expected[30]["times"][0] == 90.0        # append 3 beats 2

        # query agrees across formats
        assert list(mixed.query(approach="pt2pt_part")) == list(
            twin.query(approach="pt2pt_part")
        )

        # resume: the index rebuilds from the mixed headers alone
        (tmp_path / "mixed" / "index.json").unlink()
        reopened = CampaignStore.open(tmp_path / "mixed")
        assert reopened.n_completed == 48
        assert dict(reopened.iter_rows()) == expected

        # compact collapses the overlaps without losing latest-wins
        reopened.compact()
        assert dict(reopened.iter_rows()) == expected
        assert reopened.completed_ranges() == [(0, 48)]

    def test_overlapping_appends_same_format_latest_wins(self, tmp_path):
        """The merge tiebreak alone (no format mixing): the highest
        segment sequence wins each contested index."""
        grid = parse_grid_spec(analytic_spec())
        store = CampaignStore.create(tmp_path / "camp", grid)
        self._append_synthetic(store, 0, 50, 1.0)
        self._append_synthetic(store, 0, 50, 2.0)
        self._append_synthetic(store, 25, 60, 5.0)
        rows = dict(store.iter_rows())
        assert len(rows) == 60
        assert rows[0]["times"][0] == 0.0
        assert rows[10]["times"][0] == 20.0
        assert rows[30]["times"][0] == 150.0
        assert rows[59]["times"][0] == 295.0


class TestQueryDigitwise:
    def test_query_matches_bruteforce_probe(self, tmp_path):
        grid = parse_grid_spec(analytic_spec())
        store = CampaignStore.create(tmp_path / "camp", grid)
        run_campaign(store, chunk_points=40)

        def brute(**filters):
            out = []
            for index, result in store.iter_rows():
                assignment = store.grid.assignment_at(index)
                probe = {**grid.base, **assignment}
                if all(
                    name in probe and probe[name] == value
                    for name, value in filters.items()
                ):
                    out.append((index, assignment, result))
            return out

        for filters in (
            {"approach": "pt2pt_part"},
            {"approach": "pt2pt_part", "gamma_us_per_mb": 200.0},
            {"total_bytes": 1 << 12},
            {"iterations": 3},                       # base field
            {"approach": "pt2pt_part", "iterations": 3},
        ):
            assert list(store.query(**filters)) == brute(**filters)

    def test_query_mismatches_yield_nothing(self, tmp_path):
        grid = parse_grid_spec(analytic_spec())
        store = CampaignStore.create(tmp_path / "camp", grid)
        run_campaign(store, chunk_points=64, limit=64)
        assert list(store.query(approach="no_such_approach")) == []
        assert list(store.query(iterations=999)) == []       # base mismatch
        assert list(store.query(no_such_field=1)) == []      # unknown name


#: SHA-256 over the segments (name, NUL, bytes, in name order) and
#: ``index.json`` of ``analytic_spec()`` run in 40-point chunks with
#: every append made inline on the compute thread, before the async
#: writer became the only analytic write path.
SYNC_STORE_SHA256 = (
    "13736c9650b8d86f5cd330fbdb2b5102cf1272e224c618f037c798759809211c"
)


def store_digest(root):
    digest = hashlib.sha256()
    for path in sorted((root / "segments").glob("*")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    digest.update((root / "index.json").read_bytes())
    return digest.hexdigest()


class TestAsyncSegmentWriter:
    def test_async_store_is_byte_identical_to_sync(self, tmp_path):
        """The FIFO writer thread must not change a single byte of the
        store — same segment names, same contents, same index as the
        inline appends that the pinned digest was taken from."""
        grid = parse_grid_spec(analytic_spec())
        for compression in ("none", "binary"):
            store = CampaignStore.create(
                tmp_path / compression, grid, compression=compression
            )
            run_campaign(store, chunk_points=40)
            assert store_digest(store.root) == SYNC_STORE_SHA256, compression

    def test_writer_error_propagates_to_producer(self):
        def boom():
            raise RuntimeError("disk on fire")

        writer = AsyncSegmentWriter(depth=2)
        writer.submit(boom)
        with pytest.raises(RuntimeError, match="disk on fire"):
            # the error surfaces on a later submit or at close
            for _ in range(50):
                writer.submit(lambda: None)
            writer.close()

    def test_writer_close_reraises_and_drains(self):
        calls = []

        def boom():
            raise ValueError("first failure wins")

        writer = AsyncSegmentWriter(depth=1)
        # The error surfaces on whichever call observes it first — a
        # later submit or close — but exactly once, and the queue keeps
        # draining after the failure so the producer never deadlocks.
        with pytest.raises(ValueError, match="first failure wins"):
            writer.submit(boom)
            for _ in range(20):
                writer.submit(calls.append, 1)
            writer.close()
        writer.close()  # idempotent, error already delivered

    def test_writer_runs_fifo(self):
        order = []
        with AsyncSegmentWriter(depth=2) as writer:
            for i in range(32):
                writer.submit(order.append, i)
        assert order == list(range(32))

    def test_writer_error_fails_run_campaign(self, tmp_path, monkeypatch):
        grid = parse_grid_spec(analytic_spec())
        store = CampaignStore.create(tmp_path / "camp", grid)

        def broken_append(*args, **kwargs):
            raise OSError("no space left on device")

        monkeypatch.setattr(store, "append_columns", broken_append)
        with pytest.raises(OSError, match="no space left"):
            run_campaign(store, chunk_points=40)

    def test_writer_telemetry_merges_into_parent(self, tmp_path):
        """Spans recorded on the writer thread (store.encode/write/
        index) must land in the session registry at close — and the
        queue-depth histogram must be present."""
        from repro import telemetry

        grid = parse_grid_spec(analytic_spec())
        registry = telemetry.MetricsRegistry()
        telemetry.set_registry(registry)
        try:
            store = CampaignStore.create(
                tmp_path / "camp", grid, compression="binary"
            )
            run_campaign(store, chunk_points=40)
            snapshot = registry.snapshot()
        finally:
            telemetry.set_registry(None)
        totals = snapshot["span_totals"]
        for name in ("store.encode", "store.write", "store.index"):
            assert name in totals, name
            assert totals[name]["count"] > 0
        assert "store.writer.queue_depth" in snapshot["histograms"]


class TestThreadLocalRegistry:
    def test_thread_override_isolates_and_merges(self):
        import threading

        from repro import telemetry

        main_reg = telemetry.MetricsRegistry()
        telemetry.set_registry(main_reg)
        try:
            side_reg = telemetry.MetricsRegistry()

            def worker():
                telemetry.set_thread_registry(side_reg)
                try:
                    with telemetry.span("side.work"):
                        pass
                finally:
                    telemetry.set_thread_registry(None)

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            with telemetry.span("main.work"):
                pass
            # isolation: the worker's span never touched the global
            assert "side.work" not in main_reg.snapshot()["span_totals"]
            assert "side.work" in side_reg.snapshot()["span_totals"]
            # the delta-merge protocol the writer uses
            main_reg.merge_snapshot(side_reg.snapshot_and_reset())
            assert "side.work" in main_reg.snapshot()["span_totals"]
        finally:
            telemetry.set_registry(None)


class TestStreamingMemory:
    def test_iter_rows_memory_bounded_by_segment(self, tmp_path):
        """Many small segments: a full drain must hold O(one segment),
        not the campaign — its traced peak stays under a byte bound
        built from the index and segment sizes, which materializing
        every row (about 1.4 MB here) exceeds many times over."""
        grid = parse_grid_spec(wide_spec())
        root = tmp_path / "camp"
        store = CampaignStore.create(root, grid)
        run_campaign(store, chunk_points=64)
        n_segments = len(list((root / "segments").glob("*")))
        assert n_segments >= 64

        sum(1 for _ in store.iter_rows())  # warm imports and caches
        tracemalloc.start()
        count = sum(1 for _ in store.iter_rows())
        _, stream_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert count == len(grid)

        # The parsed index (under 3x its JSON text) plus 1 KiB for each
        # row of one 64-point segment: 98,539 B for this store.
        bound = 3 * (root / "index.json").stat().st_size + 64 * 1024
        assert stream_peak < bound, (
            f"streaming drain peaked at {stream_peak} bytes, bound "
            f"{bound} — not O(one segment)"
        )

    def test_compact_streams_and_dedupes(self, tmp_path):
        """compact over many small overlapping segments produces the
        same rows while buffering at most one output segment."""
        grid = parse_grid_spec(wide_spec())
        store = CampaignStore.create(tmp_path / "camp", grid)
        run_campaign(store, chunk_points=64)
        before = dict(store.iter_rows())

        tracemalloc.start()
        summary = store.compact()
        _, compact_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert summary["points"] == len(grid)
        assert summary["segments_after"] < summary["segments_before"]
        assert dict(store.iter_rows()) == before
        # one output buffer (8192 rows) dominates the bound; the whole
        # campaign would be ~len(grid) rows of decoded dicts on top
        assert compact_peak < 24 * 1024 * 1024
