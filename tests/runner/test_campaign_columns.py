"""The columnar zero-copy read pipeline:
``iter_columns``/``read_columns`` range-level latest-wins merge,
vectorized ``query``, npz export, column-moving ``compact``, and the
``slice_report`` consumer."""

import json
import tracemalloc

import numpy as np
import pytest

from repro.runner import CampaignStore, parse_grid_spec, run_campaign
from repro.runner.campaign import (
    ENC_BENCH_COLS,
    ENC_RESULT,
    _index_array_to_ranges,
    _ranges_to_index_array,
    _subtract_ranges,
    slice_report,
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


def mixed_overlapping_store(tmp_path):
    """Segments from the single-writer and two writer-token namespaces
    with overlapping ranges in one store — scales 1.0/2.0/3.0 keyed by
    append, latest-append-wins."""
    grid = parse_grid_spec(analytic_spec())
    CampaignStore.create(tmp_path / "mixed", grid)
    appends = [(0, 20, 1.0), (10, 35, 2.0), (25, 48, 3.0)]
    for (start, stop, scale), token in zip(appends, [None, "wa", "wb"]):
        store = CampaignStore.open(tmp_path / "mixed", writer_token=token)
        times = [float(i) * scale for i in range(start, stop)]
        store.append_columns(start, stop, [times], ENC_BENCH_COLS)
    names = sorted(p.name for p in (tmp_path / "mixed" / "segments").glob("*"))
    assert names == [
        "seg-000000.bin", "seg-wa-000001.bin", "seg-wb-000002.bin",
    ]
    return store


def columns_as_dict(store, **kwargs):
    """Drain iter_columns into {index: {name: value}} for comparison."""
    out = {}
    for indices, columns in store.iter_columns(**kwargs):
        for k, index in enumerate(indices.tolist()):
            out[index] = {
                name: column[k].item()
                for name, column in columns.items()
            }
    return out


class TestRangeArithmetic:
    def test_subtract_ranges(self):
        assert _subtract_ranges(0, 10, []) == [(0, 10)]
        assert _subtract_ranges(0, 10, [(0, 10)]) == []
        assert _subtract_ranges(0, 10, [(3, 5), (7, 8)]) == [
            (0, 3), (5, 7), (8, 10),
        ]
        assert _subtract_ranges(5, 15, [(0, 7), (12, 99)]) == [(7, 12)]
        assert _subtract_ranges(5, 15, [(0, 3)]) == [(5, 15)]

    def test_index_array_round_trip(self):
        ranges = [(0, 3), (7, 8), (20, 25)]
        indices = _ranges_to_index_array(ranges)
        assert indices.tolist() == [0, 1, 2, 7, 20, 21, 22, 23, 24]
        assert _index_array_to_ranges(indices) == ranges
        assert _ranges_to_index_array([]).tolist() == []
        assert _index_array_to_ranges(np.empty(0, dtype=np.int64)) == []


class TestIterColumnsEquivalence:
    def test_matches_iter_rows_on_mixed_overlapping_store(self, tmp_path):
        """The columnar and row views of the range-level merge resolve
        the same latest-wins duplicates — value-identical on a store
        mixing segment namespaces with overlaps."""
        store = mixed_overlapping_store(tmp_path)
        rows = dict(store.iter_rows())
        cols = columns_as_dict(store, chunk_size=7)
        assert sorted(cols) == sorted(rows)
        for index, values in cols.items():
            assert values["times"] == rows[index]["times"][0]
        # latest-wins on the overlaps, spot-checked directly
        assert cols[5]["times"] == 5.0          # only append 1
        assert cols[15]["times"] == 30.0        # append 2 beats 1
        assert cols[30]["times"] == 90.0        # append 3 beats 2

    def test_matches_iter_rows_on_pattern_store(self, tmp_path):
        grid = parse_grid_spec(pattern_spec())
        store = CampaignStore.create(
            tmp_path / "camp", grid, compression="binary"
        )
        run_campaign(store, chunk_points=48)
        rows = dict(store.iter_rows())
        cols = columns_as_dict(store)
        assert sorted(cols) == sorted(rows)
        for index, values in cols.items():
            assert values["times"] == rows[index]["times"][0]
            assert (
                values["bytes_per_iteration"]
                == rows[index]["bytes_per_iteration"]
            )
            assert values["n_links"] == rows[index]["n_links"]

    def test_chunk_sizes_agree_and_bound_chunks(self, tmp_path):
        grid = parse_grid_spec(analytic_spec())
        store = CampaignStore.create(
            tmp_path / "camp", grid, compression="binary"
        )
        run_campaign(store, chunk_points=40)
        whole_idx, whole_cols = store.read_columns()
        assert len(whole_idx) == len(grid)
        for chunk_size in (1, 7, 64, 10**6):
            chunks = list(store.iter_columns(chunk_size=chunk_size))
            sizes = [len(indices) for indices, _ in chunks]
            assert all(n <= chunk_size for n in sizes)
            assert all(n == chunk_size for n in sizes[:-1])
            assert np.array_equal(
                np.concatenate([i for i, _ in chunks]), whole_idx
            )
            assert np.array_equal(
                np.concatenate([c["times"] for _, c in chunks]),
                whole_cols["times"],
            )

    def test_read_columns_empty_store(self, tmp_path):
        grid = parse_grid_spec(analytic_spec())
        store = CampaignStore.create(tmp_path / "camp", grid)
        indices, columns = store.read_columns()
        assert len(indices) == 0
        assert columns["times"].dtype == np.dtype("<f8")
        assert list(store.iter_columns()) == []

    def test_result_rows_have_no_columnar_form(self, tmp_path):
        """Full-result rows carry no fixed column schema: iter_columns
        refuses, iter_rows/query still work."""
        grid = parse_grid_spec(analytic_spec())
        store = CampaignStore.create(tmp_path / "camp", grid)
        rows = [
            [i, {"times": [1.0, 2.0], "retries": 0, "verified": True}]
            for i in range(4)
        ]
        store.append_chunk(rows, ENC_RESULT, [(0, 4)])
        with pytest.raises(ValueError, match="iter_rows"):
            list(store.iter_columns())
        assert len(dict(store.iter_rows())) == 4
        assert len(list(store.query(approach="pt2pt_single"))) > 0


class TestWhereFilter:
    def test_where_matches_query_indices(self, tmp_path):
        store = mixed_overlapping_store(tmp_path)
        for filters in (
            {"approach": "pt2pt_part"},
            {"approach": "pt2pt_part", "gamma_us_per_mb": 200.0},
            {"total_bytes": 1 << 12},
            {"iterations": 3},                        # base field
        ):
            expected = [i for i, _, _ in store.query(**filters)]
            indices, _ = store.read_columns(where=filters)
            assert indices.tolist() == expected

    def test_never_matching_filters_yield_nothing(self, tmp_path):
        grid = parse_grid_spec(analytic_spec())
        store = CampaignStore.create(tmp_path / "camp", grid)
        run_campaign(store, chunk_points=64, limit=64)
        for filters in (
            {"approach": "no_such_approach"},
            {"iterations": 999},
            {"no_such_field": 1},
        ):
            indices, _ = store.read_columns(where=filters)
            assert len(indices) == 0


class TestVectorizedQuery:
    def test_query_matches_bruteforce_on_binary_store(self, tmp_path):
        grid = parse_grid_spec(analytic_spec())
        store = CampaignStore.create(
            tmp_path / "camp", grid, compression="binary"
        )
        run_campaign(store, chunk_points=40)

        def brute(**filters):
            out = []
            for index, result in store.iter_rows():
                assignment = store.assignment_at(index)
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
            {"iterations": 3},
            {},
        ):
            assert list(store.query(**filters)) == brute(**filters)

    def test_query_decodes_only_matches(self, tmp_path, monkeypatch):
        """The filter runs before any decode: on a filtered query, the
        number of points handed to _piece_results equals the number of
        matches, not the number of covered points — on both the
        columnar path and the row-stream path."""
        grid = parse_grid_spec(analytic_spec())
        columnar = CampaignStore.create(tmp_path / "cols", grid)
        run_campaign(columnar, chunk_points=40)
        rowform = CampaignStore.create(tmp_path / "rows", grid)
        rows = [
            [i, {"times": [float(i)], "retries": 0, "verified": True}]
            for i in range(len(grid))
        ]
        rowform.append_chunk(rows, ENC_RESULT, [(0, len(grid))])

        calls = {"n": 0}
        real_decode = CampaignStore._piece_results

        def counting_decode(self, encoding, indices, payload):
            calls["n"] += len(indices)
            return real_decode(self, encoding, indices, payload)

        monkeypatch.setattr(CampaignStore, "_piece_results", counting_decode)
        for store in (columnar, rowform):
            calls["n"] = 0
            matches = list(store.query(approach="pt2pt_part"))
            assert 0 < len(matches) < len(grid)
            assert calls["n"] == len(matches)


class TestSegmentRowStreaming:
    def _rewrite_segment_body(self, store, transform):
        """Rewrite the single segment's body lines through
        ``transform`` (header kept), then rebuild the index."""
        seg = sorted((store.root / "segments").glob("*.jsonl"))[0]
        header, *body = seg.read_text().strip().split("\n")
        seg.write_text("\n".join([header] + transform(body)) + "\n")
        store.rebuild_index()
        return seg

    @staticmethod
    def _row(index, value):
        return (
            f'[{index},{{"retries":0,"times":[{value!r}],"verified":true}}]'
        )

    def _result_row_store(self, tmp_path):
        grid = parse_grid_spec(analytic_spec())
        store = CampaignStore.create(tmp_path / "camp", grid)
        rows = [
            [i, {"times": [float(i)], "retries": 0, "verified": True}]
            for i in range(20)
        ]
        store.append_chunk(rows, ENC_RESULT, [(0, 20)])
        return store

    def test_unsorted_segment_falls_back_and_sorts(self, tmp_path):
        store = self._result_row_store(tmp_path)
        before = dict(store.iter_rows())
        self._rewrite_segment_body(
            store, lambda body: list(reversed(body))
        )
        assert dict(store.iter_rows()) == before

    def test_same_index_duplicates_later_wins(self, tmp_path):
        """Within one segment the later file position wins, whether
        the duplicate follows its twin or lands out of order."""
        store = self._result_row_store(tmp_path)
        # sorted order with adjacent duplicates: 5.0 then 99.0
        self._rewrite_segment_body(
            store,
            lambda body: body[:6] + [self._row(5, 99.0)] + body[6:],
        )
        assert dict(store.iter_rows())[5]["times"][0] == 99.0
        # unsorted: the duplicate lands early in the file, the original
        # 5.0 later — later position still wins after the sort
        self._rewrite_segment_body(
            store,
            lambda body: [self._row(5, 123.0)] + [
                line for line in body if "99.0" not in line
            ],
        )
        assert dict(store.iter_rows())[5]["times"][0] == 5.0


class TestChunkBoundedMemory:
    def test_iter_columns_memory_bounded_by_chunk(self, tmp_path):
        """A chunked columnar drain must hold O(one chunk), not the
        campaign: its traced peak stays under a byte bound built from
        the index and chunk sizes, which materializing every column
        (about 200 KB here) exceeds several times over."""
        grid = parse_grid_spec(wide_spec())
        root = tmp_path / "camp"
        store = CampaignStore.create(root, grid, compression="binary")
        run_campaign(store, chunk_points=64, async_write=False)
        n_segments = len(list((root / "segments").glob("*")))
        assert n_segments >= 64

        def drain():
            return sum(
                len(indices)
                for indices, _ in store.iter_columns(chunk_size=128)
            )

        drain()  # first-call imports and caches are not the drain's
        tracemalloc.start()
        count = drain()
        _, stream_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert count == len(grid)

        # The parsed index (under 3x its JSON text) plus eight chunks of
        # int64 indices and float64 columns: 49,387 B for this store.
        chunk_bytes = 128 * 8 * (1 + len(store.column_names()))
        bound = 3 * (root / "index.json").stat().st_size + 8 * chunk_bytes
        assert stream_peak < bound, (
            f"chunked columnar drain peaked at {stream_peak} bytes, "
            f"bound {bound} — not O(one chunk)"
        )


class TestCompactBinaryZeroDecode:
    def test_binary_to_binary_moves_columns_without_rows(
        self, tmp_path, monkeypatch
    ):
        """compact over an all-columnar store must never touch the row
        machinery: no _segment_rows, no _piece_results — column blocks
        move as array slices."""
        grid = parse_grid_spec(analytic_spec())
        store = CampaignStore.create(
            tmp_path / "camp", grid, compression="binary"
        )
        run_campaign(store, chunk_points=40)
        before = dict(store.iter_rows())
        n_before = len(list((tmp_path / "camp" / "segments").glob("*")))
        assert n_before > 1

        def forbidden(self, *args, **kwargs):
            raise AssertionError(
                "binary→binary compact touched the row path"
            )

        for name in ("_segment_rows", "_piece_results"):
            monkeypatch.setattr(CampaignStore, name, forbidden)
        summary = store.compact()
        monkeypatch.undo()

        assert summary["points"] == len(grid)
        assert summary["segments_after"] < n_before
        seg_files = list((tmp_path / "camp" / "segments").glob("*"))
        assert all(p.name.endswith(".bin") for p in seg_files)
        assert dict(store.iter_rows()) == before

    def test_mixed_to_binary_uses_columnar_path_and_dedupes(
        self, tmp_path
    ):
        store = mixed_overlapping_store(tmp_path)
        before = dict(store.iter_rows())
        summary = store.compact()
        assert summary["points"] == 48
        assert all(
            p.name.endswith(".bin")
            for p in (store.root / "segments").glob("*")
        )
        assert dict(store.iter_rows()) == before


class TestNpzExport:
    def test_round_trip_with_axis_decode(self, tmp_path):
        grid = parse_grid_spec(analytic_spec())
        store = CampaignStore.create(
            tmp_path / "camp", grid, compression="binary"
        )
        run_campaign(store, chunk_points=40)
        out = tmp_path / "dump.npz"
        count = store.export_npz(out, where={"approach": "pt2pt_part"})
        expected = list(store.query(approach="pt2pt_part"))
        assert count == len(expected)

        data = np.load(out, allow_pickle=True)
        assert data["indices"].tolist() == [i for i, _, _ in expected]
        assert set(data["axis_approach"]) == {"pt2pt_part"}
        for k, (index, assignment, result) in enumerate(expected):
            assert data["times"][k] == result["times"][0]
            assert (
                data["axis_total_bytes"][k] == assignment["total_bytes"]
            )
            assert (
                data["axis_gamma_us_per_mb"][k]
                == assignment["gamma_us_per_mb"]
            )


class TestSliceReport:
    def test_groups_match_bruteforce(self, tmp_path):
        grid = parse_grid_spec(analytic_spec())
        store = CampaignStore.create(tmp_path / "camp", grid)
        run_campaign(store, chunk_points=40)
        report = slice_report(store, {"approach": "pt2pt_part"})
        matches = list(store.query(approach="pt2pt_part"))
        assert report["points"] == len(matches)
        assert "approach" not in report["axes"]

        by_gamma = {}
        for _, assignment, result in matches:
            by_gamma.setdefault(assignment["gamma_us_per_mb"], []).append(
                result["times"][0]
            )
        groups = {g["value"]: g for g in report["axes"]["gamma_us_per_mb"]}
        assert set(groups) == set(by_gamma)
        for value, times in by_gamma.items():
            group = groups[value]
            assert group["n"] == len(times)
            assert group["mean_us"] == pytest.approx(
                1e6 * sum(times) / len(times)
            )
            assert group["min_us"] == pytest.approx(1e6 * min(times))
            assert group["max_us"] == pytest.approx(1e6 * max(times))

    def test_empty_slice(self, tmp_path):
        grid = parse_grid_spec(analytic_spec())
        store = CampaignStore.create(tmp_path / "camp", grid)
        report = slice_report(store)
        assert report["points"] == 0
        assert "times_us" not in report


def mask_loop_slice_report(store, slices=None):
    """The per-value-mask ``slice_report``: one boolean mask over every
    point per axis value — the reference the one-sort report must
    match byte for byte."""
    indices, columns = store.read_columns(where=slices or None)
    times = np.asarray(columns["times"])
    report = {
        "kind": store.header["kind"],
        "slice": dict(slices or {}),
        "points": int(len(indices)),
        "axes": {},
    }
    if len(indices):
        report["times_us"] = {
            "mean": float(times.mean()) * 1e6,
            "min": float(times.min()) * 1e6,
            "max": float(times.max()) * 1e6,
        }
    codes = store.grid.axis_codes_for_indices(indices)
    for name, values in store.grid.axes.items():
        if slices and name in slices:
            continue
        groups = []
        for code, value in enumerate(values):
            mask = codes[name] == code
            n = int(mask.sum())
            if not n:
                continue
            selected = times[mask]
            groups.append(
                {
                    "value": value,
                    "n": n,
                    "mean_us": float(selected.mean()) * 1e6,
                    "min_us": float(selected.min()) * 1e6,
                    "max_us": float(selected.max()) * 1e6,
                }
            )
        report["axes"][name] = groups
    return report


class TestSliceReportBitIdentical:
    @staticmethod
    def partial_resegmented_store(tmp_path):
        """Seven 100-point segments covering [0, 700) of a 1,024-point
        grid, then [150, 420) re-appended with jittered times (latest
        wins).  pt2pt_part covers only its first 188 points, so under
        that slice most total_bytes values have zero points."""
        grid = parse_grid_spec(wide_spec(n_sizes=64))
        full = CampaignStore.create(tmp_path / "full", grid)
        run_campaign(full)
        _, columns = full.read_columns()
        times = np.asarray(columns["times"])
        store = CampaignStore.create(tmp_path / "camp", grid)
        for start in range(0, 700, 100):
            store.append_columns(
                start, start + 100, [times[start:start + 100]],
                ENC_BENCH_COLS,
            )
        jitter = np.random.default_rng(7).uniform(0.5, 3.0, 270)
        store.append_columns(
            150, 420, [times[150:420] * jitter], ENC_BENCH_COLS
        )
        return store

    @staticmethod
    def dumps(report):
        return json.dumps(report, sort_keys=True)

    @pytest.mark.parametrize(
        "slices",
        [
            None,
            {"approach": "pt2pt_part"},
            {"iterations": 3},
            {"approach": "pt2pt_single", "n_threads": 4},
        ],
    )
    def test_matches_mask_loop(self, tmp_path, slices):
        store = self.partial_resegmented_store(tmp_path)
        assert len(list((store.root / "segments").glob("*.bin"))) == 8
        report = slice_report(store, slices)
        assert self.dumps(report) == self.dumps(
            mask_loop_slice_report(store, slices)
        )
        assert report["points"] > 0

    def test_zero_point_values_are_skipped(self, tmp_path):
        store = self.partial_resegmented_store(tmp_path)
        report = slice_report(store, {"approach": "pt2pt_part"})
        sizes = report["axes"]["total_bytes"]
        assert 0 < len(sizes) < len(store.grid.axes["total_bytes"])

    def test_data_is_order_sensitive(self, tmp_path):
        """Summing a group in another order changes some mean here, so
        a non-stable sort (which scrambles each group) would fail
        :meth:`test_matches_mask_loop`."""
        store = self.partial_resegmented_store(tmp_path)
        indices, columns = store.read_columns()
        times = np.asarray(columns["times"])
        codes = store.grid.axis_codes_for_indices(indices)
        for name in store.grid.axes:
            for code in np.unique(codes[name]).tolist():
                selected = times[codes[name] == code]
                if selected.mean() != selected[::-1].mean():
                    return
        pytest.fail("no group mean depends on the summation order")


class TestQueryPerPieceDecode:
    def test_rows_equal_per_row_reference(self, tmp_path):
        """query() decodes assignments and iteration counts once per
        piece; every yielded tuple equals the per-row decode
        ``(i, grid.assignment_at(i), result)``."""
        spec = wide_spec(n_sizes=12)
        del spec["base"]["iterations"]
        spec["axes"]["iterations"] = [1, 3, 5]
        grid = parse_grid_spec(spec)
        store = CampaignStore.create(tmp_path / "camp", grid)
        run_campaign(store, chunk_points=100)
        store.append_columns(
            50, 260, [np.linspace(1e-6, 2e-6, 210)], ENC_BENCH_COLS
        )
        indices, columns = store.read_columns()

        def reference(**filters):
            out = []
            for index, t in zip(indices.tolist(), columns["times"].tolist()):
                assignment = grid.assignment_at(index)
                probe = {**grid.base, **assignment}
                if all(probe.get(k) == v for k, v in filters.items()):
                    result = {
                        "times": [float(t)] * int(assignment["iterations"]),
                        "retries": 0,
                        "verified": True,
                    }
                    out.append((index, assignment, result))
            return out

        for filters in (
            {},
            {"iterations": 5},
            {"approach": "pt2pt_part", "iterations": 1},
            {"theta": 2, "n_threads": 8},
        ):
            rows = list(store.query(**filters))
            assert rows and rows == reference(**filters)


class TestVectorizedAxisCodes:
    def test_matches_assignment_at(self, tmp_path):
        grid = parse_grid_spec(analytic_spec())
        indices = np.array([0, 3, 17, len(grid) - 1], dtype=np.int64)
        codes = grid.axis_codes_for_indices(indices)
        for k, index in enumerate(indices.tolist()):
            assignment = grid.assignment_at(index)
            for name, values in grid.axes.items():
                assert values[int(codes[name][k])] == assignment[name]
