"""Telemetry core: registry semantics, histogram binning, spans, merge."""

import json
import math

import pytest

from repro import telemetry
from repro.telemetry import (
    HISTOGRAM_EDGES,
    Histogram,
    MetricsRegistry,
    MetricsSink,
    environment_provenance,
    read_metrics_jsonl,
    using_registry,
)


@pytest.fixture(autouse=True)
def _clean_globals():
    """No test leaks an active registry or trace sink into the next."""
    yield
    telemetry.set_registry(None)
    telemetry.set_trace_sink(None)


class TestDisabledPath:
    def test_no_registry_by_default(self):
        assert telemetry.active_registry() is None

    def test_module_calls_are_noops_without_registry(self):
        telemetry.count("x")
        telemetry.gauge("x", 1.0)
        telemetry.observe("x", 1.0)
        with telemetry.span("x", tag="v"):
            pass

    def test_disabled_span_is_shared_singleton(self):
        assert telemetry.span("a") is telemetry.span("b")

    def test_disabled_registry_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        reg.count("c")
        reg.gauge("g", 2.0)
        reg.observe("h", 0.5)
        with reg.span("s"):
            pass
        snap = reg.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}
        assert snap["span_totals"] == {}
        assert snap["spans"] == []

    def test_merge_into_disabled_registry_is_noop(self):
        src = MetricsRegistry()
        src.count("c", 3)
        reg = MetricsRegistry(enabled=False)
        reg.merge_snapshot(src.snapshot())
        assert reg.counters == {}


class TestHistogram:
    def test_exact_edge_values_land_in_upper_bin(self):
        # Bin i covers [edge[i-1], edge[i]): an exact edge value opens
        # the next bin, never rounds down into the previous one.
        for i, edge in enumerate(HISTOGRAM_EDGES[:-1]):
            assert Histogram.bin_index(edge) == i + 1

    def test_values_between_edges(self):
        assert Histogram.bin_index(1.5) == Histogram.bin_index(1.0)
        assert Histogram.bin_index(0.3) == Histogram.bin_index(0.25)
        assert Histogram.bin_index(3.0) == Histogram.bin_index(2.0)

    def test_negative_exponents_floor_correctly(self):
        # floor(log2(0.3)) = -2, not -1: int() truncation would misbin.
        assert Histogram.bin_index(0.3) != Histogram.bin_index(0.5)

    def test_underflow_and_overflow_buckets(self):
        assert Histogram.bin_index(0.0) == 0
        assert Histogram.bin_index(-1.0) == 0
        assert Histogram.bin_index(HISTOGRAM_EDGES[0] / 2) == 0
        assert Histogram.bin_index(HISTOGRAM_EDGES[-1]) == Histogram.N_BINS - 1
        assert Histogram.bin_index(1e30) == Histogram.N_BINS - 1

    def test_matches_float_log2_away_from_edges(self):
        for value in (1e-5, 3.7e-4, 0.02, 0.7, 1.3, 17.0, 900.0):
            expected = math.floor(math.log2(value)) - (-20) + 1
            expected = max(0, min(Histogram.N_BINS - 1, expected))
            assert Histogram.bin_index(value) == expected, value

    def test_observe_accumulates_stats(self):
        hist = Histogram()
        for value in (0.5, 1.5, 2.5):
            hist.observe(value)
        d = hist.to_dict()
        assert d["count"] == 3
        assert d["sum"] == pytest.approx(4.5)
        assert d["min"] == 0.5
        assert d["max"] == 2.5
        assert sum(d["bins"]) == 3

    def test_merge_is_elementwise(self):
        a, b = Histogram(), Histogram()
        a.observe(1.0)
        b.observe(1.0)
        b.observe(100.0)
        a.merge(b.to_dict())
        d = a.to_dict()
        assert d["count"] == 3
        assert d["max"] == 100.0
        assert d["bins"][Histogram.bin_index(1.0)] == 2


class TestSpans:
    def test_nesting_parent_and_depth(self):
        reg = MetricsRegistry()
        with using_registry(reg):
            with telemetry.span("outer"):
                with telemetry.span("inner"):
                    pass
        by_name = {s["name"]: s for s in reg.spans}
        assert by_name["outer"]["parent"] is None
        assert by_name["outer"]["depth"] == 0
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["inner"]["depth"] == 1

    def test_exception_safety(self):
        reg = MetricsRegistry()
        with using_registry(reg):
            with pytest.raises(RuntimeError):
                with telemetry.span("fails"):
                    raise RuntimeError("boom")
            # the failed span still recorded, the stack unwound
            with telemetry.span("after"):
                pass
        assert reg.span_totals["fails"][0] == 1
        assert {s["name"]: s["depth"] for s in reg.spans} == {
            "fails": 0,
            "after": 0,
        }

    def test_totals_accumulate_past_raw_cap(self, monkeypatch):
        monkeypatch.setattr(telemetry, "MAX_RAW_SPANS", 5)
        reg = MetricsRegistry()
        with using_registry(reg):
            for _ in range(10):
                with telemetry.span("hot"):
                    pass
        assert len(reg.spans) == 5
        assert reg.span_totals["hot"][0] == 10

    def test_span_tags_key_metrics(self):
        reg = MetricsRegistry()
        reg.count("points", 2, kind="bench")
        reg.count("points", 3, kind="bench")
        assert reg.counters == {"points{kind=bench}": 5}


class TestMergeSnapshot:
    def test_counters_and_totals_add_gauges_last_wins(self):
        parent = MetricsRegistry()
        parent.count("c", 1)
        parent.gauge("g", 1.0)
        with parent.span("s"):
            pass
        worker = MetricsRegistry()
        worker.count("c", 2)
        worker.gauge("g", 9.0)
        worker.observe("h", 0.25)
        with worker.span("s"):
            pass
        parent.merge_snapshot(worker.snapshot_and_reset())
        assert parent.counters["c"] == 3
        assert parent.gauges["g"] == 9.0
        assert parent.span_totals["s"][0] == 2
        assert parent.histograms["h"].count == 1
        # the worker shipped a delta and zeroed itself
        assert worker.counters == {} and worker.span_totals == {}

    def test_worker_raw_spans_not_grafted(self):
        parent = MetricsRegistry()
        worker = MetricsRegistry()
        with worker.span("w"):
            pass
        parent.merge_snapshot(worker.snapshot())
        assert parent.spans == []
        assert parent.span_totals["w"][0] == 1


class TestJsonlRoundTrip:
    def test_write_and_read(self, tmp_path):
        reg = MetricsRegistry()
        reg.count("campaign.points", 42)
        reg.gauge("planner.workers", 4)
        reg.observe("executor.window_occupancy", 3)
        with reg.span("campaign.run"):
            with reg.span("kernel.eval"):
                pass
        path = tmp_path / "metrics.jsonl"
        with MetricsSink(path, producer={"tool": "test"}) as sink:
            sink.write_snapshot(reg.snapshot())
            sink.close(summary={"ok": True})
        out = read_metrics_jsonl(path)
        assert out["header"]["schema"] == telemetry.TELEMETRY_SCHEMA
        assert out["header"]["producer"] == {"tool": "test"}
        assert out["header"]["env"]["cpu_count"] >= 1
        assert out["counters"]["campaign.points"] == 42
        assert out["gauges"]["planner.workers"] == 4
        assert out["histograms"]["executor.window_occupancy"]["count"] == 1
        assert out["span_totals"]["campaign.run"]["count"] == 1
        assert {s["name"] for s in out["spans"]} == {
            "campaign.run",
            "kernel.eval",
        }
        assert out["summary"] == {"ok": True}

    def test_every_line_is_json(self, tmp_path):
        reg = MetricsRegistry()
        reg.count("c")
        path = tmp_path / "metrics.jsonl"
        with MetricsSink(path) as sink:
            sink.write_snapshot(reg.snapshot())
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_headerless_file_rejected(self, tmp_path):
        path = tmp_path / "not-metrics.jsonl"
        path.write_text('{"type":"counter","name":"c","value":1}\n')
        with pytest.raises(ValueError):
            read_metrics_jsonl(path)

    def test_trace_records_stream(self, tmp_path):
        from repro.sim.trace import TraceRecord

        path = tmp_path / "metrics.jsonl"
        sink = telemetry.MetricsSink(path, producer={})
        sink.write_trace(TraceRecord(1.5e-6, "nic", "tx", {"nbytes": 64}))
        sink.close()
        out = read_metrics_jsonl(path)
        assert out["traces"] == [
            {"t": 1.5e-6, "category": "nic", "event": "tx",
             "fields": {"nbytes": 64}}
        ]


class TestHelpers:
    def test_environment_provenance_fields(self):
        env = environment_provenance()
        assert set(env) == {
            "python", "implementation", "platform", "machine", "cpu_count",
        }
        assert env["cpu_count"] >= 1

    def test_using_registry_restores_previous(self):
        outer = MetricsRegistry()
        inner = MetricsRegistry()
        telemetry.set_registry(outer)
        with using_registry(inner):
            assert telemetry.active_registry() is inner
        assert telemetry.active_registry() is outer
