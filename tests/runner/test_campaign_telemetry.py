"""Telemetry through the campaign pipeline: spans, aggregation, CLI."""

import json

import pytest

from repro import telemetry
from repro.runner import CampaignStore, parse_grid_spec, run_campaign
from repro.runner.profile import (
    build_attribution,
    render_profile,
    resolve_metrics_path,
)
from repro.telemetry import (
    MetricsRegistry,
    read_metrics_jsonl,
    using_registry,
    write_metrics_jsonl,
)


@pytest.fixture(autouse=True)
def _clean_globals():
    yield
    telemetry.set_registry(None)
    telemetry.set_trace_sink(None)


BENCH_SPEC = {
    "kind": "bench",
    "backend": "analytic",
    "axes": {
        "approach": ["pt2pt_part", "pt2pt_many"],
        "total_bytes": [1 << 20, 4 << 20],
        "n_threads": [1, 2, 4, 8],
        "theta": [1, 2],
    },
}

PATTERN_SPEC = {
    "kind": "pattern",
    "backend": "analytic",
    "base": {"n_ranks": 4},
    "axes": {
        "pattern": ["halo3d", "fft"],
        "approach": ["pt2pt_part", "pt2pt_single"],
        "msg_bytes": [16384, 32768],
        "noise": ["none", "gaussian"],
        "noise_us": [0.0, 25.0],
    },
}

SIM_SPEC = {
    "kind": "bench",
    "backend": "sim",
    "base": {"iterations": 1, "warmup": 0},
    "axes": {
        "approach": ["pt2pt_part"],
        "total_bytes": [16384, 32768],
        "n_threads": [1, 2],
    },
}


def run_with_registry(root, spec, **kwargs):
    registry = MetricsRegistry()
    store = CampaignStore.create(root, parse_grid_spec(spec))
    with using_registry(registry):
        summary = run_campaign(store, **kwargs)
    return store, registry, summary


class TestCampaignInstrumentation:
    def test_analytic_run_records_pipeline_spans(self, tmp_path):
        store, registry, summary = run_with_registry(
            tmp_path / "camp", BENCH_SPEC
        )
        totals = registry.span_totals
        for name in (
            "campaign.run",
            "campaign.decode",
            "kernel.eval",
            "store.encode",
            "store.write",
            "store.index",
        ):
            assert name in totals, name
        assert registry.counters["campaign.points"] == summary["executed"]
        assert registry.counters["store.segments_written"] >= 1
        assert registry.counters["store.bytes_written"] > 0

    @pytest.mark.parametrize("spec", [BENCH_SPEC, PATTERN_SPEC],
                             ids=["bench", "pattern"])
    def test_one_kernel_span_per_chunk(self, tmp_path, spec):
        """Both analytic kernels open ``kernel.eval`` once per chunk,
        so the metrics file's span count is the chunk count."""
        _, registry, summary = run_with_registry(
            tmp_path / "camp", spec, chunk_points=5
        )
        assert summary["chunks"] > 1
        totals = registry.snapshot()["span_totals"]
        assert totals["kernel.eval"]["count"] == summary["chunks"]

    def test_disabled_run_records_nothing(self, tmp_path):
        store = CampaignStore.create(
            tmp_path / "camp", parse_grid_spec(BENCH_SPEC)
        )
        assert telemetry.active_registry() is None
        run_campaign(store)  # must not raise, must not record anywhere

    def test_segments_byte_identical_with_and_without_metrics(
        self, tmp_path
    ):
        store_plain = CampaignStore.create(
            tmp_path / "plain", parse_grid_spec(BENCH_SPEC)
        )
        run_campaign(store_plain)
        store_metered, _, _ = run_with_registry(
            tmp_path / "metered", BENCH_SPEC
        )
        plain = sorted(
            (p.name, p.read_bytes())
            for p in (store_plain.root / "segments").iterdir()
        )
        metered = sorted(
            (p.name, p.read_bytes())
            for p in (store_metered.root / "segments").iterdir()
        )
        assert plain == metered

    def test_pooled_segments_byte_identical_with_metrics(
        self, tmp_path, two_cpus
    ):
        plain = CampaignStore.create(
            tmp_path / "plain", parse_grid_spec(SIM_SPEC)
        )
        run_campaign(plain, jobs=2, chunk_points=2)
        metered, _, _ = run_with_registry(
            tmp_path / "metered", SIM_SPEC, jobs=2, chunk_points=2,
        )
        read = lambda store: sorted(  # noqa: E731
            (p.name, p.read_bytes())
            for p in (store.root / "segments").iterdir()
        )
        assert read(plain) == read(metered)

    def test_worker_snapshots_merge_into_parent(self, tmp_path, two_cpus):
        store, registry, summary = run_with_registry(
            tmp_path / "sim-camp", SIM_SPEC, jobs=2, chunk_points=2,
        )
        assert summary["executed"] == 4
        # worker-side metrics rode the chunk-result channel home
        assert registry.counters["executor.worker.points"] == 4
        assert registry.span_totals["executor.worker.execute"][0] == 4
        # parent-side pipeline spans recorded in the same registry
        assert "executor.stall" in registry.span_totals
        assert (
            registry.histograms["executor.window_occupancy"].count
            == summary["chunks"]
        )

    def test_serial_sim_run_uses_compute_span(self, tmp_path):
        store, registry, _ = run_with_registry(
            tmp_path / "sim-serial", SIM_SPEC, jobs=1,
        )
        assert "executor.compute" in registry.span_totals
        assert "executor.stall" not in registry.span_totals


class TestProfile:
    def metrics_for(self, tmp_path):
        store, registry, summary = run_with_registry(
            tmp_path / "camp", BENCH_SPEC
        )
        path = tmp_path / "camp" / "metrics.jsonl"
        write_metrics_jsonl(path, registry, producer={"backend": "analytic"})
        return path

    def test_attribution_stages_cover_the_run(self, tmp_path):
        metrics = read_metrics_jsonl(self.metrics_for(tmp_path))
        attribution = build_attribution(metrics)
        stages = {row["stage"] for row in attribution.stages}
        assert {"kernel", "encode", "write", "other"} <= stages
        assert attribution.total_wall_s > 0
        # shares sum to 1 (the "other" row absorbs the remainder)
        assert sum(
            row["share"] for row in attribution.stages
        ) == pytest.approx(1.0)
        assert 0.0 <= attribution.accounted_share <= 1.0

    def test_render_mentions_dominant_stage(self, tmp_path):
        report = render_profile(self.metrics_for(tmp_path))
        assert "dominant stage:" in report
        assert "total wall" in report

    def test_render_json_is_parseable(self, tmp_path):
        payload = json.loads(
            render_profile(self.metrics_for(tmp_path), as_json=True)
        )
        assert payload["dominant"] in {
            "decode", "kernel", "encode", "write", "index",
            "materialize", "compute", "stall", "other",
        }

    def test_resolve_prefers_store_root(self, tmp_path):
        path = self.metrics_for(tmp_path)
        assert resolve_metrics_path(tmp_path / "camp") == path
        assert resolve_metrics_path(path) == path
        with pytest.raises(FileNotFoundError):
            resolve_metrics_path(tmp_path)

    def test_rootless_metrics_rejected(self, tmp_path):
        reg = MetricsRegistry()
        reg.count("campaign.points", 1)
        path = tmp_path / "no-root.jsonl"
        write_metrics_jsonl(path, reg)
        with pytest.raises(ValueError):
            build_attribution(read_metrics_jsonl(path))


class TestCli:
    def write_spec(self, tmp_path, spec=BENCH_SPEC):
        spec_path = tmp_path / "grid.json"
        spec_path.write_text(json.dumps(spec))
        return spec_path

    def test_run_metrics_profile_status_json(self, tmp_path, capsys):
        from repro.__main__ import main

        spec = self.write_spec(tmp_path)
        root = tmp_path / "camp"
        assert main([
            "campaign", "run", str(spec), "--root", str(root), "--metrics",
        ]) == 0
        assert (root / "metrics.jsonl").is_file()
        capsys.readouterr()

        assert main(["campaign", "profile", str(root)]) == 0
        out = capsys.readouterr().out
        assert "dominant stage:" in out

        assert main(["campaign", "status", str(root), "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["completed"] == status["n_points"] == 32
        assert status["segments"] >= 1
        assert status["total_bytes"] > 0
        # the metrics file does not disturb the store: a second run
        # still sees a complete, healthy campaign
        assert main([
            "campaign", "run", str(spec), "--root", str(root),
        ]) == 0

    def test_trace_requires_metrics(self, tmp_path, capsys):
        from repro.__main__ import main

        spec = self.write_spec(tmp_path)
        rc = main([
            "campaign", "run", str(spec),
            "--root", str(tmp_path / "camp"), "--trace",
        ])
        assert rc == 2
        assert "--trace requires --metrics" in capsys.readouterr().err

    def test_trace_streams_sim_records(self, tmp_path, capsys):
        from repro.__main__ import main

        spec = self.write_spec(tmp_path, SIM_SPEC)
        root = tmp_path / "sim-camp"
        assert main([
            "campaign", "run", str(spec), "--root", str(root),
            "--metrics", "--trace",
        ]) == 0
        capsys.readouterr()
        out = read_metrics_jsonl(root / "metrics.jsonl")
        assert len(out["traces"]) > 0
        assert out["header"]["producer"]["backend"] == "sim"
        # the bridge tears down with the run
        assert telemetry.trace_sink() is None

    def test_trace_runs_one_job_whatever_jobs_says(
        self, tmp_path, capsys, two_cpus
    ):
        """Trace records come only from in-process simulations, so
        ``--trace`` runs one job: the metrics header, the planner
        gauges and the segment cut all match ``--jobs 1``."""
        from repro.__main__ import main

        # 8 points: one job cuts 2-point chunks, two would cut 1-point.
        spec = self.write_spec(tmp_path, dict(
            SIM_SPEC, axes=dict(SIM_SPEC["axes"], theta=[1, 2])
        ))
        segments = {}
        for jobs in ("1", "2"):
            root = tmp_path / f"jobs{jobs}"
            assert main([
                "campaign", "run", str(spec), "--root", str(root),
                "--jobs", jobs, "--metrics", "--trace",
            ]) == 0
            out = read_metrics_jsonl(root / "metrics.jsonl")
            assert out["header"]["producer"]["jobs"] == 1
            assert out["gauges"]["planner.workers"] == 1
            assert out["gauges"]["planner.use_pool"] == 0
            segments[jobs] = sorted(
                (p.name, p.read_bytes())
                for p in (root / "segments").iterdir()
            )
        capsys.readouterr()
        assert len(segments["1"]) == 4
        assert segments["2"] == segments["1"]

    def test_profile_on_metricless_store_errors(self, tmp_path, capsys):
        from repro.__main__ import main

        spec = self.write_spec(tmp_path)
        root = tmp_path / "camp"
        assert main([
            "campaign", "run", str(spec), "--root", str(root),
        ]) == 0
        capsys.readouterr()
        assert main(["campaign", "profile", str(root)]) == 2
        assert "metrics" in capsys.readouterr().err
