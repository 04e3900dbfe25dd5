"""PatternSweep collection, JSON persistence, and the apps CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.apps import PatternConfig, PatternSweep
from repro.mpi import Cvars
from repro.runner import run_specs
from repro.runner.scenario import SCHEMA, Scenario, result_from_dict

#: The package root, absolutized so CLI subprocesses work from any cwd.
_SRC = str(Path(repro.__file__).resolve().parents[1])


def small_config(**overrides):
    base = dict(pattern="halo3d", approach="pt2pt_part", n_ranks=4,
                n_threads=2, msg_bytes=1 << 14, iterations=2,
                compute_us_per_mb=100.0)
    base.update(overrides)
    return PatternConfig(**base)


def sweep_of(configs):
    """Run every config through the runner into one sweep."""
    sweep = PatternSweep()
    for result in run_specs(list(configs)):
        sweep.add(result)
    return sweep


def load_results(path):
    """Rebuild the results of a saved sweep through the runner's
    scenario protocol, the format the campaign store's rows share."""
    payload = json.loads(Path(path).read_text())
    assert payload["schema"] == "repro.apps.sweep/v1"
    return [
        result_from_dict(
            Scenario.from_dict(
                {"schema": SCHEMA, "kind": "pattern", "spec": record["config"]}
            ),
            record,
        )
        for record in payload["results"]
    ]


class TestPatternSweep:
    def test_collect_and_query(self):
        config = small_config()
        baseline = small_config(approach="pt2pt_single")
        sweep = sweep_of([config, baseline])
        assert [r.config for r in sweep.results()] == [config, baseline]
        assert sweep.get(config).config == config
        assert sweep.get(baseline).mean > 0
        with pytest.raises(KeyError):
            sweep.get(small_config(approach="pt2pt_many"))

    def test_rerun_overwrites(self):
        sweep = PatternSweep()
        sweep.run(small_config())
        sweep.run(small_config())
        assert len(sweep.results()) == 1

    def test_full_config_is_identity(self):
        """Points differing only in noise amplitude stay distinct."""
        sweep = sweep_of(
            [
                small_config(noise="uniform", noise_us=1.0),
                small_config(noise="uniform", noise_us=10.0),
            ]
        )
        assert [r.config.noise_us for r in sweep.results()] == [1.0, 10.0]

    def test_json_roundtrip(self, tmp_path):
        sweep = sweep_of(
            [
                small_config(noise="uniform", noise_us=2.0,
                             cvars=Cvars(num_vcis=2)),
                small_config(pattern="fft", n_ranks=3),
            ]
        )
        path = sweep.save(tmp_path / "BENCH_apps.json")
        loaded = load_results(path)
        assert len(loaded) == len(sweep.results())
        for before, after in zip(sweep.results(), loaded):
            assert after.config == before.config
            assert after.times == before.times
            assert after.stats == before.stats
            assert after.bytes_per_iteration == before.bytes_per_iteration
            assert after.n_links == before.n_links

    def test_json_is_plain(self, tmp_path):
        sweep = sweep_of([small_config()])
        path = sweep.save(tmp_path / "out.json")
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro.apps.sweep/v1"
        record = payload["results"][0]
        assert record["config"]["pattern"] == "halo3d"
        assert record["config"]["cvars"]["num_vcis"] == 1
        assert len(record["times"]) == 2


class TestAppsCli:
    def run_cli(self, *args, cwd=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True,
            text=True,
            timeout=240,
            cwd=cwd,
            env=env,
        )

    @pytest.mark.parametrize("pattern", ["halo3d", "sweep3d", "fft"])
    def test_patterns_run(self, pattern, tmp_path):
        proc = self.run_cli(
            "apps", "--pattern", pattern, "--ranks", "4", "--threads", "2",
            "--size", "16384", "--iters", "2", "--approach", "pt2pt_part",
            "--no-json", cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "mean time" in proc.stdout
        assert "perceived bw" in proc.stdout
        assert "pt2pt_part" in proc.stdout
        assert "pt2pt_single" in proc.stdout  # baseline always reported

    def test_json_written_and_loadable(self, tmp_path):
        proc = self.run_cli(
            "apps", "--pattern", "fft", "--ranks", "3", "--threads", "2",
            "--size", "16384", "--iters", "2", cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        target = tmp_path / "BENCH_apps.json"
        assert target.exists()
        loaded = load_results(target)
        assert {r.config.pattern for r in loaded} == {"fft"}

    def test_noise_flags(self, tmp_path):
        proc = self.run_cli(
            "apps", "--pattern", "halo3d", "--ranks", "4", "--threads", "2",
            "--size", "16384", "--iters", "2", "--noise", "gaussian",
            "--noise-us", "5", "--noise-sigma-us", "1", "--no-json",
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "noise=gaussian" in proc.stdout
