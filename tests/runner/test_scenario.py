"""Scenario protocol: grid expansion, serialization, content hashing."""

import pytest

from repro.apps import PatternConfig
from repro.bench import BenchSpec
from repro.mpi import Cvars
from repro.net import SystemParams
from repro.runner import Scenario, ScenarioGrid, scenario_for


class TestScenarioSerialization:
    def test_bench_round_trip(self):
        spec = BenchSpec(
            approach="pt2pt_part",
            total_bytes=4096,
            n_threads=4,
            theta=2,
            iterations=5,
            gamma_us_per_mb=100.0,
            cvars=Cvars(num_vcis=4),
            seed=7,
        )
        scenario = scenario_for(spec)
        assert scenario.kind == "bench"
        rebuilt = Scenario.from_dict(scenario.to_dict())
        assert rebuilt == scenario
        assert rebuilt.spec == spec

    def test_pattern_round_trip(self):
        config = PatternConfig(
            pattern="halo3d",
            approach="pt2pt_part",
            n_ranks=4,
            n_threads=2,
            msg_bytes=8192,
            iterations=3,
            noise="uniform",
            noise_us=5.0,
            seed=3,
        )
        scenario = scenario_for(config)
        assert scenario.kind == "pattern"
        rebuilt = Scenario.from_dict(scenario.to_dict())
        assert rebuilt.spec == config

    def test_nested_params_round_trip(self):
        params = SystemParams(bandwidth=10e9, latency=2e-6)
        spec = BenchSpec(
            approach="pt2pt_single", total_bytes=64, params=params
        )
        rebuilt = Scenario.from_dict(scenario_for(spec).to_dict())
        assert rebuilt.spec.params == params

    def test_unknown_spec_type_rejected(self):
        with pytest.raises(TypeError):
            scenario_for(object())

    def test_unknown_schema_rejected(self):
        payload = scenario_for(
            BenchSpec(approach="pt2pt_single", total_bytes=64)
        ).to_dict()
        payload["schema"] = "bogus/v0"
        with pytest.raises(ValueError):
            Scenario.from_dict(payload)


def spec_hash(spec):
    """The content hash of the one-point grid around ``spec``."""
    return ScenarioGrid.from_spec(spec, {}).content_hash()


class TestContentHash:
    def test_stable_across_instances(self):
        a = BenchSpec(approach="pt2pt_single", total_bytes=64)
        b = BenchSpec(approach="pt2pt_single", total_bytes=64)
        assert spec_hash(a) == spec_hash(b)

    def test_any_param_changes_the_hash(self):
        base = BenchSpec(approach="pt2pt_single", total_bytes=64)
        variants = [
            BenchSpec(approach="pt2pt_part", total_bytes=64),
            BenchSpec(approach="pt2pt_single", total_bytes=128),
            BenchSpec(approach="pt2pt_single", total_bytes=64, seed=1),
            BenchSpec(
                approach="pt2pt_single",
                total_bytes=64,
                cvars=Cvars(num_vcis=2),
            ),
            BenchSpec(
                approach="pt2pt_single",
                total_bytes=64,
                params=SystemParams(bandwidth=1e9),
            ),
        ]
        hashes = {spec_hash(s) for s in [base] + variants}
        assert len(hashes) == len(variants) + 1

    def test_bench_and_pattern_never_collide(self):
        bench = BenchSpec(approach="pt2pt_single", total_bytes=64)
        pattern = PatternConfig(pattern="halo3d")
        assert spec_hash(bench) != spec_hash(pattern)


class TestScenarioGrid:
    def test_row_major_expansion_order(self):
        grid = ScenarioGrid(
            "bench",
            base={"iterations": 1},
            axes={
                "approach": ["pt2pt_single", "pt2pt_part"],
                "total_bytes": [64, 128],
            },
        )
        points = [
            (s.spec.approach, s.spec.total_bytes) for s in grid.expand()
        ]
        assert points == [
            ("pt2pt_single", 64),
            ("pt2pt_single", 128),
            ("pt2pt_part", 64),
            ("pt2pt_part", 128),
        ]
        assert len(grid) == 4

    def test_base_fields_applied_everywhere(self):
        grid = ScenarioGrid(
            "pattern",
            base={"n_ranks": 4, "iterations": 2},
            axes={"pattern": ["halo3d", "fft"]},
        )
        for scenario in grid.expand():
            assert scenario.spec.n_ranks == 4
            assert scenario.spec.iterations == 2

    def test_axis_clashing_with_base_rejected(self):
        with pytest.raises(ValueError):
            ScenarioGrid(
                "bench",
                base={"approach": "pt2pt_single"},
                axes={"approach": ["pt2pt_part"]},
            )

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            ScenarioGrid("bench", axes={"total_bytes": []})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ScenarioGrid("nope")
