"""A batch simulates each distinct effective configuration once.

``run_scenarios`` keys every simulated point with
:func:`repro.bench.simulation_key`; points whose key an earlier point
already has (exact duplicates, and aggregation bounds that negotiate
the same message count) get a copy of that point's result.  The oracle
is per-point execution.
"""

import json
from dataclasses import replace

from repro import telemetry
from repro.apps import PatternConfig
from repro.bench import BenchSpec
from repro.mpi import Cvars
from repro.runner import run_scenarios
from repro.runner.scenario import execute, result_to_dict, scenario_for
from repro.sim import Environment

#: 8 partitions of 8 KiB: bounds below 8 KiB cannot merge, 16 KiB
#: merges pairs.
PART = BenchSpec(
    approach="pt2pt_part", total_bytes=65536, n_threads=2, theta=4,
    iterations=2,
)
SINGLE = BenchSpec(approach="pt2pt_single", total_bytes=4096, iterations=2)
PATTERN = PatternConfig(
    pattern="halo3d", n_ranks=4, n_threads=1, msg_bytes=1024, iterations=1
)


def aggr(size):
    return replace(PART, cvars=Cvars(part_aggr_size=size))


#: 8 points, 4 distinct simulations: PART with bounds 0, 4096 and 1024
#: (8 messages each), PART at 16384 (4 messages), SINGLE twice, and
#: PATTERN twice.
SPECS = [
    PART, aggr(4096), SINGLE, aggr(16384), PATTERN, SINGLE, PATTERN,
    aggr(1024),
]
DISTINCT = 4


def batch():
    return [scenario_for(spec) for spec in SPECS]


def submitted(result):
    return getattr(result, "spec", getattr(result, "config", None))


class TestFanOut:
    def test_results_in_submission_order_with_submitted_specs(self):
        results = run_scenarios(batch()).results
        assert [submitted(r) for r in results] == SPECS
        bench = [r for r in results if hasattr(r, "spec")]
        assert [r.spec.cvars.part_aggr_size for r in bench] == [
            0, 4096, 0, 16384, 0, 1024,
        ]

    def test_equals_per_point_execution(self):
        scenarios = batch()
        expected = json.dumps(
            [result_to_dict(s, execute(s)) for s in scenarios],
            sort_keys=True,
            separators=(",", ":"),
        )
        assert run_scenarios(scenarios).canonical_json() == expected

    def test_twins_get_distinct_objects(self):
        report = run_scenarios(batch())
        dicts = report.result_dicts
        assert len({id(d) for d in dicts}) == len(dicts)
        assert len({id(r.times) for r in report.results}) == len(dicts)
        # PART and its aggr=4096 twin share a simulation, not a dict.
        assert dicts[1]["times"] == dicts[0]["times"]
        original = list(dicts[0]["times"])
        dicts[1]["times"][0] = -1.0
        assert dicts[0]["times"] == original
        assert dicts[7]["times"] == original

    def test_pooled_identical_to_serial(self):
        serial = run_scenarios(batch(), jobs=1)
        pooled = run_scenarios(batch(), jobs=2, pool="always")
        assert pooled.canonical_json() == serial.canonical_json()

    def test_one_environment_per_distinct_point(self):
        before = Environment.instances_created
        run_scenarios(batch(), jobs=1)
        assert Environment.instances_created - before == DISTINCT

    def test_counters_explain_the_shared_points(self):
        registry = telemetry.MetricsRegistry()
        with telemetry.using_registry(registry):
            run_scenarios(batch(), jobs=1)
        assert registry.counters["executor.worker.points"] == DISTINCT
        assert (
            registry.counters["executor.shared_points"]
            == len(SPECS) - DISTINCT
        )

    def test_no_sharing_records_no_shared_points(self):
        registry = telemetry.MetricsRegistry()
        with telemetry.using_registry(registry):
            run_scenarios([scenario_for(PART), scenario_for(SINGLE)])
        assert registry.counters["executor.worker.points"] == 2
        assert "executor.shared_points" not in registry.counters
