"""Unified scenario-execution engine.

One declarative grid language, parallel fan-out, and cached/resumable
results for every execution path in the repo:

* :class:`~repro.runner.scenario.ScenarioGrid` — declarative axis
  cross-products over either spec family (``bench`` two-rank points,
  ``pattern`` N-rank application points), expanded in a deterministic
  order;
* :class:`~repro.runner.executor.ParallelExecutor` — ``multiprocessing``
  fan-out (``jobs=N``; ``jobs=1`` is plain in-process serial) with
  results reassembled in submission order and moved through one
  serialized form, so parallel output is byte-identical to serial;
* :class:`~repro.runner.store.ResultStore` — content-addressed JSON
  cache keyed by scenario hash; ``resume=True`` serves warm points
  without simulating.

The figure drivers, ``bench.sweep``, ``apps.sweep``, and the CLI
(``--jobs`` / ``--store`` / ``--resume``) all submit their grids here.

Campaign-scale grids (10⁵–10⁶ points and beyond) go through
:mod:`repro.runner.campaign` instead: the same declarative grid, but
index-addressed chunks streamed into a
:class:`~repro.runner.campaign.CampaignStore` — a few hundred segment
files instead of one file per point: binary column blocks for analytic
chunks (the fast path decodes grid indices straight into
vectorized-kernel columns), JSON result rows for simulated ones.

Quick start
-----------
>>> from repro.runner import ScenarioGrid, run_scenarios
>>> grid = ScenarioGrid(
...     "bench",
...     base={"iterations": 2, "n_threads": 1},
...     axes={"approach": ["pt2pt_single", "pt2pt_part"],
...           "total_bytes": [1024, 65536]},
... )
>>> report = run_scenarios(grid.expand(), jobs=1)
>>> len(report.results)
4
"""

from .campaign import CampaignStore, parse_grid_spec, run_campaign
from .executor import (
    ParallelExecutor,
    RunReport,
    default_jobs,
    run_scenarios,
    run_specs,
)
from .planner import (
    Chunk,
    ExecutionPlan,
    available_cpus,
    plan_execution,
    shard_plan,
)
from .profile import Attribution, build_attribution, render_profile
from .scenario import (
    DEFAULT_BACKEND,
    SCHEMA,
    Scenario,
    ScenarioGrid,
    execute,
    result_from_dict,
    result_to_dict,
    scenario_for,
)
from .shard import merge_shards, run_shard, run_sharded, shard_token
from .store import ResultStore

__all__ = [
    "SCHEMA",
    "DEFAULT_BACKEND",
    "Scenario",
    "ScenarioGrid",
    "scenario_for",
    "execute",
    "result_to_dict",
    "result_from_dict",
    "ParallelExecutor",
    "RunReport",
    "ResultStore",
    "CampaignStore",
    "parse_grid_spec",
    "run_campaign",
    "Chunk",
    "ExecutionPlan",
    "available_cpus",
    "plan_execution",
    "shard_plan",
    "merge_shards",
    "run_shard",
    "run_sharded",
    "shard_token",
    "Attribution",
    "build_attribution",
    "render_profile",
    "run_scenarios",
    "run_specs",
    "default_jobs",
]
