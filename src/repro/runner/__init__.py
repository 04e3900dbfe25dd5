"""Unified scenario-execution engine.

One declarative grid language, parallel fan-out, and resumable results
for every execution path in the repo:

* :class:`~repro.runner.scenario.ScenarioGrid` — declarative axis
  cross-products over either spec family (``bench`` two-rank points,
  ``pattern`` N-rank application points), expanded in a deterministic
  order;
* :func:`~repro.runner.executor.run_scenarios` — backend-aware batch
  execution: inline (analytic) points in one vectorized ``run_batch``
  call, simulated points chunked across a ``multiprocessing`` pool
  (``jobs=N``; ``jobs=1`` is plain in-process serial) and reassembled
  in submission order, so parallel output is byte-identical to serial;
* :func:`~repro.runner.executor.run_grids` — runs a list of grids,
  either as one :func:`run_specs` batch or, with a store directory, as
  one :class:`~repro.runner.campaign.CampaignStore` root per grid
  (``<store>/<grid.content_hash()>/``) that a rerun resumes.

The figure drivers, ``bench.sweep``, the ``apps`` CLI, and the CLI
runner options (``--jobs`` / ``--store``) all submit their grids here.

Campaign-scale grids (10⁵–10⁶ points and beyond) go through
:mod:`repro.runner.campaign` directly: index-addressed chunks streamed
into a :class:`~repro.runner.campaign.CampaignStore` — a few hundred
segment files: binary column blocks for analytic chunks (each chunk
decodes grid indices straight into vectorized-kernel columns), JSON
result rows for simulated ones.

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
    RunReport,
    default_jobs,
    run_grids,
    run_scenarios,
    run_specs,
)
from .planner import available_cpus, shard_plan
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

__all__ = [
    "SCHEMA",
    "DEFAULT_BACKEND",
    "Scenario",
    "ScenarioGrid",
    "scenario_for",
    "execute",
    "result_to_dict",
    "result_from_dict",
    "RunReport",
    "CampaignStore",
    "parse_grid_spec",
    "run_campaign",
    "available_cpus",
    "shard_plan",
    "merge_shards",
    "run_shard",
    "run_sharded",
    "shard_token",
    "Attribution",
    "build_attribution",
    "render_profile",
    "run_grids",
    "run_scenarios",
    "run_specs",
    "default_jobs",
]
