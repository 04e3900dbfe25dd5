"""Pattern sweeps with JSON persistence (the ``BENCH_apps.json`` feed).

A :class:`PatternSweep` collects :class:`~repro.apps.base.PatternResult`
points across patterns × approaches × sizes × noise shapes, answers
cross-approach queries (speedup vs a baseline), and round-trips through
JSON so app-pattern runs feed the repo's performance trajectory the same
way the figure benchmarks do.

The serialized form captures the full :class:`PatternConfig` — including
the machine model (:class:`~repro.net.params.SystemParams`) and runtime
knobs (:class:`~repro.mpi.cvars.Cvars`), both flat dataclasses — plus
the raw per-iteration times, so statistics are recomputed on load rather
than trusted from the file.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from .base import PatternConfig, PatternResult, run_pattern

__all__ = ["PatternSweep", "DEFAULT_JSON_PATH", "sweep_patterns"]

#: Default persistence target (picked up by the perf trajectory).
DEFAULT_JSON_PATH = "BENCH_apps.json"

_SCHEMA = "repro.apps.sweep/v1"


class PatternSweep:
    """Results keyed by their full (frozen, hashable) config.

    Every config field is identity: two runs differing only in, say,
    ``noise_us`` or ``seed`` are distinct sweep points.  Address points
    exactly with :meth:`get` or by field filters with :meth:`find`.
    """

    def __init__(self) -> None:
        self._results: Dict[PatternConfig, PatternResult] = {}

    # -- collection ----------------------------------------------------------
    def add(self, result: PatternResult) -> None:
        self._results[result.config] = result

    def run(self, config: PatternConfig) -> PatternResult:
        """Run one point and record it."""
        result = run_pattern(config)
        self.add(result)
        return result

    def get(self, config: PatternConfig) -> PatternResult:
        """The result recorded for exactly this config."""
        return self._results[config]

    def find(self, **fields) -> List[PatternResult]:
        """All results whose config matches every given field value,
        e.g. ``sweep.find(pattern="halo3d", approach="pt2pt_part")``."""
        return [
            r
            for c, r in self._results.items()
            if all(getattr(c, name) == value for name, value in fields.items())
        ]

    def results(self) -> List[PatternResult]:
        """All results in insertion order."""
        return list(self._results.values())

    def patterns(self) -> List[str]:
        return sorted({c.pattern for c in self._results})

    def approaches(self, pattern: Optional[str] = None) -> List[str]:
        return sorted(
            {
                c.approach
                for c in self._results
                if pattern is None or c.pattern == pattern
            }
        )

    def speedup(
        self, config: PatternConfig, baseline: str = "pt2pt_single"
    ) -> float:
        """η = baseline mean / this config's mean (same point otherwise)."""
        base = self.get(dataclasses.replace(config, approach=baseline))
        subj = self.get(config)
        if subj.mean == 0:
            return float("inf")
        return base.mean / subj.mean

    def __len__(self) -> int:
        return len(self._results)

    # -- persistence ----------------------------------------------------------
    def to_json(self, backend: Optional[str] = None) -> dict:
        """A JSON-serializable snapshot of every recorded point.

        ``backend`` labels how the points were produced (``sim`` /
        ``analytic``), so a persisted sweep of model predictions can
        never masquerade as simulated measurements.
        """
        records = []
        for result in self._results.values():
            # asdict recurses into the nested params/cvars dataclasses.
            config = dataclasses.asdict(result.config)
            records.append(
                {
                    "config": config,
                    "times": list(result.times),
                    "bytes_per_iteration": result.bytes_per_iteration,
                    "n_links": result.n_links,
                }
            )
        payload = {"schema": _SCHEMA, "results": records}
        if backend is not None:
            payload["backend"] = backend
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "PatternSweep":
        """Rebuild a sweep from :meth:`to_json` output (stats recomputed).

        Config and result reconstruction delegate to the runner's
        scenario protocol, so this format and the campaign store's
        result rows can never silently diverge.
        """
        from ..runner.scenario import (
            SCHEMA as RUNNER_SCHEMA,
            Scenario,
            result_from_dict,
        )

        if payload.get("schema") != _SCHEMA:
            raise ValueError(
                f"unrecognized sweep schema {payload.get('schema')!r}"
            )
        sweep = cls()
        for record in payload["results"]:
            scenario = Scenario.from_dict(
                {
                    "schema": RUNNER_SCHEMA,
                    "kind": "pattern",
                    "spec": record["config"],
                }
            )
            sweep.add(result_from_dict(scenario, record))
        return sweep

    def save(
        self,
        path: str | Path = DEFAULT_JSON_PATH,
        backend: Optional[str] = None,
    ) -> Path:
        """Write the sweep to ``path`` (default ``BENCH_apps.json``)."""
        target = Path(path)
        target.write_text(
            json.dumps(self.to_json(backend=backend), indent=2) + "\n"
        )
        return target

    @classmethod
    def load(cls, path: str | Path = DEFAULT_JSON_PATH) -> "PatternSweep":
        """Read a sweep previously written by :meth:`save`."""
        return cls.from_json(json.loads(Path(path).read_text()))


def sweep_patterns(
    configs: Iterable[PatternConfig],
    jobs: int = 1,
    backend: str = "sim",
) -> PatternSweep:
    """Run every config into one sweep via the unified runner.

    The whole batch is submitted at once, so ``jobs > 1`` fans the
    configs out across cores; ``backend="analytic"`` uses the
    first-order pattern model instead of the simulator.  (A
    :class:`~repro.runner.scenario.ScenarioGrid` of configs runs through
    :func:`~repro.runner.executor.run_grids` instead, which can also
    keep it in a store.)
    """
    from ..runner import run_specs

    sweep = PatternSweep()
    for result in run_specs(list(configs), jobs=jobs, backend=backend):
        sweep.add(result)
    return sweep
