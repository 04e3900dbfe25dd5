"""Pattern sweeps with JSON persistence (the ``BENCH_apps.json`` feed).

A :class:`PatternSweep` collects :class:`~repro.apps.base.PatternResult`
points across patterns × approaches × sizes × noise shapes and writes
them as JSON, so app-pattern runs feed the repo's performance trajectory
the same way the figure benchmarks do.

The serialized form captures the full :class:`PatternConfig` — including
the machine model (:class:`~repro.net.params.SystemParams`) and runtime
knobs (:class:`~repro.mpi.cvars.Cvars`), both flat dataclasses — plus
the raw per-iteration times, so a reader recomputes statistics rather
than trusting them from the file.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, List, Optional

from .base import PatternConfig, PatternResult, run_pattern

__all__ = ["PatternSweep", "DEFAULT_JSON_PATH"]

#: Default persistence target (picked up by the perf trajectory).
DEFAULT_JSON_PATH = "BENCH_apps.json"

_SCHEMA = "repro.apps.sweep/v1"


class PatternSweep:
    """Results keyed by their full (frozen, hashable) config.

    Every config field is identity: two runs differing only in, say,
    ``noise_us`` or ``seed`` are distinct sweep points, addressed
    exactly with :meth:`get`.
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

    def results(self) -> List[PatternResult]:
        """All results in insertion order."""
        return list(self._results.values())

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
