"""The analytic backend: closed-form results in microseconds.

Maps a spec through the extended performance model
(:func:`repro.model.approaches.predict_bench_time` /
:func:`repro.model.patterns.predict_pattern_time`, including the
injected-noise mean-shift correction for patterns) and wraps the
prediction in the same native result object the simulator produces, so
every consumer — sweeps, figures, stores, reports — works unchanged.
:func:`repro.runner.scenario.execute` calls these two functions for
every ``analytic`` scenario.

Campaign chunks do not come here: they decode grid indices straight
into columns for :func:`repro.model.vector.bench_times_from_columns` /
:func:`repro.model.vector.pattern_times_from_columns`, which equal
these scalar predictions bit for bit.

The model is deterministic, so a point's ``iterations`` samples are all
identical (zero variance, like a converged simulated run) and the whole
run never instantiates a simulation :class:`~repro.sim.core.Environment`
(asserted by the backend test suite via
``Environment.instances_created``).
"""

from __future__ import annotations

from typing import Any

__all__ = ["bench_result", "pattern_result"]


def bench_result(spec: Any) -> Any:
    """The :class:`~repro.bench.harness.BenchResult` the model predicts
    for a ``BenchSpec``."""
    from ..bench.harness import BenchResult
    from ..bench.stats import summarize
    from ..model.approaches import predict_bench_time

    prediction = predict_bench_time(spec)
    times = [prediction.time] * spec.iterations
    return BenchResult(
        spec=spec,
        times=times,
        stats=summarize(times),
        retries=0,
        verified=True,
    )


def pattern_result(config: Any) -> Any:
    """The :class:`~repro.apps.base.PatternResult` the model predicts
    for a ``PatternConfig``."""
    from ..apps.base import PatternResult, build_pattern
    from ..bench.stats import summarize
    from ..model.patterns import predict_pattern_time

    pattern = build_pattern(config)
    prediction = predict_pattern_time(config, pattern=pattern)
    times = [prediction.time] * config.iterations
    return PatternResult(
        config=config,
        times=times,
        stats=summarize(times),
        bytes_per_iteration=pattern.bytes_per_iteration(),
        n_links=len(pattern.links()),
    )
