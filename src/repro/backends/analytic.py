"""The analytic execution backend: closed-form results in microseconds.

Maps a scenario through the extended performance model
(:func:`repro.model.approaches.predict_bench_time` /
:func:`repro.model.patterns.predict_pattern_time`, including the
injected-noise mean-shift correction for patterns) and wraps the
prediction in the same native result object the simulator produces, so
every consumer — sweeps, figures, stores, reports — works unchanged.

Each scenario kind has one vectorized kernel entry,
:func:`repro.model.vector.bench_times_from_columns` /
:func:`repro.model.vector.pattern_times_from_columns`.
:meth:`AnalyticBackend.run_batch` reaches it through the spec-batch
views (:func:`~repro.model.vector.bench_batch_times` /
:func:`~repro.model.vector.pattern_batch`); campaign chunks call it
directly with decoded grid-axis columns, so no scenario or spec object
exists on that path at all.

The model is deterministic, so a point's ``iterations`` samples are all
identical (zero variance, like a converged simulated run) and the whole
run never instantiates a simulation :class:`~repro.sim.core.Environment`
(asserted by the backend test suite via
``Environment.instances_created``).
"""

from __future__ import annotations

from typing import Any

from .base import BACKEND_ANALYTIC, Backend, register_backend

__all__ = ["AnalyticBackend"]


@register_backend
class AnalyticBackend(Backend):
    """Runs a scenario through the closed-form model."""

    name = BACKEND_ANALYTIC
    inline = True

    def supports(self, scenario: Any) -> bool:
        from ..runner.scenario import KIND_BENCH, KIND_PATTERN

        if scenario.kind == KIND_BENCH:
            from ..model.approaches import APPROACH_PREDICTORS

            return scenario.spec.approach in APPROACH_PREDICTORS
        if scenario.kind == KIND_PATTERN:
            from ..apps.base import PATTERNS

            return scenario.spec.pattern in PATTERNS
        return False

    def run(self, scenario: Any) -> Any:
        from ..runner.scenario import KIND_BENCH, KIND_PATTERN

        if scenario.kind == KIND_BENCH:
            return self._run_bench(scenario.spec)
        if scenario.kind == KIND_PATTERN:
            return self._run_pattern(scenario.spec)
        raise ValueError(f"unknown scenario kind {scenario.kind!r}")

    #: Below this batch size the scalar loop wins: the kernel's fixed
    #: per-group numpy overhead (~1-2 ms across 8 approach groups)
    #: exceeds ~30 µs/point scalar dispatch until roughly this many
    #: points.  Both paths are bitwise-identical (asserted by the
    #: equivalence suite), so the cutover is purely a speed choice.
    VECTOR_MIN_BATCH = 64

    def run_batch(self, scenarios: Any) -> list:
        """Evaluate the whole batch through the vectorized model kernel.

        One :func:`~repro.model.vector.bench_batch_times` /
        :func:`~repro.model.vector.pattern_batch` call per kind (each a
        view of its column kernel) replaces per-point predictor
        dispatch; results are identical to the
        per-point :meth:`run` path bit for bit (the kernel mirrors the
        scalar formulas operation-for-operation, and the equivalence
        suite asserts it).  Batches below :data:`VECTOR_MIN_BATCH`
        take the scalar loop instead — same bits, less overhead.
        """
        if len(scenarios) < self.VECTOR_MIN_BATCH:
            return [self.run(scenario) for scenario in scenarios]
        from ..bench.harness import BenchResult
        from ..apps.base import PatternResult
        from ..bench.stats import summarize
        from ..model.vector import bench_batch_times, pattern_batch
        from ..runner.scenario import KIND_BENCH, KIND_PATTERN

        results: list = [None] * len(scenarios)
        bench_idx = [
            i for i, s in enumerate(scenarios) if s.kind == KIND_BENCH
        ]
        pattern_idx = [
            i for i, s in enumerate(scenarios) if s.kind == KIND_PATTERN
        ]
        if len(bench_idx) + len(pattern_idx) != len(scenarios):
            unknown = next(
                s for s in scenarios
                if s.kind not in (KIND_BENCH, KIND_PATTERN)
            )
            raise ValueError(f"unknown scenario kind {unknown.kind!r}")
        if bench_idx:
            specs = [scenarios[i].spec for i in bench_idx]
            for i, spec, time in zip(
                bench_idx, specs, bench_batch_times(specs)
            ):
                times = [float(time)] * spec.iterations
                results[i] = BenchResult(
                    spec=spec,
                    times=times,
                    stats=summarize(times),
                    retries=0,
                    verified=True,
                )
        if pattern_idx:
            configs = [scenarios[i].spec for i in pattern_idx]
            batch = pattern_batch(configs)
            for j, i in enumerate(pattern_idx):
                config = configs[j]
                times = [float(batch.times[j])] * config.iterations
                results[i] = PatternResult(
                    config=config,
                    times=times,
                    stats=summarize(times),
                    bytes_per_iteration=int(batch.bytes_per_iteration[j]),
                    n_links=int(batch.n_links[j]),
                )
        return results

    # ------------------------------------------------------------------
    def _run_bench(self, spec: Any) -> Any:
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

    def _run_pattern(self, config: Any) -> Any:
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
