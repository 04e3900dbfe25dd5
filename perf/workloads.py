"""The benchmark's workloads and the loop that measures them.

Each workload is one way the program is used:

* ``figures-sim`` regenerates the paper's Figs. 4-8 and Tables 1-2 on
  the simulator, the reproduction the repository exists for;
* ``patterns-sim`` runs a simulated 8-rank application-pattern campaign
  into a campaign store;
* ``campaign-bench`` writes an analytic bench-kind campaign, then
  drains, queries and reports on it;
* ``campaign-pattern-sharded`` runs an analytic pattern campaign as two
  shard processes and merges them.

A run sets the workload up several times (a fresh interpreter imports
the program each time), then repeats the workload's *unit* of work
until ``seconds`` have passed and reports its fastest unit.  A traced
run times one unit untraced and one traced, and derives the per-layer
metrics from the traced one.  The benchmark calls only the program's
public functions and never edits it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import specs
from tracer import Tracer

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
SRC = ROOT / "src"
WORK_DIR = PERF_DIR / "work"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Points of the strided analytic sample checked against the scalar model.
SAMPLE_POINTS = 256
#: Shard processes of ``campaign-pattern-sharded`` (a 2-CPU machine).
N_SHARDS = 2
#: Calls per kernel probe; the probe reports their median.
PROBE_REPS = 7
#: Points per kernel-probe batch (the pattern kernel costs ~10x more
#: per point, so its batches are smaller).
BENCH_PROBE_POINTS = 1 << 16
PATTERN_PROBE_POINTS = 1 << 14

FIGURE_MODULES = {
    "fig4": "fig4_improvement",
    "fig5": "fig5_congestion",
    "fig6": "fig6_vcis",
    "fig7": "fig7_aggregation",
    "fig8": "fig8_earlybird",
}


def load_benchmark() -> dict:
    """``BENCHMARK.json``: workloads, metrics, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# correctness checks and units of work
# ---------------------------------------------------------------------------

class Checks:
    """Counts checks attempted and keeps a line for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class Unit:
    """One timed unit of work and what the checks need from it."""

    #: Wall time of the whole unit.
    wall_s: float
    #: Grid points computed and stored.
    points: int
    #: The part of ``wall_s`` that computed and stored them.
    compute_s: float
    #: What the checks inspect (figure data or a campaign store).
    output: Any = None
    #: Timed phases and facts the checks and per-layer metrics read.
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Lines printed with the result (digests).
    notes: List[str] = field(default_factory=list)
    #: Simulation environments the unit constructed.
    environments: int = 0


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _finite_positive(value: float) -> bool:
    return math.isfinite(value) and value > 0


def _same_bits(a: float, b: float) -> bool:
    import numpy as np

    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _store_facts(store) -> Dict[str, float]:
    stats = store.stats()
    return {
        "store_bytes": stats["total_bytes"],
        "store_segments": stats["segments"],
    }


def check_store_complete(store, checks: Checks) -> None:
    checks.expect(
        store.n_completed == store.n_points,
        f"store holds {store.n_completed} of {store.n_points} points",
    )


def check_analytic_sample(store, checks: Checks, n_sample: int) -> None:
    """A strided sample of stored points must be bitwise-equal to the
    scalar analytic model run on the same grid point."""
    import numpy as np

    from repro.runner.scenario import execute

    n_points = store.n_points
    stride = max(1, n_points // n_sample)
    wanted = np.arange(0, n_points, stride, dtype=np.int64)[:n_sample]
    found: Dict[int, Dict[str, Any]] = {}
    for indices, columns in store.iter_columns():
        hit = np.nonzero(np.isin(indices, wanted))[0]
        for k in hit:
            found[int(indices[k])] = {
                name: column[k].item() for name, column in columns.items()
            }
    grid = store.grid
    for index in wanted.tolist():
        stored = found.get(index)
        if stored is None:
            checks.expect(False, f"point {index} missing from the store")
            continue
        native = execute(grid.scenario_at(index))
        ok = _same_bits(stored["times"], native.times[0])
        if "n_links" in stored:
            ok = (
                ok
                and stored["n_links"] == native.n_links
                and stored["bytes_per_iteration"] == native.bytes_per_iteration
            )
        checks.expect(ok, f"point {index}: stored {stored} != scalar model")


def drain_points(store) -> int:
    return sum(len(indices) for indices, _ in store.iter_columns())


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """A named way of using the program (see the module docstring)."""

    name = ""
    #: Modules a fresh interpreter imports in each set-up.
    imports: tuple = ()
    #: Spans and counters a traced unit must record at least once.
    boundaries: tuple = ()
    #: Whether shard processes count towards ``peak_rss_mb``.
    children: bool = False

    def config(self, seed: int) -> dict:
        raise NotImplementedError

    def setup(self, cfg: dict, work: Path) -> Any:
        """One in-process set-up; returns the state the units share."""
        raise NotImplementedError

    def unit(self, cfg: dict, state: Any, work: Path,
             tracer: Optional[Tracer]) -> Unit:
        raise NotImplementedError

    def check(self, cfg: dict, state: Any, unit: Unit,
              checks: Checks) -> None:
        raise NotImplementedError

    def probe(self) -> Dict[str, float]:
        """Layer probes of a traced run, measured with tracing off."""
        return {}

    def quality(self, cfg: dict, state: Any, unit: Unit) -> Dict[str, float]:
        """Fidelity tripwires of a traced run (paper gap, model error)."""
        return {}


class FiguresSim(Workload):
    name = "figures-sim"
    imports = ("repro.figures", "repro.runner")
    boundaries = (
        "figures.fig4", "figures.fig5", "figures.fig6", "figures.fig7",
        "figures.fig8", "figures.tables", "runner.run_specs",
        "bench.run_benchmark", "sim.run", "sim.events", "net.packets",
    )

    def config(self, seed: int) -> dict:
        # The paper's grids pin their own seed: ``seed`` is recorded
        # with the result and changes nothing here.
        return {
            "figures": specs.FIGURES,
            "iterations": specs.FIGURE_ITERATIONS,
            "quick": False,
        }

    def setup(self, cfg, work):
        from repro.bench import BenchSpec
        from repro.runner import run_specs

        run_specs(
            [BenchSpec("pt2pt_part", 4096, n_threads=2, iterations=1)],
            backend="sim",
        )
        return None

    def _run_figures(self, cfg, backend, tracer=None) -> Dict[str, Any]:
        import importlib

        data = {}
        for name in cfg["figures"]:
            module = importlib.import_module(
                f"repro.figures.{FIGURE_MODULES[name]}"
            )
            with _span(tracer, f"figures.{name}"):
                data[name] = module.run(
                    iterations=cfg["iterations"], quick=cfg["quick"],
                    backend=backend, jobs=1,
                )
        return data

    def unit(self, cfg, state, work, tracer):
        from repro.figures import tables

        start = time.perf_counter()
        data = self._run_figures(cfg, "sim", tracer)
        with _span(tracer, "figures.tables"):
            tables.table1()
            tables.table2()
        wall = time.perf_counter() - start
        points = sum(len(fig.sweep) for fig in data.values())
        return Unit(wall_s=wall, points=points, compute_s=wall, output=data)

    def check(self, cfg, state, unit, checks):
        digest = hashlib.sha256()
        for name, fig in unit.output.items():
            sweep = fig.sweep
            for label in sweep.approaches():
                for size in sweep.sizes(label):
                    result = sweep.get(label, size)
                    mean = result.stats.mean
                    where = f"{name} {label} {size} B"
                    checks.expect(_finite_positive(mean), f"{where}: mean {mean}")
                    checks.expect(result.verified, f"{where}: not verified")
                    digest.update(f"{where}={mean!r}\n".encode())
        unit.notes.append(f"figures.digest sha256:{digest.hexdigest()}")

    def quality(self, cfg, state, unit):
        from repro.backends.crossval import compare_bench_sweeps

        gaps = []
        for (name, key), paper in specs.PAPER_CLAIMS.items():
            fig = unit.output.get(name)
            measured = fig.headline.get(key) if fig is not None else None
            if measured is not None and _finite_positive(measured):
                gaps.append(abs(math.log(measured / paper)))
        analytic = self._run_figures(cfg, "analytic")
        worst = max(
            compare_bench_sweeps(
                unit.output[name].sweep, analytic[name].sweep
            ).max_rel_error
            for name in cfg["figures"]
        )
        return {
            "quality.paper_gap_geomean": (
                math.exp(statistics.fmean(gaps)) if gaps else 0.0
            ),
            "quality.model_max_rel_err": worst,
        }


class CampaignWorkload(Workload):
    """A workload whose unit runs a grid into a fresh campaign store."""

    #: Store format of the unit's campaign.
    compression = "none"

    def setup(self, cfg, work):
        """Grid parse, one warm-up point and one store creation."""
        from repro.runner.campaign import parse_grid_spec
        from repro.runner.scenario import execute

        grid = parse_grid_spec(cfg["spec"])
        execute(grid.scenario_at(0))
        self.new_store(grid, work)
        shutil.rmtree(work)
        return grid

    def new_store(self, grid, work: Path):
        from repro.runner.campaign import CampaignStore

        return CampaignStore.create(
            work / "store", grid, compression=self.compression
        )


class PatternsSim(CampaignWorkload):
    name = "patterns-sim"
    imports = ("repro.runner.campaign", "repro.apps", "repro.backends")
    boundaries = (
        "runner.run_campaign", "apps.run_pattern", "store.append_chunk",
        "sim.run", "sim.events", "net.packets",
    )

    def config(self, seed: int) -> dict:
        return {"spec": specs.pattern_sim_spec(seed)}

    def unit(self, cfg, grid, work, tracer):
        from repro.runner.campaign import run_campaign

        store = self.new_store(grid, work)
        start = time.perf_counter()
        with _span(tracer, "runner.run_campaign"):
            summary = run_campaign(store, jobs=1)
        wall = time.perf_counter() - start
        return Unit(
            wall_s=wall, points=summary["executed"], compute_s=wall,
            output=store, extra=_store_facts(store),
        )

    def check(self, cfg, grid, unit, checks):
        store = unit.output
        check_store_complete(store, checks)
        rows = 0
        for index, row in store.iter_rows():
            rows += 1
            mean = statistics.fmean(row["times"])
            checks.expect(
                _finite_positive(mean) and row["n_links"] > 0,
                f"point {index}: mean {mean}, {row['n_links']} links",
            )
        checks.expect(
            rows == store.n_points,
            f"drain returned {rows} of {store.n_points} rows",
        )

    def quality(self, cfg, grid, unit):
        from repro.runner.scenario import execute

        worst = 0.0
        for index, row in unit.output.iter_rows():
            sim = statistics.fmean(row["times"])
            scenario = grid.scenario_at(index).with_backend("analytic")
            analytic = execute(scenario).stats.mean
            worst = max(worst, abs(analytic - sim) / sim)
        return {"quality.model_max_rel_err": worst}


class CampaignBench(CampaignWorkload):
    name = "campaign-bench"
    imports = ("repro.runner.campaign", "repro.model.vector")
    boundaries = (
        "runner.run_campaign", "grid.kernel_columns", "kernel.bench",
        "store.writer.submit", "store.append_columns", "store.iter_columns",
        "store.query", "store.slice_report",
    )
    compression = "binary"
    #: Full drains per unit.
    drains = 3
    query = {"approach": "pt2pt_part", "n_threads": 4}
    report_slice = {"approach": "pt2pt_part"}

    def config(self, seed: int) -> dict:
        return {"spec": specs.campaign_spec(seed)}

    def unit(self, cfg, grid, work, tracer):
        from repro.runner.campaign import run_campaign, slice_report

        store = self.new_store(grid, work)
        start = time.perf_counter()
        with _span(tracer, "runner.run_campaign"):
            summary = run_campaign(store)
        written = time.perf_counter()
        with _span(tracer, "store.iter_columns"):
            drained = [drain_points(store) for _ in range(self.drains)]
        read = time.perf_counter()
        with _span(tracer, "store.query"):
            query_rows = sum(1 for _ in store.query(**self.query))
        queried = time.perf_counter()
        with _span(tracer, "store.slice_report"):
            report = slice_report(store, self.report_slice)
        end = time.perf_counter()
        extra = _store_facts(store)
        extra.update(
            drains=drained,
            drain_s=read - written,
            query_s=queried - read,
            query_rows=query_rows,
            report_s=end - queried,
            report_points=report["points"],
        )
        return Unit(
            wall_s=end - start, points=summary["executed"],
            compute_s=written - start, output=store, extra=extra,
        )

    def check(self, cfg, grid, unit, checks):
        store = unit.output
        n = store.n_points
        check_store_complete(store, checks)
        for drained in unit.extra["drains"]:
            checks.expect(drained == n, f"drain returned {drained} of {n}")
        n_approaches = len(grid.axes["approach"])
        n_threads = len(grid.axes["n_threads"])
        checks.expect(
            unit.extra["query_rows"] == n // (n_approaches * n_threads),
            f"query returned {unit.extra['query_rows']} rows",
        )
        checks.expect(
            unit.extra["report_points"] == n // n_approaches,
            f"slice report covered {unit.extra['report_points']} points",
        )
        checks.expect(
            unit.environments == 0,
            f"analytic campaign built {unit.environments} simulations",
        )
        check_analytic_sample(store, checks, SAMPLE_POINTS)

    def probe(self):
        return bench_kernel_probe()


class CampaignPatternSharded(CampaignWorkload):
    name = "campaign-pattern-sharded"
    imports = ("repro.runner.campaign", "repro.runner.shard")
    boundaries = ("shard.run_sharded",)
    children = True
    compression = "binary"

    def config(self, seed: int) -> dict:
        return {"spec": specs.pattern_campaign_spec(seed)}

    def unit(self, cfg, grid, work, tracer):
        from repro.runner.shard import run_sharded
        from repro.telemetry import read_metrics_jsonl

        store = self.new_store(grid, work)
        start = time.perf_counter()
        with _span(tracer, "shard.run_sharded"):
            summary = run_sharded(
                store, n_shards=N_SHARDS, shard_metrics=tracer is not None
            )
        wall = time.perf_counter() - start
        extra = _store_facts(store)
        extra["merge_s"] = summary["merge"]["wall_s"]
        if tracer is not None:
            extra["slowest_s"] = max(
                read_metrics_jsonl(info["metrics"])["span_totals"][
                    "campaign.run"
                ]["total_s"]
                for info in summary["shards"]
            )
            extra["spawn_s"] = wall - extra["merge_s"] - extra["slowest_s"]
        return Unit(
            wall_s=wall, points=summary["executed"], compute_s=wall,
            output=store, extra=extra,
        )

    def check(self, cfg, grid, unit, checks):
        store = unit.output
        check_store_complete(store, checks)
        drained = drain_points(store)
        checks.expect(
            drained == store.n_points,
            f"drain returned {drained} of {store.n_points}",
        )
        checks.expect(
            unit.environments == 0,
            f"analytic campaign built {unit.environments} simulations",
        )
        check_analytic_sample(store, checks, SAMPLE_POINTS)

    def probe(self):
        return pattern_kernel_probe()


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        FiguresSim(), PatternsSim(), CampaignBench(), CampaignPatternSharded()
    )
}


# ---------------------------------------------------------------------------
# kernel probes
# ---------------------------------------------------------------------------

def _median_call_s(fn: Callable[[], Any], reps: int = PROBE_REPS) -> float:
    fn()  # warm
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def bench_kernel_probe(n: int = BENCH_PROBE_POINTS) -> Dict[str, float]:
    """ns/point of the bench kernel per approach on one fixed batch."""
    import numpy as np

    from repro.model.vector import bench_times_from_columns
    from repro.mpi import Cvars
    from repro.net import MELUXINA

    rng = np.random.default_rng(0)
    columns = {
        "n_threads": rng.choice([1, 4, 16, 32], n),
        "theta": rng.choice([1, 2], n),
        "total_bytes": 1024 + 4096 * rng.integers(0, 8000, n),
        "gamma_us_per_mb": rng.choice([0.0, 50.0, 100.0, 200.0, 400.0], n),
    }
    cvars = Cvars()
    out = {}
    for approach in specs.APPROACHES:
        batch = dict(columns, approach=approach)
        seconds = _median_call_s(
            lambda: bench_times_from_columns(
                MELUXINA, cvars.num_vcis, cvars.vci_method,
                cvars.part_aggr_size, batch, n,
            )
        )
        out[f"kernel.bench.{approach}.ns_per_point"] = seconds / n * 1e9
    return out


def pattern_kernel_probe(n: int = PATTERN_PROBE_POINTS) -> Dict[str, float]:
    """ns/point of the pattern kernel per pattern and per approach on
    fixed batches, and the cost of building a cold topology cache."""
    import numpy as np

    from repro.model.vector import pattern_times_from_columns
    from repro.mpi import Cvars
    from repro.net import MELUXINA

    rng = np.random.default_rng(0)
    noises = ["none", "single", "uniform", "gaussian"]
    base = {
        "n_ranks": 8,
        "n_threads": rng.choice([2, 4, 8], n),
        "msg_bytes": 16384 * rng.integers(1, 65, n),
        "noise": (noises, rng.integers(0, len(noises), n)),
        "noise_us": rng.choice([0.0, 25.0, 50.0, 100.0], n),
        "compute_us_per_mb": rng.choice([0.0, 200.0], n),
    }
    patterns = (list(specs.PATTERNS), rng.integers(0, len(specs.PATTERNS), n))
    approaches = (
        list(specs.APPROACHES), rng.integers(0, len(specs.APPROACHES), n)
    )
    cvars = Cvars()

    def kernel(columns):
        return lambda: pattern_times_from_columns(
            MELUXINA, cvars.num_vcis, cvars.part_aggr_size, columns, n
        )

    out = {}
    for pattern in specs.PATTERNS:
        batch = dict(base, pattern=pattern, approach=approaches)
        out[f"kernel.pattern.{pattern}.ns_per_point"] = (
            _median_call_s(kernel(batch)) / n * 1e9
        )
    for approach in specs.APPROACHES:
        batch = dict(base, pattern=patterns, approach=approach)
        out[f"kernel.pattern.{approach}.ns_per_point"] = (
            _median_call_s(kernel(batch)) / n * 1e9
        )
    # 16 ranks: geometries no workload or probe above has cached.
    cold = kernel(dict(base, n_ranks=16, pattern=patterns, approach=approaches))
    start = time.perf_counter()
    cold()
    first = time.perf_counter() - start
    out["kernel.pattern.topology_cold_s"] = first - _median_call_s(cold, 1)
    return out


# ---------------------------------------------------------------------------
# tracing boundaries and per-layer metrics
# ---------------------------------------------------------------------------

#: Event classes reported by name; the rest are counted as ``other``.
EVENT_TYPES = ("Timeout", "Event", "Request", "Release", "Process")


def _tally_event(counts: Counter, args: tuple) -> None:
    counts["sim.events." + type(args[1]).__name__] += 1


def _tally_packet(counts: Counter, args: tuple) -> None:
    counts["net.packets"] += 1
    counts["net.bytes"] += args[1].nbytes


def install_boundaries(tracer: Tracer) -> None:
    """Wrap the program's layer boundaries (see :mod:`tracer`)."""
    from repro import runner
    from repro.apps import base as apps_base
    from repro.bench import harness
    from repro.model import vector
    from repro.net.nic import Nic
    from repro.runner.campaign import CampaignStore
    from repro.runner.executor import AsyncSegmentWriter
    from repro.runner.scenario import ScenarioGrid
    from repro.sim.core import Environment

    tracer.wrap_span(Environment, "run", "sim.run")
    tracer.wrap_count(Environment, "schedule", _tally_event)
    tracer.wrap_count(Nic, "deliver", _tally_packet)
    tracer.wrap_span(harness, "run_benchmark", "bench.run_benchmark")
    tracer.wrap_span(runner, "run_specs", "runner.run_specs")
    tracer.wrap_span(apps_base, "run_pattern", "apps.run_pattern")
    tracer.wrap_span(CampaignStore, "append_chunk", "store.append_chunk")
    tracer.wrap_span(CampaignStore, "append_columns", "store.append_columns")
    tracer.wrap_span(AsyncSegmentWriter, "submit", "store.writer.submit")
    tracer.wrap_span(ScenarioGrid, "kernel_columns", "grid.kernel_columns")
    tracer.wrap_span(vector, "bench_times_from_columns", "kernel.bench")


def _percentile_ms(values: List[float], q: int) -> float:
    """The ``q``-th percentile of durations in seconds, in ms."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def boundary_calls(tracer: Tracer, name: str) -> int:
    """Calls recorded at a span or counter boundary."""
    if name == "sim.events":
        return sum(
            v for k, v in tracer.counts.items() if k.startswith("sim.events.")
        )
    if name in tracer.counts:
        return tracer.counts[name]
    return tracer.calls(name)


def layer_metrics(
    tracer: Tracer, unit: Unit, reference: Unit
) -> Dict[str, float]:
    """Every per-layer metric of one traced unit.  A layer the workload
    does not reach reads 0."""
    t = tracer
    named = {f"sim.events.{kind}": t.counts[f"sim.events.{kind}"]
             for kind in EVENT_TYPES}
    n_events = boundary_calls(t, "sim.events")
    run_s = t.self_total("sim.run")
    bench_s = t.durations("bench.run_benchmark")
    pattern_s = t.durations("apps.run_pattern")
    extra = unit.extra
    metrics = {
        "sim.environments": unit.environments,
        "sim.events": n_events,
        **named,
        "sim.events.other": n_events - sum(named.values()),
        "sim.run_s": run_s,
        "sim.events_per_s": n_events / run_s if run_s else 0.0,
        "bench.run_benchmark.calls": len(bench_s),
        "bench.run_benchmark.p50_ms": _percentile_ms(bench_s, 50),
        "bench.run_benchmark.p95_ms": _percentile_ms(bench_s, 95),
        "bench.run_benchmark.self_s": t.self_total("bench.run_benchmark"),
        **{
            f"figures.{name}.wall_s": t.total(f"figures.{name}")
            for name in (*specs.FIGURES, "tables")
        },
        "runner.run_specs.self_s": t.self_total("runner.run_specs"),
        "net.packets": t.counts["net.packets"],
        "net.bytes": t.counts["net.bytes"],
        "apps.run_pattern.calls": len(pattern_s),
        "apps.run_pattern.p50_ms": _percentile_ms(pattern_s, 50),
        "apps.run_pattern.p90_ms": _percentile_ms(pattern_s, 90),
        "store.append_chunk.calls": t.calls("store.append_chunk"),
        "store.append_chunk.total_s": t.total("store.append_chunk"),
        "store.append_columns.calls": t.calls("store.append_columns"),
        "store.append_columns.total_s": t.total("store.append_columns"),
        "store.writer.submit_wait_s": t.total("store.writer.submit"),
        "store.bytes": extra.get("store_bytes", 0),
        "store.segments": extra.get("store_segments", 0),
        "grid.kernel_columns.total_s": t.total("grid.kernel_columns"),
        "store.iter_columns.points_per_s": (
            sum(extra["drains"]) / extra["drain_s"]
            if extra.get("drain_s")
            else 0.0
        ),
        "store.query_s": extra.get("query_s", 0.0),
        "store.slice_report_s": extra.get("report_s", 0.0),
        "runner.run_campaign.self_s": t.self_total("runner.run_campaign"),
        "kernel.bench.calls": t.calls("kernel.bench"),
        "kernel.bench.total_s": t.total("kernel.bench"),
        "shard.merge_s": extra.get("merge_s", 0.0),
        "shard.slowest_s": extra.get("slowest_s", 0.0),
        "shard.spawn_s": extra.get("spawn_s", 0.0),
        "trace.overhead_s": unit.wall_s - reference.wall_s,
        # Filled in by the workload's probe() and quality() when it has them.
        **{
            f"kernel.bench.{approach}.ns_per_point": 0.0
            for approach in specs.APPROACHES
        },
        **{
            f"kernel.pattern.{name}.ns_per_point": 0.0
            for name in (*specs.PATTERNS, *specs.APPROACHES)
        },
        "kernel.pattern.topology_cold_s": 0.0,
        "quality.paper_gap_geomean": 0.0,
        "quality.model_max_rel_err": 0.0,
    }
    return metrics


# ---------------------------------------------------------------------------
# the measurement loop
# ---------------------------------------------------------------------------

@dataclass
class Result:
    metrics: Dict[str, float]
    attempted: int
    failures: List[str]
    #: Wall time of every unit run (a traced run: untraced, traced).
    unit_walls: List[float]
    notes: List[str]
    tracer: Optional[Tracer] = None

    @property
    def failed(self) -> int:
        return len(self.failures)


def import_probe_s(modules: tuple) -> float:
    """Wall time of a fresh interpreter importing ``modules``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(modules)],
        env=env, cwd=ROOT, check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    return time.perf_counter() - start


def peak_rss_mb(children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    config: Optional[dict] = None,
    setup_reps: int = SETUP_REPS,
) -> Result:
    """Set ``workload`` up ``setup_reps`` times, then time units of it
    for ``seconds`` (at least one) or, when ``trace``, one untraced and
    one traced unit."""
    from repro.sim.core import Environment

    cfg = config if config is not None else workload.config(seed)
    work = WORK_DIR / f"{workload.name}-{os.getpid()}"
    checks = Checks()
    notes: List[str] = []
    shutil.rmtree(work, ignore_errors=True)
    try:
        # An untimed import first fills the page cache, so set-up times
        # measure the interpreter rather than whatever else uses the disk.
        import_probe_s(workload.imports)
        setup_samples = []
        for rep in range(setup_reps):
            probe_s = import_probe_s(workload.imports)
            start = time.perf_counter()
            state = workload.setup(cfg, work / f"setup{rep}")
            setup_samples.append(probe_s + time.perf_counter() - start)

        def run_unit(index: int, tracer: Optional[Tracer] = None) -> Unit:
            unit_dir = work / f"unit{index}"
            gc.collect()
            before = Environment.instances_created
            unit = workload.unit(cfg, state, unit_dir, tracer)
            unit.environments = Environment.instances_created - before
            workload.check(cfg, state, unit, checks)
            return unit

        if not trace:
            units: List[Unit] = []
            deadline = time.perf_counter() + seconds
            while True:
                unit = run_unit(len(units))
                notes.extend(n for n in unit.notes if n not in notes)
                unit.output = None
                shutil.rmtree(work / f"unit{len(units)}", ignore_errors=True)
                units.append(unit)
                # Start another unit only if it can finish in time.
                if time.perf_counter() + unit.wall_s > deadline:
                    break
            # Other work on a shared machine only ever adds time, so the
            # fastest unit is the steadiest estimate of what the code costs.
            metrics = {
                "setup_s": statistics.median(setup_samples),
                "wall_s": min(u.wall_s for u in units),
                "points_per_s": max(u.points / u.compute_s for u in units),
                "peak_rss_mb": peak_rss_mb(workload.children),
            }
            return Result(
                metrics, checks.attempted, checks.failures,
                [u.wall_s for u in units], notes,
            )

        reference = run_unit(0)
        reference.output = None
        with Tracer(workload.name) as tracer:
            install_boundaries(tracer)
            traced = run_unit(1, tracer)
        notes.extend(n for n in traced.notes if n not in notes)
        for name in workload.boundaries:
            checks.expect(
                boundary_calls(tracer, name) > 0,
                f"traced unit recorded no call at {name}",
            )
        metrics = layer_metrics(tracer, traced, reference)
        metrics.update(workload.probe())
        metrics.update(workload.quality(cfg, state, traced))
        return Result(
            metrics, checks.attempted, checks.failures,
            [reference.wall_s, traced.wall_s], notes, tracer,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
