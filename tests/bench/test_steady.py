"""The harness's steady-state fast path (:mod:`repro.bench.steady`).

A run stops at the first iteration boundary whose canonical snapshot
equals the previous boundary's and replicates the last simulated
iteration.  These tests pin the three things that make that safe: the
replicated results equal a full simulation up to clock rounding, the
snapshot classifies every attribute it can reach, and it sees the state
that distinguishes two boundaries (pending event times, contention
agents) while tolerating only rounding of the clock.
"""

import importlib
import math
from collections import deque
from types import FunctionType, GeneratorType, MethodType

import pytest

from repro import telemetry
from repro.bench import BenchSpec, harness, run_benchmark, steady
from repro.mpi import Cvars, MPIWorld

FIGURES = (
    "fig4_improvement",
    "fig5_congestion",
    "fig6_vcis",
    "fig7_aggregation",
    "fig8_earlybird",
)


def _full_path(monkeypatch):
    """Disable the snapshot: the harness then simulates every iteration."""
    monkeypatch.setattr(harness, "snapshot", lambda *args: None)


def _points(data):
    sweep = data.sweep
    return {
        (label, size): sweep.get(label, size)
        for label in sweep.approaches()
        for size in sweep.sizes(label)
    }


def _boundaries(run):
    """Run ``run()`` with a registry; return the steady-state counters."""
    registry = telemetry.MetricsRegistry()
    with telemetry.using_registry(registry):
        result = run()
    counters = {
        key.split("=")[1].rstrip("}"): value
        for key, value in registry.counters.items()
        if key.startswith("bench.steady_state")
    }
    return result, counters, registry.counters


@pytest.mark.parametrize("figure", FIGURES)
def test_fast_path_matches_full_simulation_on_quick_grid(figure, monkeypatch):
    module = importlib.import_module(f"repro.figures.{figure}")

    def run():
        return module.run(iterations=3, quick=True, backend="sim", jobs=1)

    fast, boundaries, _ = _boundaries(run)
    _full_path(monkeypatch)
    full, never, _ = _boundaries(run)
    assert set(never) == {"never"}
    fast_points, full_points = _points(fast), _points(full)
    assert fast_points.keys() == full_points.keys()
    for key, expected in full_points.items():
        got = fast_points[key]
        assert len(got.times) == len(expected.times), key
        assert got.verified == expected.verified, key
        assert got.retries == expected.retries, key
        for a, b in zip(got.times, expected.times):
            assert abs(a - b) <= 1e-12 * abs(b), (key, a, b)
    # The fast path engaged on every simulation.
    assert boundaries.get("never", 0) == 0


def test_fast_path_engages_across_the_quick_grids():
    """Exact Δt comparison engages far less often: rounding of the
    absolute clock makes most boundaries differ in the last bits."""
    counts = {}
    for figure in FIGURES:
        module = importlib.import_module(f"repro.figures.{figure}")
        _, boundaries, _ = _boundaries(
            lambda: module.run(iterations=3, quick=True, backend="sim", jobs=1)
        )
        for key, value in boundaries.items():
            counts[key] = counts.get(key, 0) + value
    total = sum(counts.values())
    assert counts.get("2", 0) >= 0.85 * total, counts


def test_replication_counts_iterations_and_snapshot_time():
    spec = BenchSpec("pt2pt_part", 65536, n_threads=4, iterations=10)
    result, boundaries, counters = _boundaries(lambda: run_benchmark(spec))
    assert boundaries == {"2": 1}
    assert counters["bench.iterations.simulated"] == 2
    assert counters["bench.iterations.replicated"] == 9
    assert counters["bench.snapshot_s"] > 0.0
    assert len(result.times) == 10
    # Iterations 2.. replicate iteration 1.
    assert result.times[1:] == [result.times[0]] * 9


def test_iterations_beyond_the_paper_count_cost_two_simulated():
    spec = BenchSpec("pt2pt_many", 4096, n_threads=2, iterations=150)
    _, boundaries, counters = _boundaries(lambda: run_benchmark(spec))
    assert boundaries == {"2": 1}
    assert counters["bench.iterations.simulated"] == 2


@pytest.mark.parametrize(
    "spec",
    [
        BenchSpec("pt2pt_part", 4096, n_threads=2, iterations=4,
                  gaussian_mu_us_per_mb=50.0, gaussian_epsilon=0.2),
        BenchSpec("pt2pt_part", 4096, n_threads=2, iterations=4, verify=True),
    ],
    ids=["gaussian", "verify"],
)
def test_random_or_verified_points_simulate_in_full(spec, monkeypatch):
    result, boundaries, _ = _boundaries(lambda: run_benchmark(spec))
    assert boundaries == {"never": 1}
    _full_path(monkeypatch)
    full = run_benchmark(spec)
    assert list(map(float.hex, result.times)) == list(map(float.hex, full.times))
    assert result.verified and full.verified


# -- the snapshot itself --------------------------------------------------


def _parked_world(delay):
    """A world whose one process waits on a timeout of ``delay``."""
    world = MPIWorld(n_ranks=2)

    def sleeper():
        yield world.env.timeout(delay)

    world.launch(0, sleeper())
    world.run(until=0.5)
    return world


def test_snapshot_sees_pending_event_times():
    same = steady.same_state(
        steady.snapshot(_parked_world(1.0)), steady.snapshot(_parked_world(1.0))
    )
    assert same
    assert not steady.same_state(
        steady.snapshot(_parked_world(1.0)), steady.snapshot(_parked_world(2.0))
    )


def test_snapshot_sees_recent_contention_agents():
    world = _parked_world(1.0)
    window = world.ranks[0].nic.vcis[0]._contention
    before = steady.snapshot(world)
    # An agent older than the window expires before the next grant counts.
    window._agents[10**9] = world.env.now - 2 * window.window
    assert steady.same_state(before, steady.snapshot(world))
    window._agents[10**9] = world.env.now - window.window / 2
    assert not steady.same_state(before, steady.snapshot(world))


def test_same_state_tolerates_clock_rounding_only():
    def snap(now, delta):
        return steady.Snapshot(now, [steady.CLOCK_ULPS], [delta])

    now = 3.7e-4
    ulp = math.ulp(now)
    assert steady.same_state(snap(now, -1e-6), snap(now, -1e-6 + 3 * ulp))
    assert steady.same_state(
        snap(now, -1e-6), snap(now, -1e-6 + steady.CLOCK_ULPS * ulp)
    )
    assert not steady.same_state(snap(now, -1e-6), snap(now, -1e-6 + 1e-12))


def test_unknown_callback_or_tracing_is_not_canonicalized():
    world = _parked_world(1.0)
    event = world.env.event()
    event.callbacks.append(lambda _: None)
    world.ranks[0].matching[0]._posted.append(event)
    assert steady.snapshot(world) is None
    previous = telemetry.set_trace_sink([].append)
    try:
        traced = MPIWorld(n_ranks=2)
    finally:
        telemetry.set_trace_sink(previous)
    assert steady.snapshot(traced) is None


# -- completeness ---------------------------------------------------------

#: Specs that together reach every approach, both partitioned paths,
#: aggregation, many VCIs, thread teams and the delayed last partition.
COMPLETENESS_SPECS = [
    BenchSpec(approach, 1 << 16, n_threads=4, iterations=3, cvars=cvars,
              gamma_us_per_mb=gamma)
    for approach in sorted(harness.APPROACHES)
    for cvars, gamma in ((Cvars(), 0.0), (Cvars(num_vcis=4), 100.0))
] + [
    BenchSpec("pt2pt_part", 1 << 16, n_threads=4, theta=8, iterations=3,
              cvars=Cvars(part_aggr_size=4096)),
    BenchSpec("pt2pt_part", 1 << 20, n_threads=2, iterations=3,
              cvars=Cvars(part_skip_first_cts=True)),
]

_LEAVES = (type(None), bool, int, float, str, type)


def _unclassified(world):
    """Walk every object the snapshot can reach from the heap, the
    running process and the world; return attributes missing from
    :data:`steady.FIELDS` and types it does not know."""
    env = world.env
    todo = deque([entry[3] for entry in env._queue])
    todo.append(env.active_process)
    todo.append(world)
    seen, missing = set(), set()
    while todo:
        obj = todo.popleft()
        if isinstance(obj, _LEAVES) or id(obj) in seen:
            continue
        seen.add(id(obj))
        cls = type(obj)
        if cls in steady._VALUES:
            continue
        if isinstance(obj, (list, tuple, deque, set, frozenset)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.keys())
            todo.extend(obj.values())
        elif cls is MethodType:
            todo.append(obj.__self__)
        elif cls is FunctionType:
            todo.extend(cell.cell_contents for cell in obj.__closure__ or ())
        elif cls is GeneratorType:
            # The harness declares which of its own locals are state.
            while obj is not None and obj.gi_frame is not None:
                local = obj.gi_frame.f_locals
                names = harness._HARNESS_LOCALS.get(obj.gi_code, local)
                todo.extend(local.get(name) for name in names)
                obj = obj.gi_yieldfrom
        else:
            try:
                layout = steady._layout(cls)
            except steady._Opaque:
                missing.add(cls.__name__)
                continue
            names = set(getattr(obj, "__dict__", ()))
            for base in cls.__mro__:
                names.update(base.__dict__.get("__slots__", ()))
            missing.update(
                f"{cls.__name__}.{name}" for name in names - set(layout)
            )
            todo.extend(
                getattr(obj, name) for name in names & set(layout)
                if layout[name] is not steady.SKIP and hasattr(obj, name)
            )
    return missing


@pytest.mark.parametrize(
    "spec", COMPLETENESS_SPECS,
    ids=lambda s: f"{s.approach}-vcis{s.cvars.num_vcis}-aggr"
                  f"{s.cvars.part_aggr_size}-skipcts{int(s.cvars.part_skip_first_cts)}",
)
def test_every_reachable_attribute_is_classified(spec, monkeypatch):
    found = []
    snapshot = harness.snapshot

    def checked(world, frame_locals):
        found.append(_unclassified(world))
        snap = snapshot(world, frame_locals)
        assert snap is not None
        return snap

    monkeypatch.setattr(harness, "snapshot", checked)
    run_benchmark(spec)
    assert found
    assert all(not missing for missing in found), found
