"""The pipelined-communication benchmark harness (paper Fig. 3).

Drives any registered approach through the template:

1. both ranks initialize persistently (untimed);
2. per iteration: inter-rank ``MPI_Barrier`` (*tik*), master ``start``
   + thread barrier, per-thread compute + ``ready`` per partition,
   thread barrier, master ``wait`` (*tok* on the receiver marks the end);
3. the metric is **time-to-solution minus compute time** (§2.1): from
   the sender's start operation to the receiver's wait completion,
   minus the longest per-thread compute time of the iteration.

Measurement methodology follows §4: warm-up iterations are discarded,
the mean is reported with a 90 % Student-t confidence interval, and a
run whose CI half-width exceeds 5 % of the mean is rerun with a fresh
seed (up to 50 times).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, List, Optional

from .. import telemetry
from ..mpi import Cvars, MPIWorld
from ..mpi.partitioned import negotiate_message_count
from ..net import MELUXINA, SystemParams
from ..sim import StopSimulation
from ..threads import ComputeModel, FixedDelayModel, NoDelayModel, ThreadTeam
from .approaches import APPROACHES, Approach, ApproachConfig
from .stats import CI_FRACTION, MAX_RETRIES, SampleStats, needs_rerun, summarize
from .steady import same_state, snapshot

__all__ = [
    "BenchSpec",
    "BenchResult",
    "run_benchmark",
    "build_world",
    "simulation_key",
]


@dataclass(frozen=True)
class BenchSpec:
    """One benchmark point: an approach under a configuration."""

    approach: str
    total_bytes: int
    n_threads: int = 1
    theta: int = 1
    #: Measured iterations (paper: 150; the default keeps simulated
    #: sweeps fast — deterministic runs have zero variance anyway).
    iterations: int = 30
    warmup: int = 1
    #: Fixed delay rate (µs/MB) applied to the last partition (§4.3);
    #: 0 means all partitions ready immediately.
    gamma_us_per_mb: float = 0.0
    #: Gaussian compute model (Appendix A): average rate µ in µs/MB;
    #: 0 disables.  Takes precedence over ``gamma_us_per_mb``.
    gaussian_mu_us_per_mb: float = 0.0
    #: System-noise ε of the Gaussian model.
    gaussian_epsilon: float = 0.0
    #: Algorithmic imbalance δ of the Gaussian model.
    gaussian_delta: float = 0.0
    params: SystemParams = MELUXINA
    cvars: Cvars = field(default_factory=Cvars)
    seed: int = 0
    #: Carry + check real payloads (slower; used by integration tests).
    verify: bool = False
    #: Retries under the 5 % CI rule (0 disables the rule).
    max_retries: int = 0
    ci_fraction: float = CI_FRACTION

    def __post_init__(self) -> None:
        if self.approach not in APPROACHES:
            raise KeyError(
                f"unknown approach {self.approach!r}; "
                f"choose from {sorted(APPROACHES)}"
            )
        if self.iterations < 1 or self.warmup < 0:
            raise ValueError("need iterations >= 1 and warmup >= 0")

    def compute_model(self, world: Optional[MPIWorld] = None) -> ComputeModel:
        """Build the compute model; a world provides the seeded RNG for
        the Gaussian (Appendix-A) variant."""
        if self.gaussian_mu_us_per_mb > 0:
            from ..threads import GaussianComputeModel

            rng = world.rng.stream("bench-compute") if world is not None else None
            return GaussianComputeModel(
                mu=self.gaussian_mu_us_per_mb * 1e-6 / 1e6,
                epsilon=self.gaussian_epsilon,
                delta=self.gaussian_delta,
                rng=rng,
            )
        if self.gamma_us_per_mb > 0:
            return FixedDelayModel.from_us_per_mb(self.gamma_us_per_mb)
        return NoDelayModel()


@dataclass
class BenchResult:
    """Outcome of one benchmark point."""

    spec: BenchSpec
    times: List[float]  # post-warmup per-iteration times (seconds)
    stats: SampleStats
    retries: int
    verified: bool

    @property
    def mean(self) -> float:
        """Mean communication time (seconds)."""
        return self.stats.mean

    @property
    def mean_us(self) -> float:
        """Mean communication time (µs, the paper's unit)."""
        return self.stats.mean * 1e6

    @property
    def bandwidth(self) -> float:
        """Perceived bandwidth in B/s (Fig. 8's metric)."""
        return self.spec.total_bytes / self.stats.mean if self.stats.mean else 0.0

    @property
    def bandwidth_gbs(self) -> float:
        """Perceived bandwidth in GB/s."""
        return self.bandwidth / 1e9


class _Recorder:
    """Per-iteration timestamps and compute totals.

    Given a world, :meth:`start` also compares the simulation's state at
    each iteration boundary after the first with the previous boundary's
    (:mod:`.steady`); when they are equal the rest of the run repeats
    iteration ``it - 1``, so it stops the run with
    ``StopSimulation(it)``.
    """

    def __init__(self, total_iters: int, n_threads: int,
                 world: Optional[MPIWorld] = None):
        self.t_start = [0.0] * total_iters
        self.t_end = [0.0] * total_iters
        self.compute = [
            [0.0] * n_threads for _ in range(total_iters)
        ]
        self._world = world
        self._last = None
        self._timed = telemetry.active_registry() is not None
        self.snapshot_s = 0.0

    def stop_watching(self) -> None:
        """Drop the world and the last snapshot: a run stopped at a
        boundary leaves suspended generators that keep this recorder
        alive until the cyclic collector finds them."""
        self._world = self._last = None

    def start(self, it: int, now: float) -> None:
        """The sender's master thread starts iteration ``it`` at ``now``."""
        self.t_start[it] = now
        if self._world is None or it < 1:
            return
        t0 = time.perf_counter() if self._timed else 0.0
        last, self._last = self._last, snapshot(self._world, _HARNESS_LOCALS)
        if self._timed:
            self.snapshot_s += time.perf_counter() - t0
        if self._last is None:
            self._world = None  # not canonicalizable: simulate in full
        elif last is not None and same_state(last, self._last):
            # The exception's traceback keeps this frame: hold nothing.
            del last
            self.stop_watching()
            raise StopSimulation(it)

    def removal(self, it: int) -> float:
        """Compute-time removal: the slowest thread's total compute."""
        return max(self.compute[it])

    def iteration_time(self, it: int) -> float:
        return self.t_end[it] - self.t_start[it] - self.removal(it)


def build_world(spec: BenchSpec, seed: Optional[int] = None) -> MPIWorld:
    """Construct the two-rank world for a spec (AM fallback honored)."""
    cvars = spec.cvars
    if APPROACHES[spec.approach].requires_am:
        cvars = cvars.with_updates(part_force_am=True)
    if spec.verify and not cvars.verify_payloads:
        cvars = cvars.with_updates(verify_payloads=True)
    return MPIWorld(
        n_ranks=2,
        params=spec.params,
        cvars=cvars,
        seed=spec.seed if seed is None else seed,
    )


def _sender_thread(world, approach: Approach, team: ThreadTeam,
                   compute: ComputeModel, rec: _Recorder, tid: int,
                   total_iters: int):
    cfg = approach.config
    comm = approach.s_comm
    if tid == 0:
        yield from approach.s_init()
    yield from team.barrier()
    yield from approach.s_thread_init(tid)
    yield from team.barrier()
    for it in range(total_iters):
        if tid == 0:
            yield from comm.barrier()  # tik
            rec.start(it, world.env.now)
            yield from approach.s_start()
        yield from team.barrier()
        for p in cfg.partitions_of(tid):
            dt = compute.compute_time(
                tid, p, cfg.part_bytes, cfg.n_threads, cfg.theta
            )
            if dt > 0:
                yield world.env.timeout(dt)
            rec.compute[it][tid] += dt
        # Partitions are marked ready in order after their compute.
        for p in cfg.partitions_of(tid):
            yield from approach.s_ready(tid, p)
        yield from team.barrier()
        if tid == 0:
            yield from approach.s_wait()
    yield from team.barrier()
    if tid == 0:
        yield from approach.s_free()


def _receiver_thread(world, approach: Approach, team: ThreadTeam,
                     rec: _Recorder, tid: int, total_iters: int):
    cfg = approach.config
    comm = approach.r_comm
    if tid == 0:
        yield from approach.r_init()
    yield from team.barrier()
    yield from approach.r_thread_init(tid)
    yield from team.barrier()
    # The receiver runs ahead of the sender's iteration boundary, so the
    # closing team barrier is the loop's first one: a thread waiting in
    # it is at the same place whether or not another iteration follows.
    for it in range(total_iters + 1):
        if tid == 0 and it < total_iters:
            yield from comm.barrier()  # tik
            yield from approach.r_start()
        yield from team.barrier()
        if it == total_iters:
            break
        for p in cfg.partitions_of(tid):
            yield from approach.r_probe(tid, p)
        yield from team.barrier()
        if tid == 0:
            yield from approach.r_wait()
            rec.t_end[it] = world.env.now  # tok
    if tid == 0:
        yield from approach.r_free()


#: The thread locals a snapshot compares.  The others are bound once
#: before the loop (the arguments, ``cfg``, ``comm``) or are bookkeeping
#: the simulation never reads (``it``, ``rec``, ``dt``); ``p`` fixes the
#: position of a partition loop suspended in compute or ``ready``.
_HARNESS_LOCALS = {
    _sender_thread.__code__: ("tid", "p"),
    _receiver_thread.__code__: ("tid", "p"),
}


def _single_run(spec: BenchSpec, seed: int) -> BenchResult:
    world = build_world(spec, seed=seed)
    cfg = ApproachConfig(
        total_bytes=spec.total_bytes,
        n_threads=spec.n_threads,
        theta=spec.theta,
    )
    approach = APPROACHES[spec.approach](world, cfg)
    compute = spec.compute_model(world)
    total = spec.iterations + spec.warmup
    rec = _Recorder(total, spec.n_threads, world)
    barrier_cost = spec.params.barrier_time(spec.n_threads)
    s_team = ThreadTeam(world.env, spec.n_threads, barrier_cost)
    r_team = ThreadTeam(world.env, spec.n_threads, barrier_cost)
    threads = []
    for tid in range(spec.n_threads):
        threads.append(
            _sender_thread(world, approach, s_team, compute, rec, tid, total)
        )
        threads.append(_receiver_thread(world, approach, r_team, rec, tid, total))
        world.launch(0, threads[-2])
        world.launch(1, threads[-1])
    steady = world.run()
    if steady is not None:
        # Release the suspended threads' frames now rather than at the
        # next cyclic collection.
        for thread in threads:
            thread.close()
    simulated = total if steady is None else steady
    times = [rec.iteration_time(it) for it in range(spec.warmup, simulated)]
    if steady is not None:
        # Iteration steady - 1 repeats to the end; teardown is skipped.
        times += [rec.iteration_time(steady - 1)] * (
            total - max(steady, spec.warmup)
        )
    if telemetry.active_registry() is not None:
        telemetry.count("bench.iterations.simulated", simulated)
        telemetry.count("bench.iterations.replicated", total - simulated)
        telemetry.count(
            "bench.steady_state", boundary="never" if steady is None else steady
        )
        telemetry.count("bench.snapshot_s", rec.snapshot_s)
    return BenchResult(
        spec=spec,
        times=times,
        stats=summarize(times),
        retries=0,
        verified=approach.verify(),
    )


def run_benchmark(spec: BenchSpec) -> BenchResult:
    """Run one benchmark point with the paper's rerun rule."""
    result = _single_run(spec, spec.seed)
    retries = 0
    while (
        retries < min(spec.max_retries, MAX_RETRIES)
        and needs_rerun(result.stats, spec.ci_fraction)
    ):
        retries += 1
        result = _single_run(spec, spec.seed + retries)
    result.retries = retries
    return result


def simulation_key(scenario: Any) -> str:
    """The identity of the simulation a scenario runs: two scenarios
    with equal keys produce bit-identical results, so a batch simulates
    each distinct key once (:func:`~repro.runner.executor.run_scenarios`).

    For a bench spec the key is the scenario's canonical JSON with
    ``cvars.part_aggr_size`` set to 0, plus the message count
    ``negotiate_message_count(n_parts, n_parts, total_bytes,
    part_aggr_size)``.  The proof obligation, which every change to the
    simulator must keep true:

    1. ``part_aggr_size`` reaches the simulation only through
       :func:`~repro.mpi.partitioned.negotiate_message_count` (the
       receiver's decision and the ``part_skip_first_cts``
       pre-agreement in :mod:`repro.mpi.partitioned`); no other module
       of ``sim/``, ``mpi/``, ``net/``, ``threads/`` or ``bench/`` reads
       it;
    2. this harness gives both sides the same partition count,
       ``n_threads * theta``, so the count in the key is the one the
       simulation negotiates;
    3. every other field of the scenario is in the key unchanged.

    Every other kind of scenario keys on its canonical JSON, so only
    exact duplicates share.  Floats compare through their JSON text, so
    ``0.0`` and ``-0.0`` never merge.
    """
    payload = scenario.to_dict()
    spec = scenario.spec
    n_parts = spec.n_threads * spec.theta if isinstance(spec, BenchSpec) else 0
    if n_parts >= 1:
        payload["spec"]["cvars"]["part_aggr_size"] = 0
        payload["n_msgs"] = negotiate_message_count(
            n_parts, n_parts, spec.total_bytes, spec.cvars.part_aggr_size
        )
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
