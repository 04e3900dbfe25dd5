"""The N-rank application-pattern framework.

Generalizes the two-rank Fig. 3 harness (:mod:`repro.bench.harness`) to
arbitrary communication *patterns*: a pattern is a directed graph of
point-to-point links over an ``n_ranks``-rank world, each link driven by
any registered :class:`~repro.bench.approaches.Approach` (partitioned,
per-partition sends, RMA, ...).  Every link gets its own pair
sub-communicator (group ordered sender-first, so the approaches' peer
literals hold) and — for RMA approaches — its own window-pairing keys,
so hundreds of links coexist in one simulated job.

Per iteration the harness runs the paper's tik/tok template on every
rank: a world barrier (*tik*), receive/send start calls from the master
thread, per-thread compute + noise per partition with ``ready`` as each
partition finishes, then master-thread completion (*tok* = the last rank
finishing its waits).  Patterns with wavefront dependencies (Sweep3D)
declare *blocking* receives that must complete before a rank's compute
phase.  The metric generalizes §2.1: iteration makespan minus the
slowest thread's total compute+noise time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Type

from ..bench.approaches import APPROACHES, Approach, ApproachConfig
from ..bench.stats import SampleStats, summarize
from ..mpi import Cvars, MPIWorld
from ..net import MELUXINA, SystemParams
from ..threads import ComputeModel, GaussianComputeModel, NoDelayModel, ThreadTeam
from .noise import NoisyComputeModel, NOISE_MODELS, make_noise

__all__ = [
    "Link",
    "PatternConfig",
    "Pattern",
    "PatternResult",
    "PATTERNS",
    "register_pattern",
    "build_pattern",
    "run_pattern",
    "align_bytes",
]


def align_bytes(nbytes: int, n_threads: int) -> int:
    """Round a message size up to a multiple of the partition count."""
    if nbytes < 1:
        raise ValueError("nbytes must be >= 1")
    rem = nbytes % n_threads
    return nbytes if rem == 0 else nbytes + (n_threads - rem)


@dataclass(frozen=True)
class Link:
    """One directed sender→receiver message of a pattern's iteration."""

    src: int
    dst: int
    nbytes: int
    #: Globally unique, stable identifier — names the link's pair
    #: sub-communicator context and RMA window keys.
    key: str

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"self-link at rank {self.src} ({self.key})")
        if self.nbytes < 1:
            raise ValueError(f"link {self.key} has no payload")


@dataclass(frozen=True)
class PatternConfig:
    """One application-pattern benchmark point."""

    pattern: str
    approach: str = "pt2pt_part"
    n_ranks: int = 8
    #: Threads per rank; each link message carries one partition per
    #: thread (the thread computes it, then marks it ready).
    n_threads: int = 4
    #: Nominal bytes per link message (patterns round up to a partition
    #: multiple; see :func:`align_bytes`).  The default sits in the
    #: large-message regime where pipelining pays off (§2.2).
    msg_bytes: int = 256 << 10
    iterations: int = 10
    warmup: int = 1
    #: Useful-work rate in µs/MB applied to every partition before its
    #: ``ready`` call; > 0 makes the workload overlap-friendly.
    compute_us_per_mb: float = 0.0
    #: Injected-noise shape: one of ``none``/``single``/``uniform``/
    #: ``gaussian`` (Temuçin et al.).
    noise: str = "none"
    #: Noise amplitude in µs (per thread compute quantum).
    noise_us: float = 0.0
    #: Gaussian noise std-dev in µs.
    noise_sigma_us: float = 0.0
    seed: int = 0
    params: SystemParams = MELUXINA
    cvars: Cvars = field(default_factory=Cvars)

    def __post_init__(self) -> None:
        if self.approach not in APPROACHES:
            raise KeyError(
                f"unknown approach {self.approach!r}; "
                f"choose from {sorted(APPROACHES)}"
            )
        if self.noise not in NOISE_MODELS:
            raise KeyError(
                f"unknown noise model {self.noise!r}; "
                f"choose from {sorted(NOISE_MODELS)}"
            )
        if self.n_ranks < 2:
            raise ValueError("patterns need n_ranks >= 2")
        if self.n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        if self.msg_bytes < 1:
            raise ValueError("msg_bytes must be >= 1")
        if self.iterations < 1 or self.warmup < 0:
            raise ValueError("need iterations >= 1 and warmup >= 0")
        if self.compute_us_per_mb < 0:
            raise ValueError("compute_us_per_mb must be >= 0")
        if self.noise_us < 0 or self.noise_sigma_us < 0:
            raise ValueError("noise parameters must be >= 0")

    def compute_model(self, world: MPIWorld, rank: int) -> ComputeModel:
        """The per-rank compute model: deterministic useful work composed
        with this config's injected noise (per-rank seeded stream)."""
        if self.compute_us_per_mb > 0:
            base: ComputeModel = GaussianComputeModel(
                mu=self.compute_us_per_mb * 1e-6 / 1e6,
            )
        else:
            base = NoDelayModel()
        if self.noise == "none":
            return base
        noise = make_noise(
            self.noise,
            self.noise_us * 1e-6,
            self.noise_sigma_us * 1e-6,
        )
        rng = world.rng.stream(f"apps-noise-rank{rank}")
        return NoisyComputeModel(base, noise, rng)


class Pattern:
    """Base class: a pattern is a link graph plus optional dependencies.

    Contract: the ``(src, dst, key)`` links and :meth:`blocking_recvs`
    depend on ``n_ranks`` alone, and every link carries
    ``align_bytes(msg_bytes, n_threads)`` — the analytic kernel builds
    one graph per ``(pattern, n_ranks)`` and computes payloads as columns.
    """

    #: Registry key.
    name = "abstract"
    #: True when :meth:`blocking_recvs` is non-trivial (wavefronts); the
    #: harness inserts the extra dependency-wait phase only then.
    has_dependencies = False

    def __init__(self, config: PatternConfig):
        self.config = config

    def links(self) -> List[Link]:
        """All links of one iteration, in a deterministic global order."""
        raise NotImplementedError

    def blocking_recvs(self, rank: int) -> List[str]:
        """Keys of incoming links that must complete before ``rank``'s
        compute phase (wavefront dependencies).  Default: none."""
        return []

    def describe(self) -> str:
        """One-line human-readable topology summary."""
        return self.name

    def bytes_per_iteration(self) -> int:
        """Total payload bytes moved per iteration (bandwidth metric)."""
        return sum(link.nbytes for link in self.links())


#: Registry: pattern key -> class.
PATTERNS: Dict[str, Type[Pattern]] = {}


def register_pattern(cls: Type[Pattern]) -> Type[Pattern]:
    """Class decorator adding a pattern to the registry."""
    if cls.name in PATTERNS:
        raise ValueError(f"duplicate pattern name {cls.name!r}")
    PATTERNS[cls.name] = cls
    return cls


def build_pattern(config: PatternConfig) -> Pattern:
    """Instantiate the registered pattern named by ``config.pattern``."""
    if config.pattern not in PATTERNS:
        raise KeyError(
            f"unknown pattern {config.pattern!r}; "
            f"choose from {sorted(PATTERNS)}"
        )
    return PATTERNS[config.pattern](config)


@dataclass
class PatternResult:
    """Outcome of one pattern benchmark point."""

    config: PatternConfig
    times: List[float]  # post-warmup per-iteration times (seconds)
    stats: SampleStats
    bytes_per_iteration: int
    n_links: int

    @property
    def mean(self) -> float:
        """Mean iteration communication time (seconds)."""
        return self.stats.mean

    @property
    def mean_us(self) -> float:
        """Mean iteration communication time (µs)."""
        return self.stats.mean * 1e6

    @property
    def bandwidth(self) -> float:
        """Perceived aggregate bandwidth in B/s."""
        if not self.stats.mean:
            return 0.0
        return self.bytes_per_iteration / self.stats.mean

    @property
    def bandwidth_gbs(self) -> float:
        """Perceived aggregate bandwidth in GB/s."""
        return self.bandwidth / 1e9


class _PatternRecorder:
    """Per-iteration makespan endpoints and per-(rank, thread) compute."""

    def __init__(self, total_iters: int, n_ranks: int, n_threads: int):
        self.t_start = [float("inf")] * total_iters
        self.t_end = [0.0] * total_iters
        self.compute = [
            [[0.0] * n_threads for _ in range(n_ranks)]
            for _ in range(total_iters)
        ]

    def mark_start(self, it: int, now: float) -> None:
        self.t_start[it] = min(self.t_start[it], now)

    def mark_end(self, it: int, now: float) -> None:
        self.t_end[it] = max(self.t_end[it], now)

    def removal(self, it: int) -> float:
        """The slowest thread's total compute+noise of the iteration."""
        return max(max(per_rank) for per_rank in self.compute[it])

    def iteration_time(self, it: int) -> float:
        return self.t_end[it] - self.t_start[it] - self.removal(it)


def _build_link_approaches(
    world: MPIWorld, pattern: Pattern, config: PatternConfig
) -> List[Tuple[Link, Approach]]:
    """One approach instance per link, each on its own pair communicator."""
    cls = APPROACHES[config.approach]
    out: List[Tuple[Link, Approach]] = []
    for link in pattern.links():
        comms = world.sub_comm((link.src, link.dst), key=link.key)
        acfg = ApproachConfig(
            total_bytes=link.nbytes,
            n_threads=config.n_threads,
            theta=1,
        )
        approach = cls(
            world,
            acfg,
            sender_rank=link.src,
            receiver_rank=link.dst,
            s_comm=comms[link.src],
            r_comm=comms[link.dst],
            win_key=link.key,
        )
        out.append((link, approach))
    return out


def _concurrent(world: MPIWorld, generators):
    """Generator: run several sub-generators concurrently and join them.

    Used for the untimed per-rank init/teardown phases so pairwise
    collectives (window barriers, RTS/CTS handshakes) of different links
    cannot deadlock on sequential ordering.
    """
    procs = [world.env.process(gen) for gen in generators]
    for proc in procs:
        if proc.is_alive:
            yield proc


def _rank_thread(world: MPIWorld, rank: int, tid: int, pattern: Pattern,
                 out_links: List[Tuple[Link, Approach]],
                 in_links: List[Tuple[Link, Approach]],
                 blocking_keys: List[str], team: ThreadTeam,
                 compute: ComputeModel, rec: _PatternRecorder,
                 total_iters: int):
    config = pattern.config
    world_comm = world.comm_world(rank)
    part_bytes = {
        link.key: link.nbytes // config.n_threads for link, _ in out_links
    }
    blocking = [
        (link, ap) for link, ap in in_links if link.key in blocking_keys
    ]
    nonblocking = [
        (link, ap) for link, ap in in_links if link.key not in blocking_keys
    ]

    # ---- persistent setup (untimed) -----------------------------------------
    if tid == 0:
        yield from _concurrent(
            world,
            [ap.s_init() for _, ap in out_links]
            + [ap.r_init() for _, ap in in_links],
        )
    yield from team.barrier()
    for _, ap in out_links:
        yield from ap.s_thread_init(tid)
    for _, ap in in_links:
        yield from ap.r_thread_init(tid)
    yield from team.barrier()

    # ---- iteration loop -----------------------------------------------------
    for it in range(total_iters):
        if tid == 0:
            yield from world_comm.barrier()  # tik
            rec.mark_start(it, world.env.now)
            for _, ap in in_links:
                yield from ap.r_start()
            for _, ap in out_links:
                yield from ap.s_start()
        yield from team.barrier()
        if pattern.has_dependencies:
            # Wavefront dependencies: upstream data gates this rank's
            # compute phase.
            if tid == 0:
                for _, ap in blocking:
                    yield from ap.r_wait()
            yield from team.barrier()
        for link, ap in out_links:
            dt = compute.compute_time(
                tid, tid, part_bytes[link.key], config.n_threads, 1
            )
            if dt > 0:
                yield world.env.timeout(dt)
            rec.compute[it][rank][tid] += dt
            # Thread tid owns partition tid of every outgoing link and
            # marks it ready the moment its compute finishes.
            yield from ap.s_ready(tid, tid)
        yield from team.barrier()
        if tid == 0:
            for _, ap in out_links:
                yield from ap.s_wait()
            for _, ap in nonblocking:
                yield from ap.r_wait()
            rec.mark_end(it, world.env.now)  # tok
    yield from team.barrier()

    # ---- teardown -----------------------------------------------------------
    if tid == 0:
        yield from _concurrent(
            world,
            [ap.s_free() for _, ap in out_links]
            + [ap.r_free() for _, ap in in_links],
        )


def build_world(config: PatternConfig) -> MPIWorld:
    """The N-rank world for a pattern config (AM fallback honored)."""
    cvars = config.cvars
    if APPROACHES[config.approach].requires_am and not cvars.part_force_am:
        cvars = cvars.with_updates(part_force_am=True)
    return MPIWorld(
        n_ranks=config.n_ranks,
        params=config.params,
        cvars=cvars,
        seed=config.seed,
    )


def run_pattern(config: PatternConfig) -> PatternResult:
    """Run one pattern benchmark point and summarize its timings."""
    pattern = build_pattern(config)
    world = build_world(config)
    link_approaches = _build_link_approaches(world, pattern, config)
    total = config.iterations + config.warmup
    rec = _PatternRecorder(total, config.n_ranks, config.n_threads)
    barrier_cost = config.params.barrier_time(config.n_threads)
    for rank in range(config.n_ranks):
        out_links = [
            (link, ap) for link, ap in link_approaches if link.src == rank
        ]
        in_links = [
            (link, ap) for link, ap in link_approaches if link.dst == rank
        ]
        blocking_keys = list(pattern.blocking_recvs(rank))
        team = ThreadTeam(world.env, config.n_threads, barrier_cost)
        compute = config.compute_model(world, rank)
        for tid in range(config.n_threads):
            world.launch(
                rank,
                _rank_thread(
                    world, rank, tid, pattern, out_links, in_links,
                    blocking_keys, team, compute, rec, total,
                ),
            )
    world.run()
    times = [rec.iteration_time(it) for it in range(config.warmup, total)]
    return PatternResult(
        config=config,
        times=times,
        stats=summarize(times),
        bytes_per_iteration=pattern.bytes_per_iteration(),
        n_links=len(link_approaches),
    )
