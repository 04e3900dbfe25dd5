"""Chunked scenario fan-out with deterministic, serial-identical results.

Every scenario builds its own :class:`~repro.mpi.world.MPIWorld` and
shares no state with its neighbours, so a grid is embarrassingly
parallel.  The :class:`ParallelExecutor` asks the planner
(:mod:`repro.runner.planner`) to partition a batch into **chunks** and
fans the pooled chunks out across a ``multiprocessing`` pool — one pool
task per chunk, not per point, so fork/pickle/IPC overhead amortizes
over many scenarios.  Results stream back chunk by chunk (store writes
land incrementally, in completion order) and are reassembled **in
submission order**; both the serial and the parallel path move results
through the same serialized form
(:func:`~repro.runner.scenario.result_to_dict`) — so the output of
``jobs=N`` is byte-identical to ``jobs=1``.

Dispatch is backend-aware: scenarios whose backend is *inline* (the
analytic model — microseconds per point) never go to the pool; the
whole inline sub-batch is handed to
:meth:`~repro.backends.base.Backend.run_batch` in one call, which the
analytic backend evaluates through the vectorized model kernel.  Only
simulation-backed scenarios are worth worker processes — and only when
the grid is big enough: the default ``pool="auto"`` policy falls back
to in-process serial execution for tiny grids and single-CPU machines,
where the pool's fork overhead cannot pay for itself (the historical
``BENCH_runner.json`` regression).

With a :class:`~repro.runner.store.ResultStore` attached, computed
results are recorded chunk-by-chunk and — under ``resume=True`` —
already-recorded scenarios are served from the store without running a
single simulation.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, List, Optional, Sequence

from .. import telemetry
from ..telemetry import span
from .planner import plan_execution
from .scenario import (
    Scenario,
    execute,
    result_from_dict,
    result_to_dict,
    scenario_for,
)
from .store import ResultStore

__all__ = [
    "AsyncSegmentWriter",
    "ParallelExecutor",
    "RunReport",
    "iter_chunk_results",
    "run_scenarios",
    "run_specs",
]


def default_jobs() -> int:
    """The default worker count: one per CPU this process may use.

    Respects cgroup / ``taskset`` affinity masks via
    :func:`~repro.runner.planner.available_cpus`, so containers and CI
    runners with restricted CPU sets do not over-fork.
    """
    from .planner import available_cpus

    return available_cpus()


def _execute_payload(payload: dict) -> dict:
    """Pool worker (one point): scenario dict in, result dict out."""
    scenario = Scenario.from_dict(payload)
    with span("executor.worker.execute"):
        result = execute(scenario)
    telemetry.count("executor.worker.points")
    return result_to_dict(scenario, result)


def _execute_chunk(payloads: List[dict]) -> List[dict]:
    """Pool worker (one chunk): scenario dicts in, result dicts out.

    Module-level (picklable) and dict-in/dict-out so that exactly the
    serialized representation crosses the process boundary — once per
    chunk instead of once per point.
    """
    return [_execute_payload(payload) for payload in payloads]


def _worker_telemetry_init() -> None:
    """Pool initializer: give each worker its own enabled registry, so
    worker-side spans and counters accumulate locally and ship back to
    the parent as per-chunk snapshot deltas."""
    telemetry.set_registry(telemetry.MetricsRegistry())


def _execute_chunk_metered(payloads: List[dict]):
    """The metered twin of :func:`_execute_chunk`: returns
    ``(result_dicts, metrics_snapshot)`` — the worker's telemetry delta
    rides the existing chunk-result channel back to the parent, which
    merges it (:meth:`~repro.telemetry.MetricsRegistry.merge_snapshot`).
    """
    results = _execute_chunk(payloads)
    registry = telemetry.active_registry()
    snapshot = (
        registry.snapshot_and_reset() if registry is not None else None
    )
    return results, snapshot


class AsyncSegmentWriter:
    """A bounded-queue writer thread: store appends overlap compute.

    The campaign profile attributes half the analytic fast path's wall
    to ``store.encode`` + ``store.write`` — work that is serial with
    the kernel only because the chunk loop calls the store inline.
    This writer moves those calls onto one FIFO thread behind a bounded
    queue: the producer submits ``(fn, args)`` work items (already
    holding the kernel's output arrays) and immediately starts the next
    chunk's compute while the writer encodes and appends.

    Determinism: a *single* consumer thread drains the queue in
    submission order, so segment names, contents, and index updates are
    byte-identical to calling ``fn(*args)`` inline — asserted by the
    sync-vs-async store tests.  Error handling: a failed append is
    re-raised in the producer (on the next :meth:`submit` or at
    :meth:`close`), and the queue keeps draining after a failure so the
    producer can never deadlock against a full queue.

    Telemetry: the writer thread records into its *own* registry
    (:func:`~repro.telemetry.set_thread_registry` — the shared span
    stack is not thread-safe) and the owner merges the snapshot into
    the parent registry at :meth:`close`; the producer side records
    ``store.writer.stall`` spans when it blocks on a full queue and a
    ``store.writer.queue_depth`` histogram per submit.
    """

    _CLOSE = object()

    def __init__(self, depth: int = 4):
        self.depth = max(1, int(depth))
        self._queue: queue.Queue = queue.Queue(maxsize=self.depth)
        self._error: Optional[BaseException] = None
        self._parent_registry = telemetry.active_registry()
        self._registry = (
            telemetry.MetricsRegistry()
            if self._parent_registry is not None
            else None
        )
        self._thread = threading.Thread(
            target=self._run, name="segment-writer", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        if self._registry is not None:
            telemetry.set_thread_registry(self._registry)
        try:
            while True:
                item = self._queue.get()
                if item is self._CLOSE:
                    return
                if self._error is None:
                    fn, args, kwargs = item
                    try:
                        fn(*args, **kwargs)
                    except BaseException as exc:  # re-raised producer-side
                        self._error = exc
        finally:
            if self._registry is not None:
                telemetry.set_thread_registry(None)

    def submit(self, fn: Callable, *args: Any, **kwargs: Any) -> None:
        """Enqueue ``fn(*args, **kwargs)``; blocks when ``depth`` items
        are already pending (backpressure keeps memory bounded)."""
        if self._error is not None:
            self._raise()
        item = (fn, args, kwargs)
        if self._queue.full():
            with span("store.writer.stall"):
                self._queue.put(item)
        else:
            self._queue.put(item)
        telemetry.observe("store.writer.queue_depth", self._queue.qsize())

    def close(self) -> None:
        """Drain the queue, stop the thread, merge telemetry, and
        re-raise any deferred append error.  Idempotent."""
        if self._thread.is_alive():
            self._queue.put(self._CLOSE)
        self._thread.join()
        if (
            self._registry is not None
            and self._parent_registry is not None
        ):
            self._parent_registry.merge_snapshot(
                self._registry.snapshot_and_reset()
            )
        if self._error is not None:
            self._raise()

    def _raise(self) -> None:
        error, self._error = self._error, None
        raise error

    def __enter__(self) -> "AsyncSegmentWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self.close()
        else:
            # The producer is already failing: drain without masking
            # its exception with a (likely secondary) writer error.
            try:
                self.close()
            except BaseException:
                pass
        return False


def iter_chunk_results(
    payload_chunks: Iterable[List[dict]],
    workers: int,
    window: int,
    use_pool: bool = True,
):
    """Yield one result-dict list per payload chunk, **in submission
    order**, keeping up to ``window`` chunks in flight on a persistent
    pool — the campaign submit-ahead pipeline.

    The per-chunk ``executor.run()`` loop drains the pool at every
    chunk boundary (workers idle while the consumer writes its
    segment).  Here one pool spans the whole campaign: while the
    consumer handles chunk *k*, chunks *k+1 … k+window-1* are already
    executing.  Ordered delivery means the consumer's store writes are
    byte-identical to sequential execution — results move through
    exactly the serialized form ``_execute_chunk`` produces either
    way, so ``use_pool=False`` (the auto-serial fallback) differs only
    in wall-clock.

    ``payload_chunks`` is consumed lazily: a chunk's payloads are only
    materialized when a window slot frees up, so million-point
    campaigns never hold more than ``window`` chunks of scenario
    dicts.  The pool itself is created lazily, on the first chunk —
    a resume with nothing left to run forks no workers at all.
    """
    if not use_pool or workers <= 1:
        for payloads in payload_chunks:
            # Compute inside the span, yield outside: the consumer's
            # store write must not be charged to executor.compute.
            with span("executor.compute"):
                results = _execute_chunk(payloads)
            yield results
        return
    from collections import deque

    window = max(1, int(window))
    # One metering decision for the whole pipeline: when telemetry is
    # active, workers get their own registries (pool initializer) and
    # each chunk result carries its metrics delta back for merging.
    metered = telemetry.active_registry() is not None
    #: In-flight AsyncResults, in submission order.
    pending: deque = deque()

    def resolve(result):
        # Time blocked on the ordered-consume turn: ~0 when the chunk
        # already finished, the pipeline's stall otherwise.
        with span("executor.stall"):
            value = result.get()
        if metered:
            results, snapshot = value
            registry = telemetry.active_registry()
            if registry is not None:
                registry.merge_snapshot(snapshot)
            return results
        return value

    task = _execute_chunk_metered if metered else _execute_chunk
    pool = None
    try:
        for payloads in payload_chunks:
            if pool is None:
                pool = multiprocessing.Pool(
                    processes=workers,
                    initializer=(
                        _worker_telemetry_init if metered else None
                    ),
                )
            pending.append(pool.apply_async(task, (payloads,)))
            telemetry.observe("executor.window_occupancy", len(pending))
            while len(pending) >= window:
                yield resolve(pending.popleft())
        while pending:
            yield resolve(pending.popleft())
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()


@dataclass
class RunReport:
    """Outcome of one executor submission."""

    #: Native result objects, in submission order.
    results: List[Any] = field(default_factory=list)
    #: Serialized result dicts, parallel to ``results`` (the byte-stable
    #: form used for determinism checks and store records).
    result_dicts: List[dict] = field(default_factory=list)
    #: Number of scenarios actually executed by this submission.
    executed: int = 0
    #: Number of scenarios served from the store without running.
    cached: int = 0
    #: Worker count requested for the simulated portion.
    jobs: int = 1
    #: Chunks the planner produced (inline + pooled).
    chunks: int = 0
    #: True when the pooled portion actually used the process pool
    #: (False under the tiny-grid / single-CPU auto-serial fallback).
    pool_used: bool = False

    def canonical_json(self) -> str:
        """Canonical serialization of the batch's results (sorted keys),
        independent of worker count or cache hits — the byte-identity
        invariant checked by the determinism tests."""
        import json

        return json.dumps(
            self.result_dicts, sort_keys=True, separators=(",", ":")
        )


class ParallelExecutor:
    """Runs scenario batches across a process pool, chunk-wise.

    Parameters
    ----------
    jobs:
        Worker processes; ``None`` means ``os.cpu_count()``.  ``1``
        falls back to in-process serial execution.
    store:
        Optional default :class:`ResultStore` for :meth:`run`.
    resume:
        Default resume behaviour for :meth:`run`.
    chunk_size:
        Points per pooled chunk; ``None`` lets the planner size chunks
        (a few per worker, capped — see
        :func:`~repro.runner.planner.auto_chunk_size`).
    pool:
        Pool policy: ``"auto"`` (default; serial fallback for tiny
        grids and single-CPU machines), ``"always"``, or ``"never"``.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        store: Optional[ResultStore] = None,
        resume: bool = False,
        chunk_size: Optional[int] = None,
        pool: str = "auto",
    ):
        self.jobs = default_jobs() if jobs is None else int(jobs)
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.store = store
        self.resume = resume
        self.chunk_size = chunk_size
        self.pool = pool

    def run(
        self,
        scenarios: Iterable[Scenario],
        store: Optional[ResultStore] = None,
        resume: Optional[bool] = None,
    ) -> RunReport:
        """Execute a batch; results come back in submission order."""
        from ..backends import get_backend

        batch: Sequence[Scenario] = list(scenarios)
        store = store if store is not None else self.store
        resume = self.resume if resume is None else resume
        report = RunReport(jobs=self.jobs)
        result_dicts: List[Optional[dict]] = [None] * len(batch)

        # Serve warm points from the store first (records that are
        # missing or unreadable — torn file, foreign schema — simply
        # count as cold and are recomputed).
        pending: List[int] = []
        for i, scenario in enumerate(batch):
            cached = (
                store.load_dict(scenario)
                if resume and store is not None
                else None
            )
            if cached is not None:
                result_dicts[i] = cached
                report.cached += 1
            else:
                pending.append(i)

        plan = plan_execution(
            batch, pending, self.jobs,
            chunk_size=self.chunk_size, pool=self.pool,
        )
        report.chunks = len(plan.inline_chunks) + len(plan.pool_chunks)
        report.pool_used = plan.use_pool

        # Results are recorded in the store chunk-by-chunk as each one
        # lands, so an interrupted run keeps its completed prefix for
        # --resume.
        def consume(indices, computed) -> None:
            for i, result_dict in zip(indices, computed):
                result_dicts[i] = result_dict
                if store is not None:
                    store.put_dict(batch[i], result_dict)

        # Inline chunks (analytic: the vectorized kernel) run
        # in-process, whole sub-batch at once.  The results still flow
        # through result_to_dict, so the stored and reported form is
        # identical to the pooled path's.
        for chunk in plan.inline_chunks:
            backend = get_backend(chunk.backend)
            chunk_scenarios = [batch[i] for i in chunk.indices]
            for scenario in chunk_scenarios:
                if not backend.supports(scenario):
                    raise ValueError(
                        f"backend {scenario.backend!r} does not support "
                        f"{scenario!r}"
                    )
            consume(
                chunk.indices,
                (
                    result_to_dict(scenario, result)
                    for scenario, result in zip(
                        chunk_scenarios,
                        backend.run_batch(chunk_scenarios),
                    )
                ),
            )

        if plan.use_pool:
            payloads = [
                [batch[i].to_dict() for i in chunk.indices]
                for chunk in plan.pool_chunks
            ]
            with multiprocessing.Pool(processes=plan.workers) as mp_pool:
                for chunk, chunk_results in zip(
                    plan.pool_chunks,
                    mp_pool.imap(_execute_chunk, payloads, chunksize=1),
                ):
                    consume(chunk.indices, chunk_results)
        else:
            for chunk in plan.pool_chunks:
                consume(
                    chunk.indices,
                    (
                        result_to_dict(batch[i], execute(batch[i]))
                        for i in chunk.indices
                    ),
                )
        report.executed = len(pending)

        report.result_dicts = result_dicts  # type: ignore[assignment]
        report.results = [
            result_from_dict(scenario, result_dict)
            for scenario, result_dict in zip(batch, result_dicts)
        ]
        return report


def run_scenarios(
    scenarios: Iterable[Scenario],
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    resume: bool = False,
    chunk_size: Optional[int] = None,
    pool: str = "auto",
) -> RunReport:
    """One-shot convenience wrapper around :class:`ParallelExecutor`."""
    return ParallelExecutor(jobs=jobs, chunk_size=chunk_size, pool=pool).run(
        scenarios, store=store, resume=resume
    )


def run_specs(
    specs: Iterable[Any],
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    resume: bool = False,
    backend: str = "sim",
) -> List[Any]:
    """Run bare spec dataclasses (BenchSpec / PatternConfig mixes are
    fine) under ``backend`` and return their native results in
    submission order."""
    scenarios = [scenario_for(spec, backend=backend) for spec in specs]
    return run_scenarios(
        scenarios, jobs=jobs, store=store, resume=resume
    ).results
