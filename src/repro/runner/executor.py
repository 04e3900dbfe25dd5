"""Chunked scenario fan-out with deterministic, serial-identical results.

Every scenario builds its own :class:`~repro.mpi.world.MPIWorld` and
shares no state with its neighbours, so a grid is embarrassingly
parallel.  :func:`run_scenarios` splits a batch by backend:

* scenarios whose backend is *inline* (the analytic model —
  microseconds per point) never go to a pool; each inline backend's
  whole sub-batch is handed to
  :meth:`~repro.backends.base.Backend.run_batch` in one call, which the
  analytic backend evaluates through the vectorized model kernel;
* simulation-backed scenarios are cut into chunks
  (:func:`~repro.runner.planner.auto_chunk_size`) and streamed through
  :func:`iter_chunk_results` — the same submit-ahead pipeline campaigns
  use — one pool task per chunk, not per point, so fork/pickle/IPC
  overhead amortizes.  The default ``pool="auto"`` policy
  (:func:`~repro.runner.planner.pool_workers`) runs tiny grids and
  single-CPU machines in-process, where a pool cannot pay for itself.

Simulated scenarios with the same
:func:`~repro.bench.harness.simulation_key` (exact duplicates, and
Fig. 7's aggregation bounds that negotiate the same message count) are
simulated once per batch; every submitted point still gets its own copy
of the result.

Results are reassembled **in submission order**, and the serial and the
pooled path move results through the same serialized form
(:func:`~repro.runner.scenario.result_to_dict`), so the output of
``jobs=N`` is byte-identical to ``jobs=1``.

:func:`run_grids` is the entry point of the figure, sweep and ``apps``
layers: without a store every point of every grid goes to
:func:`run_specs` as one batch; with a store each grid is a campaign
root under the store directory (:mod:`repro.runner.campaign`), so a
rerun executes only what is missing.
"""

from __future__ import annotations

import copy
import itertools
import multiprocessing
import queue
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from .. import telemetry
from ..telemetry import span
from .planner import (
    auto_chunk_size,
    auto_submit_window,
    available_cpus,
    pool_workers,
)
from .scenario import (
    DEFAULT_BACKEND,
    Scenario,
    execute,
    result_from_dict,
    result_to_dict,
    scenario_for,
)

__all__ = [
    "AsyncSegmentWriter",
    "RunReport",
    "default_jobs",
    "iter_chunk_results",
    "run_grids",
    "run_scenarios",
    "run_specs",
]


def default_jobs() -> int:
    """The default worker count: one per CPU this process may use.

    Respects cgroup / ``taskset`` affinity masks via
    :func:`~repro.runner.planner.available_cpus`, so containers and CI
    runners with restricted CPU sets do not over-fork.
    """
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
    pool — the submit-ahead pipeline behind both :func:`run_scenarios`
    and campaigns.

    One pool spans the whole stream, so it never drains at a chunk
    boundary: while the consumer handles chunk *k* (a campaign writes
    its segment), chunks *k+1 … k+window-1* are already executing.
    Ordered delivery means the consumer's store writes are
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
    """Outcome of one :func:`run_scenarios` batch."""

    #: Native result objects, in submission order.
    results: List[Any] = field(default_factory=list)
    #: Serialized result dicts, parallel to ``results`` (the byte-stable
    #: form used for determinism checks and store records).
    result_dicts: List[dict] = field(default_factory=list)

    def canonical_json(self) -> str:
        """Canonical serialization of the batch's results (sorted keys),
        independent of worker count — the byte-identity invariant
        checked by the determinism tests."""
        import json

        return json.dumps(
            self.result_dicts, sort_keys=True, separators=(",", ":")
        )


def run_scenarios(
    scenarios: Iterable[Scenario],
    jobs: int = 1,
    chunk_size: Optional[int] = None,
    pool: str = "auto",
) -> RunReport:
    """Execute a batch; results come back in submission order.

    Simulated scenarios run once per distinct
    :func:`~repro.bench.harness.simulation_key`; a point whose key an
    earlier point of the batch already has gets a copy of that point's
    result dict (counted as ``executor.shared_points``).  Pool sizing
    and chunking see only the distinct points.

    ``jobs`` caps the worker processes for the simulated portion
    (``1`` is in-process serial); ``chunk_size`` pins the points per
    pooled chunk (default :func:`~repro.runner.planner.auto_chunk_size`);
    ``pool`` is the pool policy of
    :func:`~repro.runner.planner.pool_workers` (``"auto"``,
    ``"always"`` or ``"never"``).
    """
    from ..backends import get_backend
    from ..bench.harness import simulation_key

    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    batch: Sequence[Scenario] = list(scenarios)
    result_dicts: List[Optional[dict]] = [None] * len(batch)
    inline: Dict[str, List[int]] = {}
    pooled: List[int] = []
    for i, scenario in enumerate(batch):
        if get_backend(scenario.backend).inline:
            inline.setdefault(scenario.backend, []).append(i)
        else:
            pooled.append(i)
    # One simulation per distinct key, run by the key's first point.
    owners: Dict[str, int] = {}
    owner_of = [owners.setdefault(simulation_key(batch[i]), i) for i in pooled]
    distinct = list(owners.values())
    workers, use_pool = pool_workers(len(distinct), jobs, pool)

    # Inline backends (analytic: the vectorized kernel) run in-process,
    # one run_batch call per backend.  The results still flow through
    # result_to_dict, so the reported form is identical to the pooled
    # path's.
    for name, indices in inline.items():
        backend = get_backend(name)
        sub_batch = [batch[i] for i in indices]
        for scenario in sub_batch:
            if not backend.supports(scenario):
                raise ValueError(
                    f"backend {name!r} does not support {scenario!r}"
                )
        for i, scenario, result in zip(
            indices, sub_batch, backend.run_batch(sub_batch)
        ):
            result_dicts[i] = result_to_dict(scenario, result)

    size = (
        auto_chunk_size(len(distinct), workers)
        if chunk_size is None
        else max(1, int(chunk_size))
    )
    chunks = [distinct[k:k + size] for k in range(0, len(distinct), size)]
    payloads = ([batch[i].to_dict() for i in chunk] for chunk in chunks)
    for chunk, computed in zip(
        chunks,
        iter_chunk_results(
            payloads, workers, auto_submit_window(workers), use_pool
        ),
    ):
        for i, result_dict in zip(chunk, computed):
            result_dicts[i] = result_dict
    for i, owner in zip(pooled, owner_of):
        if owner != i:
            result_dicts[i] = copy.deepcopy(result_dicts[owner])
    if len(distinct) < len(pooled):
        telemetry.count("executor.shared_points", len(pooled) - len(distinct))

    return RunReport(
        results=[
            result_from_dict(scenario, result_dict)
            for scenario, result_dict in zip(batch, result_dicts)
        ],
        result_dicts=result_dicts,  # type: ignore[arg-type]
    )


def run_specs(
    specs: Iterable[Any],
    jobs: int = 1,
    backend: str = DEFAULT_BACKEND,
) -> List[Any]:
    """Run bare spec dataclasses (BenchSpec / PatternConfig mixes are
    fine) under ``backend`` and return their native results in
    submission order."""
    scenarios = [scenario_for(spec, backend=backend) for spec in specs]
    return run_scenarios(scenarios, jobs=jobs).results


def run_grids(
    grids: Iterable[Any],
    jobs: int = 1,
    store: Optional[Any] = None,
) -> List[List[Any]]:
    """Run grids (:class:`~repro.runner.scenario.ScenarioGrid`); returns
    one list of native results per grid, in grid expansion order.

    Without a ``store`` every point of every grid goes to
    :func:`run_specs` as one batch (so ``jobs`` fans out across all the
    grids at once); the grids must then share one backend.  With a
    ``store`` directory, each grid is the campaign root
    ``<store>/<grid.content_hash()>/``: created on first use, resumed
    afterwards, so a warm rerun executes nothing and writes nothing.
    """
    grids = list(grids)
    if store is None:
        # Looked up on the package at call time, so a wrapper installed
        # on ``repro.runner.run_specs`` sees every figure batch.
        from . import run_specs as run_batch

        backends = {grid.backend for grid in grids}
        if len(backends) > 1:
            raise ValueError(
                f"store-less grids must share one backend, got "
                f"{sorted(backends)}"
            )
        results = iter(
            run_batch(
                [s.spec for grid in grids for s in grid.expand()],
                jobs=jobs,
                backend=backends.pop() if backends else DEFAULT_BACKEND,
            )
        )
        return [list(itertools.islice(results, len(grid))) for grid in grids]

    from pathlib import Path

    from .campaign import CampaignStore, run_campaign

    per_grid: List[List[Any]] = []
    for grid in grids:
        campaign = CampaignStore.create(
            Path(store) / grid.content_hash(), grid
        )
        run_campaign(campaign, jobs=jobs)
        rows = dict(campaign.iter_rows())
        per_grid.append(
            [
                result_from_dict(scenario, rows[index])
                for index, scenario in enumerate(grid.expand())
            ]
        )
    return per_grid
