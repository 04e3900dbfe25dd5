"""Sharded campaign execution on one machine: many writers, one store.

A campaign grid is pure index arithmetic, so nothing ties its execution
to one process: :func:`~repro.runner.planner.shard_plan` splits the
store's missing ranges into contiguous slabs and :func:`run_sharded`
forks one worker process per slab.  Every worker runs the ordinary
:func:`~repro.runner.campaign.run_campaign`, scoped to its slabs
(``ranges=``), **straight into the target store**.  Inline analytic
campaigns get their multi-core kernel scaling this way: each shard
evaluates its slab's kernel on its own CPU.  The store already makes
concurrent writers in one directory safe:

* **collision-free segment names** — each shard writes under its own
  writer token (``seg-<token>-NNNNNN``), so two shards can never claim
  the same file name;
* **atomic segment writes** — a killed shard leaves whole segments or
  none, and every finished segment counts as coverage;
* **self-describing segments** — the shards never write
  ``index.json`` (:meth:`~repro.runner.campaign.CampaignStore.unindexed`);
  the driver rebuilds it once from the segment headers after the joins,
  validating each header as the read path does.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import List, Optional, Sequence, Tuple

from .. import telemetry
from ..telemetry import span
from .campaign import CampaignStore, run_campaign
from .planner import available_cpus, shard_plan
from .profile import run_metered

__all__ = ["run_sharded", "shard_token"]


def shard_token(index: int, count: int) -> str:
    """The writer token of shard ``index`` of ``count`` — 1-based."""
    if not (1 <= index <= count):
        raise ValueError(f"shard index {index} outside 1..{count}")
    return f"s{index:03d}of{count:03d}"


def _shard_worker(
    store: CampaignStore,
    index: int,
    count: int,
    ranges: Sequence[Tuple[int, int]],
    jobs: int,
    metrics: Optional[str],
) -> None:
    """One shard process, writing into the target through ``store`` (the
    driver opened it with this shard's writer token before the fork).
    A forked worker inherits the driver's telemetry registry and trace
    sink, so it clears both first; with ``metrics`` it records into a
    fresh registry of its own, written to that path."""
    telemetry.set_registry(None)
    telemetry.set_thread_registry(None)
    telemetry.set_trace_sink(None)

    def run() -> dict:
        # The driver rebuilds index.json once after the joins; a write
        # here would only race the other shards' and be overwritten.
        with store.unindexed():
            return run_campaign(store, jobs=jobs, ranges=ranges)

    if metrics is not None:
        run_metered(
            store, run, metrics, jobs=jobs,
            shard={"index": index, "count": count},
        )
    else:
        run()


def run_sharded(
    store: CampaignStore,
    n_shards: int = 0,
    jobs: int = 1,
    shard_metrics: bool = False,
    progress=None,
) -> dict:
    """Run ``store``'s missing points as ``n_shards`` local shard
    processes writing into ``store``'s root.

    Each shard is a ``multiprocessing.Process`` (the default start
    method) running :func:`~repro.runner.campaign.run_campaign` on its
    slab of ``shard_plan(store.missing_ranges(), n_shards)``, so inline
    analytic campaigns — one thread per process by construction — scale
    across cores, and a partially complete target resumes correctly.
    Before the first fork the driver opens the root once per shard,
    with that shard's writer token, so every shard starts from the index
    just loaded and never rebuilds it.  ``n_shards=0`` uses one shard per available CPU
    (:func:`~repro.runner.planner.available_cpus`); ``jobs`` is the
    pool size *inside* each shard (simulation-backed campaigns may want
    one, analytic shards should keep ``jobs=1``).  Shard processes are
    not daemonic, so a shard may start that pool.

    ``shard_metrics=True`` has every shard write its own metrics JSONL
    to ``<root>/metrics-<token>.jsonl`` — per-shard provenance for
    ``campaign profile``.  After the joins the driver rebuilds
    ``index.json`` once from the segment headers (``summary["merge"]``
    times it); then, if any shard failed, a ``RuntimeError`` names it.
    A failed shard's finished segments stay as coverage, so re-running
    executes only the points still missing.
    """
    if n_shards < 0:
        raise ValueError(f"n_shards must be >= 0, got {n_shards}")
    n_shards = n_shards or available_cpus()
    grid = store.grid
    plans = shard_plan(store.missing_ranges(), n_shards)
    shard_infos: List[dict] = []
    failures: List[str] = []
    merge_summary = None
    t0 = time.perf_counter()
    with span("campaign.run", backend=grid.backend, kind=grid.kind):
        if any(plans):
            procs = []
            with span("campaign.shard.run", shards=sum(map(bool, plans))):
                for index, ranges in enumerate(plans, start=1):
                    if not ranges:
                        continue
                    token = shard_token(index, n_shards)
                    info = {
                        "index": index,
                        "token": token,
                        "points": sum(stop - start for start, stop in ranges),
                    }
                    metrics = None
                    if shard_metrics:
                        metrics = str(store.root / f"metrics-{token}.jsonl")
                        info["metrics"] = metrics
                    writer = CampaignStore.open(store.root, writer_token=token)
                    proc = multiprocessing.Process(
                        target=_shard_worker,
                        args=(writer, index, n_shards, ranges, jobs, metrics),
                        name=f"shard-{token}",
                    )
                    procs.append((info, proc))
                # Every writer is opened before the first fork: a shard
                # already writing would make a later open find the
                # index stale and rebuild it in the driver.
                for _, proc in procs:
                    proc.start()
                for info, proc in procs:
                    proc.join()
                    label = f"shard {info['index']}/{n_shards}"
                    if proc.exitcode != 0:
                        failures.append(f"{label} exited {proc.exitcode}")
                    elif progress is not None:
                        progress(f"[{label}] {info['points']} point(s) done")
            # The shards wrote no index: one rebuild from the segment
            # headers (its write carries the usual store.index span)
            # lists every segment they finished.
            rebuild_t0 = time.perf_counter()
            store.rebuild_index()
            merge_summary = {"wall_s": time.perf_counter() - rebuild_t0}
            shard_infos = [info for info, _ in procs]
    if failures:
        raise RuntimeError(
            "sharded run failed (finished segments kept for resume):\n"
            + "\n".join(failures)
        )

    executed = sum(info["points"] for info in shard_infos)
    wall = time.perf_counter() - t0
    if telemetry.active_registry() is not None:
        telemetry.count("campaign.points", executed)
        telemetry.gauge("shard.count", len(shard_infos))
    return {
        "executed": executed,
        "chunks": len(shard_infos),
        "wall_s": wall,
        "points_per_s": (executed / wall) if executed and wall > 0 else None,
        "completed": store.n_completed,
        "n_points": store.n_points,
        "shards": shard_infos,
        "merge": merge_summary,
    }
