"""Execution sizing: batches, not points, are the unit of work.

Pure functions (no execution) that size the executor's and the
campaign pipeline's work, so the policy stays unit-testable without
spawning a process:

* :func:`pool_workers` decides the worker count and whether a process
  pool pays for itself at all: fewer pooled points than two per worker
  shrink the pool, and ``jobs=1``, a grid too small to feed two
  workers or a single usable CPU runs in-process;
* :func:`auto_chunk_size` cuts pooled points into contiguous chunks, a
  few per worker, so IPC amortizes over many points while stragglers
  still rebalance;
* :func:`auto_submit_window` / :func:`auto_writer_depth` bound what the
  campaign pipeline keeps in flight;
* :func:`shard_plan` splits a campaign's missing ranges into shard
  slabs (the range arithmetic that finds them is the campaign
  store's).

Analytic points need none of this: the executor runs them in-process,
one scalar prediction each.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "available_cpus",
    "auto_chunk_size",
    "auto_submit_window",
    "auto_writer_depth",
    "pool_workers",
    "shard_plan",
]

#: Upper bound on points per pooled chunk: keeps streaming increments
#: (store writes, progress) reasonably fine-grained even on huge grids.
MAX_CHUNK_POINTS = 32

#: Target number of chunks handed to each worker: > 1 so stragglers
#: rebalance, small so IPC stays amortized.
CHUNKS_PER_WORKER = 4


def auto_chunk_size(n_points: int, workers: int) -> int:
    """Points per pooled chunk when the caller does not pin one."""
    if n_points <= 0:
        return 1
    target = -(-n_points // (max(1, workers) * CHUNKS_PER_WORKER))
    return max(1, min(MAX_CHUNK_POINTS, target))


def auto_submit_window(workers: int) -> int:
    """Chunks kept in flight by the campaign submit-ahead pipeline.

    Two chunks per worker: one being executed plus one queued behind
    it, so the pool never drains at a chunk boundary while the consumer
    writes segments — and the in-flight result backlog (which the
    ordered consumer must buffer) stays bounded.
    """
    return max(2, 2 * max(1, workers))


#: Chunks the async segment writer may hold queued (plus the one it is
#: writing).  One compute thread feeds one writer thread, so a short
#: queue already decouples the two; each queued analytic chunk pins its
#: column arrays (~8–24 bytes/point), so deep queues only cost memory.
WRITER_QUEUE_DEPTH = 4


def auto_writer_depth(chunk_points: int) -> int:
    """Queue depth for the campaign's async segment writer.

    The default keeps at most ``WRITER_QUEUE_DEPTH`` chunks of column
    arrays pinned; huge chunks (>= 2**18 points) drop to a depth of 2 —
    at that size the queue is pure memory with no extra overlap to buy.
    """
    if chunk_points >= (1 << 18):
        return 2
    return WRITER_QUEUE_DEPTH


def available_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the machine; cgroup limits and
    ``taskset`` masks (CI runners, containers) restrict the process to
    fewer.  ``sched_getaffinity`` sees the real budget where the
    platform exposes it — sizing pools or shard counts past it just
    multiplies context switches.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def pool_workers(
    n_points: int,
    jobs: int,
    cpu_count: Optional[int] = None,
) -> Tuple[int, bool]:
    """``(workers, use_pool)`` for a purely pooled workload — the one
    owner of the worker-count / pool-fallback policy.

    :func:`~repro.runner.executor.run_scenarios` applies it to a
    batch's pooled portion; the campaign submit-ahead pipeline pins one
    decision for every chunk of a run.  ``jobs=1`` always runs
    in-process.  ``cpu_count`` is injectable for tests and defaults to
    :func:`available_cpus`.
    """
    cpus = available_cpus() if cpu_count is None else cpu_count
    # More workers than cores cannot help a CPU-bound simulation; more
    # workers than points just forks idle processes.
    workers = max(1, min(jobs, cpus, n_points))
    if n_points < 2 * workers:
        # Fewer than two points per worker: shrink the pool so chunk
        # IPC still amortizes, rather than abandoning parallelism —
        # a grid too small to feed even two workers runs serial.
        workers = max(1, n_points // 2)
    return workers, workers > 1


def shard_plan(
    missing: Sequence[Tuple[int, int]], n_shards: int
) -> List[List[Tuple[int, int]]]:
    """Split a campaign's missing points into ``n_shards`` contiguous
    slabs.

    ``missing`` is the sorted, disjoint list of half-open ``[start,
    stop)`` grid-index ranges still to run
    (``CampaignStore.missing_ranges()``).  Its points are split as
    evenly as possible — shard sizes differ by at most one point — and
    each shard gets ranges *contiguous in missing-index space*, so a
    shard's work is a handful of dense slabs even when the completed
    set is fragmented.  Trailing shards may come out empty when there
    are fewer missing points than shards.

    The result is pure data: every shard entry is a list of half-open
    ``[start, stop)`` grid-index ranges, directly consumable by
    ``run_campaign(..., ranges=shard)`` — what each process of
    :func:`~repro.runner.shard.run_sharded` runs.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    total = sum(stop - start for start, stop in missing)
    base, extra = divmod(total, n_shards)
    shards: List[List[Tuple[int, int]]] = []
    it = iter(missing)
    current: Optional[Tuple[int, int]] = next(it, None)
    for i in range(n_shards):
        want = base + (1 if i < extra else 0)
        shard: List[Tuple[int, int]] = []
        while want > 0 and current is not None:
            start, stop = current
            take = min(want, stop - start)
            shard.append((start, start + take))
            want -= take
            current = (start + take, stop) if start + take < stop else next(it, None)
        shards.append(shard)
    return shards
