"""Sharded campaign execution on one machine: independent writers, one
verified merge.

A campaign grid is pure index arithmetic, so nothing ties its execution
to one process: :func:`~repro.runner.planner.shard_plan` splits the
missing points into contiguous slabs, :func:`run_sharded` starts one
worker process per slab, and each worker runs :func:`run_shard` — the
ordinary :func:`~repro.runner.campaign.run_campaign` scoped to its slabs
(``ranges=``) — against **its own store directory** whose grid hash
equals the target's.  :func:`merge_shards` then stitches the shard
segments into the target store.  Inline analytic campaigns get their
multi-core kernel scaling this way: each shard evaluates its slab's
kernel on its own CPU.  Three properties make the merge safe:

* **collision-free segment names** — every shard store carries a writer
  token (``seg-<token>-NNNNNN``), so adopted segments from different
  shards can never claim the same file name;
* **self-describing segments** — each segment header records the
  campaign grid hash, schema, encoding, and coverage ranges, so the
  merge verifies provenance per file *before* moving anything and the
  target index is rebuilt from headers alone afterwards;
* **range arithmetic** — shard coverage is checked disjoint against the
  target and against every other shard
  (:func:`~repro.runner.campaign._intersect_ranges`), and post-merge
  coverage is asserted with
  :func:`~repro.runner.campaign._subtract_ranges`.
"""

from __future__ import annotations

import multiprocessing
import shutil
import time
from pathlib import Path
from typing import List, Sequence, Tuple

from .. import telemetry
from ..telemetry import span
from .campaign import (
    CampaignStore,
    _intersect_ranges,
    _merge_ranges,
    _subtract_ranges,
    run_campaign,
)
from .planner import available_cpus, shard_plan
from .profile import DEFAULT_METRICS_NAME, run_metered
from .scenario import ScenarioGrid

__all__ = [
    "merge_shards",
    "run_shard",
    "run_sharded",
    "shard_token",
]


def shard_token(index: int, count: int) -> str:
    """The writer token (and directory name) of shard ``index`` of
    ``count`` — 1-based."""
    if not (1 <= index <= count):
        raise ValueError(f"shard index {index} outside 1..{count}")
    return f"s{index:03d}of{count:03d}"


def _shard_store(
    root: str | Path,
    grid: ScenarioGrid,
    index: int,
    count: int,
    ranges: Sequence[Tuple[int, int]],
) -> CampaignStore:
    """Create (or resume) shard ``index``'s store: the whole grid's
    campaign root, with a writer token and shard provenance."""
    return CampaignStore.create(
        root,
        grid,
        writer_token=shard_token(index, count),
        shard={"index": index, "count": count, "ranges": ranges},
    )


def run_shard(
    root: str | Path,
    grid: ScenarioGrid,
    index: int,
    count: int,
    ranges: Sequence[Tuple[int, int]],
    jobs: int = 1,
) -> dict:
    """Execute one shard of ``grid`` into its own store at ``root``.

    The shard store is a full campaign root for the *whole* grid (same
    grid hash as the target — the property the merge verifies), with a
    writer token naming its segments and shard provenance in its
    header; only the shard's assigned ``ranges`` are executed.

    Resumable like any campaign: re-running a shard executes only its
    still-missing points.
    """
    ranges = _merge_ranges(ranges)
    store = _shard_store(root, grid, index, count, ranges)
    summary = run_campaign(store, jobs=jobs, ranges=ranges)
    done = store.completed_ranges()
    remaining = []
    for start, stop in ranges:
        remaining.extend(_subtract_ranges(start, stop, done))
    return dict(
        summary,
        shard={
            "index": index,
            "count": count,
            "token": shard_token(index, count),
            "root": str(store.root),
            "ranges": [[s, e] for s, e in ranges],
            "assigned": sum(stop - start for start, stop in ranges),
            "remaining": sum(e - s for s, e in remaining),
        },
    )


def merge_shards(
    target: CampaignStore | str | Path,
    shard_roots: Sequence[str | Path],
) -> dict:
    """Adopt shard stores' segments into ``target`` (verified).

    Verification happens *before* anything moves:

    * every shard root must be a campaign store whose grid hash equals
      the target's (``ValueError`` on mismatch — a shard of a different
      grid can never be adopted);
    * every segment header must re-validate against the target
      (schema + campaign hash) — a doctored or foreign segment rejects
      the merge rather than being silently ignored;
    * shard coverage must be disjoint from the target's completed
      ranges and from every other shard's coverage (overlap means two
      writers claimed the same points — latest-wins would silently
      shadow one of them, so the merge refuses);
    * no incoming file name may already exist in the target (writer
      tokens make cross-shard collisions impossible; this guards
      against adopting the same shard twice or colliding with legacy
      un-tokened segments).

    Then every shard segment is moved, ``index.json`` is rebuilt
    **once** from the segment headers, and the post-merge coverage is
    asserted equal to the union of the target's prior coverage and
    every shard's.
    """
    store = (
        target
        if isinstance(target, CampaignStore)
        else CampaignStore.open(target)
    )
    t0 = time.perf_counter()
    shards: List[Tuple[CampaignStore, List[Tuple[Path, dict]]]] = []
    for shard_root in shard_roots:
        shard_store = CampaignStore.open(shard_root)
        if shard_store.header["grid_hash"] != store.header["grid_hash"]:
            raise ValueError(
                f"shard {shard_store.root} holds grid "
                f"{shard_store.header['grid_hash'][:12]}, target holds "
                f"{store.header['grid_hash'][:12]} — refusing to merge "
                f"different campaigns"
            )
        files = [
            (shard_store.root / entry["file"], entry)
            for entry in shard_store._index()["segments"]
        ]
        shards.append((shard_store, files))

    with span("campaign.shard.merge", shards=len(shards)):
        # Coverage must stay single-writer-per-point: start from the
        # target's merged coverage and fold each shard in, refusing on
        # any intersection (target overlap and shard-shard overlap are
        # the same check).
        expected = store.completed_ranges()
        for shard_store, files in shards:
            coverage = _merge_ranges(
                [r for _, entry in files for r in entry["ranges"]]
            )
            clash = _intersect_ranges(expected, coverage)
            if clash:
                raise ValueError(
                    f"shard {shard_store.root} coverage overlaps "
                    f"already-claimed points at {clash[:3]}"
                    f"{'...' if len(clash) > 3 else ''} — every point "
                    f"must have exactly one writer"
                )
            expected = _merge_ranges(expected + coverage)

        # Per-file provenance: the header must re-validate against the
        # *target* (schema + campaign hash), and the name must be free.
        moves: List[Tuple[Path, Path]] = []
        for shard_store, files in shards:
            for path, entry in files:
                if store._segment_header(path) is None:
                    raise ValueError(
                        f"segment {path} fails target validation "
                        f"(schema or campaign hash mismatch) — "
                        f"refusing to adopt it"
                    )
                dest = store.root / entry["file"]
                if dest.exists():
                    raise ValueError(
                        f"segment name {entry['file']!r} already exists "
                        f"in {store.root} — was this shard already "
                        f"merged?"
                    )
                moves.append((path, dest))

        (store.root / "segments").mkdir(parents=True, exist_ok=True)
        for src, dest in moves:
            shutil.move(str(src), str(dest))

    # One index rebuild covers every adopted segment (headers are
    # authoritative); its write carries the usual store.index span.
    store.rebuild_index()
    after = store.completed_ranges()
    leftover = []
    for start, stop in expected:
        leftover.extend(_subtract_ranges(start, stop, after))
    if leftover:
        raise RuntimeError(
            f"post-merge coverage hole at {leftover[:3]} — the rebuilt "
            f"index does not cover every adopted range"
        )
    if telemetry.active_registry() is not None:
        telemetry.count("shard.segments_adopted", len(moves))
        telemetry.count("shard.stores_merged", len(shards))
    return {
        "shards": len(shards),
        "segments_adopted": len(moves),
        "points": sum(stop - start for start, stop in after),
        "completed": store.n_completed,
        "wall_s": time.perf_counter() - t0,
    }


def _shard_worker(
    root: str,
    grid_spec: dict,
    index: int,
    count: int,
    ranges: List[Tuple[int, int]],
    jobs: int,
    metrics: bool,
) -> None:
    """One shard process.  A forked worker inherits the driver's
    telemetry registry and trace sink, so it clears both first; with
    ``metrics`` it records into a fresh registry of its own, written to
    ``<root>/metrics.jsonl``."""
    telemetry.set_registry(None)
    telemetry.set_thread_registry(None)
    telemetry.set_trace_sink(None)
    grid = ScenarioGrid.from_dict(grid_spec)

    def run() -> dict:
        return run_shard(root, grid, index, count, ranges, jobs=jobs)

    if metrics:
        run_metered(
            _shard_store(root, grid, index, count, ranges),
            run,
            jobs=jobs,
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
    processes and merge their segments back.

    Each shard is a ``multiprocessing.Process`` (the default start
    method) calling :func:`run_shard` into ``<root>/shards/<token>/``
    (collision-free by writer token), so inline analytic campaigns —
    one thread per process by construction — scale across cores.  The
    shard ranges are computed from the target's *actual* missing
    ranges, so a partially-complete target resumes correctly.
    ``n_shards=0`` uses one shard per available CPU
    (:func:`~repro.runner.planner.available_cpus`); ``jobs`` is the
    pool size *inside* each shard (simulation-backed campaigns may want
    one, analytic shards should keep ``jobs=1``).  Shard processes are
    not daemonic, so a shard may start that pool.

    ``shard_metrics=True`` has every shard write its own metrics JSONL,
    relocated to ``<root>/metrics-<token>.jsonl`` after the merge —
    per-shard provenance for ``campaign profile``.  Shard stores are
    deleted after a successful merge; if any shard fails, a
    ``RuntimeError`` names it, nothing is merged and the shard stores
    stay on disk (re-running resumes them).
    """
    if n_shards < 0:
        raise ValueError(f"n_shards must be >= 0, got {n_shards}")
    n_shards = n_shards or available_cpus()
    grid = store.grid
    plans = shard_plan(store.n_points, n_shards, completed=store.completed_ranges())
    shard_infos: List[dict] = []
    merge_summary = None
    t0 = time.perf_counter()
    with span("campaign.run", backend=grid.backend, kind=grid.kind):
        if any(plans):
            shards_dir = store.root / "shards"
            shards_dir.mkdir(exist_ok=True)
            grid_spec = grid.to_dict()
            procs = []
            with span("campaign.shard.run", shards=sum(map(bool, plans))):
                for index, ranges in enumerate(plans, start=1):
                    if not ranges:
                        continue
                    token = shard_token(index, n_shards)
                    info = {
                        "index": index,
                        "token": token,
                        "root": str(shards_dir / token),
                        "points": sum(stop - start for start, stop in ranges),
                    }
                    proc = multiprocessing.Process(
                        target=_shard_worker,
                        args=(info["root"], grid_spec, index, n_shards,
                              ranges, jobs, shard_metrics),
                        name=f"shard-{token}",
                    )
                    proc.start()
                    procs.append((info, proc))
                failures = []
                for info, proc in procs:
                    proc.join()
                    label = f"shard {info['index']}/{n_shards}"
                    if proc.exitcode != 0:
                        failures.append(f"{label} exited {proc.exitcode}")
                    elif progress is not None:
                        progress(f"[{label}] {info['points']} point(s) done")
            if failures:
                raise RuntimeError(
                    "sharded run failed (shard stores kept for resume):\n"
                    + "\n".join(failures)
                )

            shard_infos = [info for info, _ in procs]
            merge_summary = merge_shards(
                store, [info["root"] for info in shard_infos]
            )
            for info in shard_infos:
                metrics_src = Path(info["root"]) / DEFAULT_METRICS_NAME
                if metrics_src.is_file():
                    dest = store.root / f"metrics-{info['token']}.jsonl"
                    shutil.move(str(metrics_src), str(dest))
                    info["metrics"] = str(dest)
                shutil.rmtree(info["root"], ignore_errors=True)
            try:
                shards_dir.rmdir()
            except OSError:
                pass

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
