"""Sharded campaign execution: independent writers, one verified merge.

A campaign grid is pure index arithmetic, so nothing ties its execution
to one process: :func:`~repro.runner.planner.shard_plan` splits the
missing points into contiguous slabs, each shard runs the ordinary
:func:`~repro.runner.campaign.run_campaign` scoped to its slabs
(``ranges=``) against **its own store directory** whose grid hash equals
the target's, and a merge/adopt step stitches the shard segments into
the target store afterwards.  Three properties make that safe:

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

Two shapes:

* **single node** — ``campaign run --shards N`` (or
  :func:`run_sharded`) drives N local shard subprocesses and merges at
  the end: inline analytic campaigns get their first multi-core kernel
  scaling, since each subprocess evaluates its slab's kernel on its own
  CPU;
* **multi machine** — ``campaign shard run --root DIR SPEC --shard
  I/N`` anywhere, rsync the shard directories back, ``campaign shard
  merge TARGET DIR...`` once.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

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
from .scenario import ScenarioGrid

__all__ = [
    "format_ranges",
    "merge_shards",
    "parse_ranges",
    "parse_shard",
    "run_shard",
    "run_sharded",
    "shard_token",
]


def shard_token(index: int, count: int) -> str:
    """The writer token (and directory name) of shard ``index`` of
    ``count`` — 1-based, matching the ``--shard I/N`` CLI form."""
    if not (1 <= index <= count):
        raise ValueError(f"shard index {index} outside 1..{count}")
    return f"s{index:03d}of{count:03d}"


def parse_shard(text: str) -> Tuple[int, int]:
    """``"I/N"`` -> ``(index, count)``, 1-based, validated."""
    try:
        index_s, _, count_s = text.partition("/")
        index, count = int(index_s), int(count_s)
    except ValueError:
        raise ValueError(
            f"bad shard spec {text!r} (expected I/N, e.g. 2/4)"
        ) from None
    if count < 1 or not (1 <= index <= count):
        raise ValueError(
            f"bad shard spec {text!r}: index must be in 1..count"
        )
    return index, count


def format_ranges(ranges: Sequence[Tuple[int, int]]) -> str:
    """[start, stop) ranges -> the ``--ranges`` form ``"s-e,s-e"``."""
    return ",".join(f"{int(s)}-{int(e)}" for s, e in ranges)


def parse_ranges(text: str) -> List[Tuple[int, int]]:
    """``"s-e,s-e"`` -> [start, stop) ranges (merged, validated)."""
    ranges: List[Tuple[int, int]] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        start_s, sep, stop_s = part.partition("-")
        try:
            if not sep:
                raise ValueError
            start, stop = int(start_s), int(stop_s)
        except ValueError:
            raise ValueError(
                f"bad range {part!r} (expected START-STOP, half-open)"
            ) from None
        if stop <= start or start < 0:
            raise ValueError(f"bad range {part!r}: need 0 <= start < stop")
        ranges.append((start, stop))
    if not ranges:
        raise ValueError(f"no ranges in {text!r}")
    return _merge_ranges(ranges)


def run_shard(
    root: str | Path,
    grid: ScenarioGrid,
    index: int,
    count: int,
    ranges: Optional[Sequence[Tuple[int, int]]] = None,
    jobs: int = 1,
    chunk_points: Optional[int] = None,
    limit: Optional[int] = None,
    pool: str = "auto",
    submit_ahead: Optional[int] = None,
    async_write: Optional[bool] = None,
    progress=None,
) -> dict:
    """Execute one shard of ``grid`` into its own store at ``root``.

    The shard store is a full campaign root for the *whole* grid (same
    grid hash as the target — the property the merge verifies), with a
    writer token naming its segments and shard provenance in its
    header; only the shard's assigned ``ranges`` are executed.  When
    ``ranges`` is omitted, shard ``index`` of :func:`shard_plan` over
    the full grid is assumed — the multi-machine shape, where every
    machine splits an *empty* target identically.  A driver merging
    into a partially-complete target passes explicit ranges instead.

    Resumable like any campaign: re-running a shard executes only its
    still-missing points.
    """
    token = shard_token(index, count)
    if ranges is None:
        ranges = shard_plan(len(grid), count)[index - 1]
    ranges = _merge_ranges(ranges)
    store = CampaignStore.create(
        root,
        grid,
        writer_token=token,
        shard={"index": index, "count": count, "ranges": ranges},
    )
    summary = run_campaign(
        store,
        jobs=jobs,
        chunk_points=chunk_points,
        limit=limit,
        pool=pool,
        submit_ahead=submit_ahead,
        async_write=async_write,
        ranges=ranges,
        progress=progress,
    )
    assigned = sum(stop - start for start, stop in ranges)
    done = store.completed_ranges()
    remaining = []
    for start, stop in ranges:
        remaining.extend(_subtract_ranges(start, stop, done))
    return dict(
        summary,
        shard={
            "index": index,
            "count": count,
            "token": token,
            "root": str(store.root),
            "ranges": [[s, e] for s, e in ranges],
            "assigned": assigned,
            "remaining": sum(e - s for s, e in remaining),
        },
    )


def merge_shards(
    target: CampaignStore | str | Path,
    shard_roots: Sequence[str | Path],
    link: bool = False,
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

    Then every shard segment is moved (``link=True`` hard-links
    instead, for same-filesystem adoption that leaves the shard store
    intact), ``index.json`` is rebuilt **once** from the segment
    headers, and the post-merge coverage is asserted equal to the
    union of the target's prior coverage and every shard's.
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
        combined = store.completed_ranges()
        expected = list(combined)
        for shard_store, files in shards:
            coverage = _merge_ranges(
                [r for _, entry in files for r in entry["ranges"]]
            )
            clash = _intersect_ranges(combined, coverage)
            if clash:
                raise ValueError(
                    f"shard {shard_store.root} coverage overlaps "
                    f"already-claimed points at {clash[:3]}"
                    f"{'...' if len(clash) > 3 else ''} — every point "
                    f"must have exactly one writer"
                )
            combined = _merge_ranges(combined + coverage)
        expected = combined

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
            if link:
                os.link(src, dest)
            else:
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
        "linked": bool(link),
        "wall_s": time.perf_counter() - t0,
    }


def _repro_src_dir() -> Path:
    """The directory that must be on a child's PYTHONPATH."""
    return Path(__file__).resolve().parents[2]


def _shard_command(
    python: str,
    spec_path: Path,
    shard_root: Path,
    index: int,
    count: int,
    ranges: Sequence[Tuple[int, int]],
    jobs: int,
    chunk_points: Optional[int],
    metrics: bool,
) -> List[str]:
    cmd = [
        python, "-m", "repro", "campaign", "shard", "run",
        str(spec_path),
        "--root", str(shard_root),
        "--shard", f"{index}/{count}",
        "--ranges", format_ranges(ranges),
        "--jobs", str(jobs),
    ]
    if chunk_points is not None:
        cmd += ["--chunk", str(chunk_points)]
    if metrics:
        cmd.append("--metrics")
    return cmd


def run_sharded(
    store: CampaignStore,
    n_shards: int = 0,
    jobs: int = 1,
    chunk_points: Optional[int] = None,
    keep_shards: bool = False,
    link: bool = False,
    shard_metrics: bool = False,
    python: Optional[str] = None,
    progress=None,
) -> dict:
    """Drive ``n_shards`` local shard subprocesses over ``store``'s
    missing points and merge their segments back — the single-node
    multi-core shape.

    Each shard is a fresh ``python -m repro campaign shard run``
    process writing into ``<root>/shards/<token>/`` (collision-free by
    writer token), so inline analytic campaigns — one thread per
    process by construction — scale across cores.  The shard ranges
    are computed from the target's *actual* missing ranges, so a
    partially-complete target resumes correctly.  ``n_shards=0`` uses
    one shard per available CPU
    (:func:`~repro.runner.planner.available_cpus`); ``jobs`` is passed
    through to each shard (simulation-backed campaigns may want a pool
    *inside* each shard, analytic shards should keep ``jobs=1``).

    ``shard_metrics=True`` has every shard write its own metrics JSONL,
    relocated to ``<root>/metrics-<token>.jsonl`` after the merge —
    per-shard provenance for ``campaign profile``.  Shard stores are
    deleted after a successful merge unless ``keep_shards``; on any
    shard failure nothing is merged and the shard stores stay on disk
    for diagnosis (re-running resumes them).
    """
    if n_shards < 0:
        raise ValueError(f"n_shards must be >= 0, got {n_shards}")
    n_shards = n_shards or available_cpus()
    python = python or sys.executable
    grid = store.grid
    missing = store.missing_ranges()
    plans = shard_plan(store.n_points, n_shards, completed=store.completed_ranges())
    work = [
        (i + 1, plan) for i, plan in enumerate(plans) if plan
    ]
    t0 = time.perf_counter()
    run_span = span(
        "campaign.run", backend=grid.backend, kind=grid.kind
    )
    with run_span:
        if not work:
            return {
                "executed": 0,
                "chunks": 0,
                "wall_s": time.perf_counter() - t0,
                "points_per_s": None,
                "completed": store.n_completed,
                "n_points": store.n_points,
                "shards": [],
                "merge": None,
            }

        spec_path = store.root / "shard-grid.json"
        spec_path.write_text(
            json.dumps(grid.to_dict(), sort_keys=True, indent=1) + "\n"
        )
        env = dict(os.environ)
        src_dir = str(_repro_src_dir())
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_dir + os.pathsep + existing if existing else src_dir
        )

        shards_dir = store.root / "shards"
        shards_dir.mkdir(exist_ok=True)
        procs = []
        shard_infos = []
        with span("campaign.shard.run", shards=len(work)):
            for index, ranges in work:
                token = shard_token(index, n_shards)
                shard_root = shards_dir / token
                cmd = _shard_command(
                    python, spec_path, shard_root, index, n_shards,
                    ranges, jobs, chunk_points, shard_metrics,
                )
                procs.append(
                    (
                        index,
                        token,
                        shard_root,
                        subprocess.Popen(
                            cmd,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE,
                            text=True,
                            env=env,
                        ),
                    )
                )
            failures = []
            for index, token, shard_root, proc in procs:
                out, err = proc.communicate()
                points = sum(stop - start for start, stop in plans[index - 1])
                if proc.returncode != 0:
                    failures.append(
                        f"shard {index}/{n_shards} exited "
                        f"{proc.returncode}: {err.strip()[-500:]}"
                    )
                    continue
                shard_infos.append(
                    {
                        "index": index,
                        "token": token,
                        "root": str(shard_root),
                        "points": points,
                    }
                )
                if progress is not None:
                    progress(
                        f"[shard {index}/{n_shards}] {points} point(s) done"
                    )
        if failures:
            raise RuntimeError(
                "sharded run failed (shard stores kept for resume):\n"
                + "\n".join(failures)
            )

        merge_summary = merge_shards(
            store, [info["root"] for info in shard_infos], link=link
        )
        for info in shard_infos:
            metrics_src = Path(info["root"]) / "metrics.jsonl"
            if metrics_src.is_file():
                dest = store.root / f"metrics-{info['token']}.jsonl"
                shutil.move(str(metrics_src), str(dest))
                info["metrics"] = str(dest)
        if not keep_shards and not link:
            for info in shard_infos:
                shutil.rmtree(info["root"], ignore_errors=True)
            try:
                shards_dir.rmdir()
            except OSError:
                pass
            spec_path.unlink(missing_ok=True)

    executed = sum(stop - start for start, stop in missing)
    wall = time.perf_counter() - t0
    if telemetry.active_registry() is not None:
        telemetry.count("campaign.points", executed)
        telemetry.gauge("shard.count", len(work))
    return {
        "executed": executed,
        "chunks": len(work),
        "wall_s": wall,
        "points_per_s": (executed / wall) if wall > 0 else None,
        "completed": store.n_completed,
        "n_points": store.n_points,
        "shards": shard_infos,
        "merge": merge_summary,
    }
