"""Streaming campaign store + batched campaign execution.

A *campaign* is one declarative :class:`~repro.runner.scenario.ScenarioGrid`
executed to completion, however many sessions that takes.  It is the
one result store of the repo: ``campaign run --root`` writes one, and
``figures``/``apps --store DIR`` keep one campaign root per grid under
``DIR`` (:func:`~repro.runner.executor.run_grids`).  The store exploits
that a grid point is fully identified by ``(grid content hash,
row-major index)`` — no file and no content hash per point:

* ``campaign.json`` — the header: schema version, the full declarative
  grid (so the campaign is self-describing and re-openable anywhere),
  its content hash, and provenance (producing backend + schema
  versions, so model output can never masquerade as measurements);
* ``segments/seg-NNNNNN.bin`` — one analytic chunk as binary columns:
  a tagged JSON header line, then one raw little-endian block per
  column (``numpy.ndarray.tobytes()`` of the kernel output — zero
  per-point formatting), mmap-read and size-validated;
* ``segments/seg-NNNNNN.jsonl`` — one simulation chunk: the same
  tagged header line, then one ``[index, result_dict]`` JSON row per
  point (the ``result`` encoding);
* ``index.json`` — a cache of the segment headers: covered index
  ranges per segment.  A store object loads it once and keeps it in
  memory; a writing run (:func:`run_campaign`) records its appends
  there and writes ``index.json`` once, when it ends — also when it
  ends in an exception, and not at all when it appended nothing.  A
  shard writes none: its driver rebuilds the index once after the
  joins.  If the file is missing, or stale because it does
  not list every segment file (a run killed before its write), it is
  rebuilt from the segment headers, so resume works from the segments
  alone.  A ``segments/*.jsonl``/``*.bin`` file that fails validation
  — another campaign's, a truncated one, or a row encoding other than
  ``result`` — is listed under ``ignored`` and never counts as
  coverage, so resume recomputes it.  Other files are not the store's.

:func:`run_campaign` executes the missing ranges chunk by chunk.
Analytic chunks decode grid indices straight into parameter columns
for the vectorized model kernel (no spec objects, no content hashes;
an axis the kernel cannot read is rejected before the first chunk)
and hand the output arrays to a bounded-queue **async segment writer**
(:class:`~repro.runner.executor.AsyncSegmentWriter`), so the write
overlaps the next chunk's compute.  Simulation chunks flow through a
bounded submit-ahead pipeline
(:func:`~repro.runner.executor.iter_chunk_results`): the next chunks
are already executing on a persistent worker pool while earlier
results stream to the store in submission order.  Each completed
chunk's segment is written before the next result is consumed, so an
interrupted campaign resumes from its segments.

Coverage is ``[start, stop)`` range arithmetic, kept here and only
here: :func:`_merge_ranges` (union), :func:`_subtract_ranges`
(difference) and :func:`_intersect_ranges` (intersection).  Every read
goes through one **latest-append-wins merge decided at the index-range
level** (:meth:`CampaignStore._survivor_plan`), computed from
``index.json`` alone: disjoint ``(start, stop, segment)`` pieces.
:meth:`~CampaignStore.iter_columns` yields each binary piece as array
slices straight off memmapped column blocks; :meth:`~CampaignStore.iter_rows`,
:meth:`~CampaignStore.query`, :meth:`~CampaignStore.export_jsonl` and
:meth:`~CampaignStore.compact` walk the same pieces, loading each
segment once and dropping it after its last piece.
"""

from __future__ import annotations

import json
import os
import re
import time
from contextlib import contextmanager
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .. import telemetry
from ..telemetry import span
from .io import (
    atomic_write_bytes,
    atomic_write_text,
    read_binary_segment,
    read_segment_header,
    write_jsonl,
    write_npz,
)
from .scenario import (
    GRID_SCHEMA,
    KIND_BENCH,
    KIND_PATTERN,
    ScenarioGrid,
    check_backend,
)

__all__ = [
    "CAMPAIGN_SCHEMA",
    "SEGMENT_SCHEMA",
    "CampaignStore",
    "parse_grid_spec",
    "run_campaign",
    "slice_report",
]

CAMPAIGN_SCHEMA = "repro.campaign/v2"
SEGMENT_SCHEMA = "repro.campaign.segment/v2"
INDEX_SCHEMA = "repro.campaign.index/v3"

#: Segment encodings: full ``result`` rows (a simulated point's result
#: dict) and the analytic binary-column forms, one per scenario kind.
ENC_RESULT = "result"
ENC_BENCH_BIN = "bench-bin"
ENC_PATTERN_BIN = "pattern-bin"

#: Encoding names :meth:`CampaignStore.append_columns` also accepts;
#: they write the binary encoding of the same kind.
ENC_BENCH_COLS = "bench-cols"
ENC_PATTERN_COLS = "pattern-cols"

#: Column layout of the binary encodings: ``(name, dtype)`` blocks in
#: on-disk order, dtypes explicitly little-endian.  The header also
#: carries this list (``"columns"``), so a binary segment stays
#: self-describing.
_BIN_COLUMNS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    ENC_BENCH_BIN: (("times", "<f8"),),
    ENC_PATTERN_BIN: (
        ("times", "<f8"),
        ("bytes_per_iteration", "<i8"),
        ("n_links", "<i8"),
    ),
}

#: ``append_columns`` encoding argument -> the binary encoding written.
_BIN_FOR_APPEND = {
    ENC_BENCH_COLS: ENC_BENCH_BIN,
    ENC_PATTERN_COLS: ENC_PATTERN_BIN,
    ENC_BENCH_BIN: ENC_BENCH_BIN,
    ENC_PATTERN_BIN: ENC_PATTERN_BIN,
}

#: Scenario kind -> its binary encoding (and therefore its column
#: layout, via :data:`_BIN_COLUMNS`).
_KIND_BIN = {
    KIND_BENCH: ENC_BENCH_BIN,
    KIND_PATTERN: ENC_PATTERN_BIN,
}

#: Segment file suffix per encoding.  A header whose encoding does not
#: match its file's suffix is not a segment.
_SUFFIX = {
    ENC_RESULT: ".jsonl",
    ENC_BENCH_BIN: ".bin",
    ENC_PATTERN_BIN: ".bin",
}

#: Name suffixes of the ``segments/`` files the index accounts for.
_SEGMENT_SUFFIXES = (".jsonl", ".bin")

#: Values :meth:`CampaignStore.create` accepts for ``compression``.
#: Both build the same store: analytic chunks are always binary
#: columns, simulation chunks always ``result`` rows.
COMPRESSIONS = ("none", "binary")

#: Points per analytic campaign chunk when the caller does not pin
#: one; simulation chunks are sized by the planner's
#: :func:`~repro.runner.planner.auto_chunk_size` instead (a few chunks
#: per worker, capped at 32).
DEFAULT_INLINE_CHUNK = 16384

#: Points per segment after compaction.
COMPACT_SEGMENT_POINTS = 8192

#: Writer tokens become path components of segment names, so the
#: charset is deliberately tight (no separators, no dots).
_WRITER_TOKEN_RE = re.compile(r"[A-Za-z0-9_]{1,32}")


# ---------------------------------------------------------------------------
# grid specs
# ---------------------------------------------------------------------------

def _expand_axis(name: str, values: Any) -> List[Any]:
    """Expand one axis spec: a plain list, or a shorthand dict —
    ``{"pow2": [lo, hi]}`` (powers of two 2**lo..2**hi inclusive),
    ``{"range": [start, stop[, step]]}`` (Python range semantics), or
    ``{"values": [...]}`` (explicit, same as a bare list)."""
    if isinstance(values, Mapping):
        if "pow2" in values:
            lo, hi = values["pow2"]
            return [1 << e for e in range(int(lo), int(hi) + 1)]
        if "range" in values:
            return list(range(*[int(v) for v in values["range"]]))
        if "values" in values:
            return list(values["values"])
        raise ValueError(
            f"axis {name!r}: unknown shorthand {sorted(values)!r} "
            f"(expected pow2 / range / values)"
        )
    return list(values)


def parse_grid_spec(payload: Mapping[str, Any]) -> ScenarioGrid:
    """Build a :class:`ScenarioGrid` from a JSON grid spec.

    The spec is the :meth:`ScenarioGrid.to_dict` form plus axis
    shorthands (see :func:`_expand_axis`)::

        {"kind": "bench", "backend": "analytic",
         "base": {"n_threads": 4, "theta": 4, "iterations": 3},
         "axes": {"approach": ["pt2pt_part", "pt2pt_single"],
                  "total_bytes": {"pow2": [10, 24]}}}
    """
    expanded = dict(payload)
    expanded["axes"] = {
        name: _expand_axis(name, values)
        for name, values in payload.get("axes", {}).items()
    }
    return ScenarioGrid.from_dict(expanded)


# ---------------------------------------------------------------------------
# interval bookkeeping
# ---------------------------------------------------------------------------

def _merge_ranges(ranges: Sequence[Sequence[int]]) -> List[Tuple[int, int]]:
    """Union of half-open [start, stop) ranges, merged and sorted."""
    merged: List[Tuple[int, int]] = []
    for start, stop in sorted((int(s), int(e)) for s, e in ranges):
        if stop <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], stop))
        else:
            merged.append((start, stop))
    return merged


def _subtract_ranges(
    ranges: Sequence[Sequence[int]], covered: Sequence[Sequence[int]]
) -> List[Tuple[int, int]]:
    """Parts of ``ranges`` (any [start, stop) list) not covered by the
    merged, sorted ``covered`` ranges — missing coverage, a shard's
    remaining work, and the survivor arithmetic of the range-level
    latest-wins merge."""
    out: List[Tuple[int, int]] = []
    first = 0
    for start, stop in _merge_ranges(ranges):
        while first < len(covered) and covered[first][1] <= start:
            first += 1
        cursor, k = start, first
        while k < len(covered) and covered[k][0] < stop:
            if covered[k][0] > cursor:
                out.append((cursor, covered[k][0]))
            cursor = max(cursor, covered[k][1])
            k += 1
        if cursor < stop:
            out.append((cursor, stop))
    return out


def _intersect_ranges(
    a: Sequence[Tuple[int, int]], b: Sequence[Tuple[int, int]]
) -> List[Tuple[int, int]]:
    """Intersection of two merged, sorted [start, stop) range lists —
    the shard-scoping primitive: a shard's assigned slabs intersected
    with the store's missing ranges yields exactly the work this shard
    still owes."""
    out: List[Tuple[int, int]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        start = max(a[i][0], b[j][0])
        stop = min(a[i][1], b[j][1])
        if start < stop:
            out.append((start, stop))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return out


def _ranges_to_index_array(ranges: Sequence[Sequence[int]]):
    """Sorted [start, stop) ranges -> one ascending int64 index array."""
    import numpy as np

    if not ranges:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(
        [np.arange(int(s), int(e), dtype=np.int64) for s, e in ranges]
    )


def _index_array_to_ranges(indices) -> List[Tuple[int, int]]:
    """Ascending int64 index array -> contiguous [start, stop) runs
    (one ``diff`` over the array, no Python loop per point)."""
    import numpy as np

    if not len(indices):
        return []
    breaks = np.flatnonzero(np.diff(indices) != 1)
    starts = np.concatenate(([0], breaks + 1))
    stops = np.concatenate((breaks, [len(indices) - 1]))
    return [
        (int(indices[a]), int(indices[b]) + 1)
        for a, b in zip(starts, stops)
    ]


# ---------------------------------------------------------------------------
# segment bodies
# ---------------------------------------------------------------------------

def _encode_rows(rows: Sequence[list]) -> bytes:
    """``result`` segment body: one compact JSON row per line."""
    return "".join(
        json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"
        for row in rows
    ).encode("utf-8")


def _encode_columns(encoding: str, columns: Sequence, count: int) -> bytes:
    """Binary segment body: one raw little-endian block per column of
    the encoding's layout, ``count`` values each."""
    import numpy as np

    layout = _BIN_COLUMNS[encoding]
    if len(columns) != len(layout):
        raise ValueError(
            f"{encoding!r} takes {len(layout)} column(s), "
            f"got {len(columns)}"
        )
    blocks = []
    for (name, dtype), column in zip(layout, columns):
        block = np.ascontiguousarray(np.asarray(column, dtype=dtype))
        if block.shape != (count,):
            raise ValueError(
                f"column {name!r}: shape {block.shape} for a "
                f"{count}-point segment"
            )
        blocks.append(block.tobytes())
    return b"".join(blocks)


def _take(payload, keep):
    """Positions ``keep`` (a slice or an index array) of a loaded
    segment's payload: a ``{name: column}`` dict or a row list."""
    if isinstance(payload, dict):
        return {name: column[keep] for name, column in payload.items()}
    if isinstance(keep, slice):
        return payload[keep]
    return [payload[k] for k in keep.tolist()]


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------

class CampaignStore:
    """A campaign root directory: header, segments, index.

    Use :meth:`create` for a new campaign and :meth:`open` for an
    existing one; the constructor itself does no I/O.
    """

    def __init__(
        self,
        root: str | Path,
        writer_token: Optional[str] = None,
    ):
        self.root = Path(root)
        #: Collision-free segment namespace for this writer: when set,
        #: new segments are named ``seg-<token>-NNNNNN`` so concurrent
        #: writers (shards, parallel processes) sharing one directory
        #: can never race each other to the same name.  ``None`` keeps
        #: the single-writer ``seg-NNNNNN`` names.
        if writer_token is not None and not _WRITER_TOKEN_RE.fullmatch(
            writer_token
        ):
            raise ValueError(
                f"writer token {writer_token!r} must match "
                f"[A-Za-z0-9_]{{1,32}}"
            )
        self.writer_token = writer_token
        self._header: Optional[dict] = None
        self._grid: Optional[ScenarioGrid] = None
        #: The index as this object last loaded or wrote it.  Appends
        #: update it in memory; :meth:`deferred_index` holds their
        #: ``index.json`` write back until the writing run ends.
        self._index_cache: Optional[dict] = None
        self._index_deferred = 0
        self._index_dirty = False

    # -- lifecycle -----------------------------------------------------------
    @classmethod
    def create(
        cls,
        root: str | Path,
        grid: ScenarioGrid,
        compression: str = "none",
        writer_token: Optional[str] = None,
    ) -> "CampaignStore":
        """Initialize a campaign root for ``grid``.

        Re-creating over an existing root is allowed only when the grid
        hash matches (the resume case); anything else raises rather
        than silently mixing two campaigns in one directory.
        ``compression`` must be one of :data:`COMPRESSIONS`; every
        accepted value builds the same store.  ``writer_token``
        namespaces this writer's segment names (see
        :meth:`_segment_name`).
        """
        check_backend(grid.backend)  # unknown backend -> KeyError now
        grid.validate()  # bad axis/base values fail before any I/O
        if compression not in COMPRESSIONS:
            raise ValueError(
                f"unknown compression {compression!r}; "
                f"choose from {COMPRESSIONS}"
            )
        store = cls(root, writer_token=writer_token)
        header_path = store.root / "campaign.json"
        grid_hash = grid.content_hash()
        if header_path.is_file():
            existing = json.loads(header_path.read_text())
            if existing.get("grid_hash") != grid_hash:
                raise ValueError(
                    f"campaign root {store.root} already holds a "
                    f"different grid ({existing.get('grid_hash')!r})"
                )
            return cls.open(root, writer_token=writer_token)
        header = {
            "schema": CAMPAIGN_SCHEMA,
            "kind": grid.kind,
            "backend": grid.backend,
            "grid": grid.to_dict(),
            "grid_hash": grid_hash,
            "n_points": len(grid),
            "producer": {
                "backend": grid.backend,
                "store_schema": CAMPAIGN_SCHEMA,
                "grid_schema": GRID_SCHEMA,
            },
        }
        atomic_write_text(
            header_path, json.dumps(header, sort_keys=True, indent=1) + "\n"
        )
        store._header = header
        store._write_index([])
        return store

    @classmethod
    def open(
        cls,
        root: str | Path,
        writer_token: Optional[str] = None,
    ) -> "CampaignStore":
        """Open an existing campaign root (rebuilding a lost or stale
        index)."""
        store = cls(root, writer_token=writer_token)
        store.header  # validates
        store._index()
        return store

    @property
    def header(self) -> dict:
        if self._header is None:
            path = self.root / "campaign.json"
            if not path.is_file():
                raise FileNotFoundError(f"no campaign at {self.root}")
            header = json.loads(path.read_text())
            if header.get("schema") != CAMPAIGN_SCHEMA:
                raise ValueError(
                    f"unrecognized campaign schema "
                    f"{header.get('schema')!r} in {path}"
                )
            self._header = header
        return self._header

    @property
    def grid(self) -> ScenarioGrid:
        if self._grid is None:
            self._grid = ScenarioGrid.from_dict(self.header["grid"])
        return self._grid

    @property
    def n_points(self) -> int:
        return int(self.header["n_points"])

    # -- index ---------------------------------------------------------------
    def _files_on_disk(self) -> set:
        """Root-relative names of every file the index accounts for
        (plain ``listdir`` names: this runs on every index read)."""
        try:
            names = os.listdir(self.root / "segments")
        except FileNotFoundError:
            return set()
        return {
            f"segments/{name}" for name in names
            if name.endswith(_SEGMENT_SUFFIXES) and not name.startswith(".")
        }

    def _read_index(self) -> Optional[dict]:
        """The on-disk index, or None when it is missing or stale."""
        with span("store.index"):
            path = self.root / "index.json"
            if not path.is_file():
                return None
            try:
                index = json.loads(path.read_text())
            except ValueError:
                return None
            if index.get("schema") != INDEX_SCHEMA:
                return None
            # Stale whenever a segment landed without an index update (the
            # crash window between segment write and index write).  Files
            # recorded as ignored are accounted for so their presence does
            # not force a rescan on every operation.
            listed = {entry["file"] for entry in index["segments"]}
            listed |= set(index["ignored"])
            if listed != self._files_on_disk():
                return None
            return index

    def _write_index(
        self, segments: List[dict], ignored: Sequence[str] = ()
    ) -> dict:
        index = {
            "schema": INDEX_SCHEMA,
            "campaign": self.header["grid_hash"],
            "segments": list(segments),
            "ignored": list(ignored),
        }
        with span("store.index"):
            atomic_write_text(
                self.root / "index.json",
                json.dumps(index, sort_keys=True, indent=1) + "\n",
            )
        self._index_cache = index
        self._index_dirty = False
        return index

    def _index(self) -> dict:
        """The index: loaded (or rebuilt, when missing or stale) once
        per store object, then kept in memory."""
        if self._index_cache is None:
            self._index_cache = self._read_index() or self.rebuild_index()
        return self._index_cache

    @contextmanager
    def deferred_index(self) -> Iterator["CampaignStore"]:
        """Defer ``index.json`` writes to the end of a writing run.

        Inside the block an append writes its segment and records it in
        the in-memory index only; on exit — also on an exception — the
        index is written once if anything was appended, and not at all
        otherwise.  A process killed inside the block leaves segments
        the on-disk index does not list, so the next load finds it
        stale and rebuilds it from the segment headers.
        """
        self._index_deferred += 1
        try:
            yield self
        finally:
            self._index_deferred -= 1
            if not self._index_deferred and self._index_dirty:
                index = self._index_cache
                self._write_index(index["segments"], index["ignored"])

    @contextmanager
    def unindexed(self) -> Iterator["CampaignStore"]:
        """Append segments without writing ``index.json``: for a writer
        whose index another process rebuilds from the segment headers
        after it ends (a :func:`~repro.runner.shard.run_sharded`
        shard).  Appends inside the block update the in-memory index as
        under :meth:`deferred_index`; on exit nothing is written.  Use
        it as the outermost block of this store object.
        """
        self._index_deferred += 1
        try:
            yield self
        finally:
            self._index_deferred -= 1
            self._index_dirty = False

    def rebuild_index(self) -> dict:
        """Reconstruct ``index.json`` from the segment headers — the
        resume-from-segments path after a crash or a deleted index.

        Files that are not a valid segment of this campaign are
        recorded under ``ignored`` (never as coverage), so one rebuild
        converges even with foreign files in the tree.
        """
        segments: List[dict] = []
        ignored: List[str] = []
        for rel in sorted(self._files_on_disk()):
            header = self._segment_header(self.root / rel)
            if header is None:
                ignored.append(rel)
                continue
            entry = {
                "file": rel,
                "ranges": header["ranges"],
                "count": header["count"],
                "encoding": header["encoding"],
                "backend": header["backend"],
            }
            if "writer" in header:
                entry["writer"] = header["writer"]
            segments.append(entry)
        return self._write_index(segments, ignored)

    def _segment_header(self, path: Path) -> Optional[dict]:
        """The header of a valid segment of this campaign, else None.

        Valid means: a ``segments/`` file whose suffix matches a
        current encoding, whose header parses (binary segments are also
        size-validated against their declared column layout, see
        :func:`~repro.runner.io.read_segment_header`), and whose schema
        and campaign hash match.
        """
        if (
            path.parent.name != "segments"
            or path.suffix not in _SEGMENT_SUFFIXES
        ):
            return None
        try:
            header = read_segment_header(path)
        except (OSError, ValueError, KeyError, TypeError):
            return None
        if (
            header.get("schema") != SEGMENT_SCHEMA
            or header.get("campaign") != self.header["grid_hash"]
            or _SUFFIX.get(header.get("encoding")) != path.suffix
        ):
            return None
        return header

    # -- coverage ------------------------------------------------------------
    def completed_ranges(self) -> List[Tuple[int, int]]:
        """Merged [start, stop) index ranges covered by the segments."""
        ranges: List[Sequence[int]] = []
        for entry in self._index()["segments"]:
            ranges.extend(entry["ranges"])
        return _merge_ranges(ranges)

    def missing_ranges(self) -> List[Tuple[int, int]]:
        """Complement of :meth:`completed_ranges` over the grid."""
        return _subtract_ranges([(0, self.n_points)], self.completed_ranges())

    @property
    def n_completed(self) -> int:
        return sum(stop - start for start, stop in self.completed_ranges())

    # -- writing -------------------------------------------------------------
    def _segment_name(self, n_existing: int, suffix: str) -> str:
        """Next free segment name for this writer.

        Without a writer token: ``segments/seg-NNNNNN`` — the seq
        counter starts at the index's segment count and skips numbers
        any segment file already occupies (compaction may renumber).
        That scheme is inherently single-writer: two processes counting
        the same directory race to the same name.  With a token the
        name is ``segments/seg-<token>-NNNNNN``, so writers with
        distinct tokens can never collide no matter how they interleave
        (the seq scan then only defends against this writer's own
        leftovers).
        """
        stem = (
            f"segments/seg-{self.writer_token}-"
            if self.writer_token is not None
            else "segments/seg-"
        )
        seq = n_existing
        while any(
            (self.root / f"{stem}{seq:06d}{s}").exists()
            for s in _SEGMENT_SUFFIXES
        ):
            seq += 1
        return f"{stem}{seq:06d}{suffix}"

    def _write_segment(
        self,
        encoding: str,
        ranges: Sequence[Tuple[int, int]],
        count: int,
        n_existing: int,
        body: bytes,
    ) -> dict:
        """Write one segment file (atomic): the tagged JSON header line
        (binary encodings add their ``"columns"`` layout), then
        ``body``.  Returns the index entry; does *not* touch
        ``index.json`` (callers batch their index updates)."""
        header = {
            "schema": SEGMENT_SCHEMA,
            "campaign": self.header["grid_hash"],
            "kind": self.header["kind"],
            "backend": self.header["backend"],
            "encoding": encoding,
            "ranges": [[int(s), int(e)] for s, e in ranges],
            "count": int(count),
        }
        if encoding in _BIN_COLUMNS:
            header["columns"] = [[n, d] for n, d in _BIN_COLUMNS[encoding]]
        if self.writer_token is not None:
            header["writer"] = self.writer_token
        name = self._segment_name(n_existing, _SUFFIX[encoding])
        with span("store.encode"):
            data = (
                json.dumps(header, sort_keys=True) + "\n"
            ).encode("utf-8") + body
        with span("store.write"):
            atomic_write_bytes(self.root / name, data)
        if telemetry.active_registry() is not None:
            telemetry.count("store.segments_written")
            telemetry.count("store.bytes_written", len(data))
        entry = {
            "file": name,
            "ranges": header["ranges"],
            "count": header["count"],
            "encoding": encoding,
            "backend": header["backend"],
        }
        if self.writer_token is not None:
            entry["writer"] = self.writer_token
        return entry

    def _append(
        self,
        encoding: str,
        ranges: Sequence[Tuple[int, int]],
        count: int,
        body: bytes,
    ) -> Path:
        """Write one segment and record it in the in-memory index;
        ``index.json`` follows at once, or at the end of the enclosing
        :meth:`deferred_index` block."""
        index = self._index()
        entry = self._write_segment(
            encoding, ranges, count, len(index["segments"]), body
        )
        index["segments"].append(entry)
        if self._index_deferred:
            self._index_dirty = True
        else:
            self._write_index(index["segments"], index["ignored"])
        return self.root / entry["file"]

    def append_chunk(
        self,
        rows: List[list],
        ranges: Sequence[Tuple[int, int]],
    ) -> Path:
        """Append one completed chunk of ``result`` rows as a new
        segment (atomic).

        ``rows`` are ``[index, result_dict]`` lists; ``ranges`` the
        [start, stop) coverage they represent.  The rows' distinct
        indices must be exactly the points of ``ranges`` — coverage no
        row backs would mark points complete that no read can return,
        so a mismatch raises ``ValueError``.  Rows are written
        index-sorted (stable: a same-index duplicate keeps submission
        order, and the later one wins on read).
        """
        import numpy as np

        rows = sorted(rows, key=lambda row: int(row[0]))
        covered = _index_array_to_ranges(
            np.unique(np.array([int(row[0]) for row in rows], dtype=np.int64))
        )
        claimed = _merge_ranges(ranges)
        if covered != claimed:
            raise ValueError(
                f"rows cover {covered[:3]}{'...' if len(covered) > 3 else ''}"
                f" but the chunk claims {claimed[:3]}"
                f"{'...' if len(claimed) > 3 else ''}"
            )
        with span("store.encode"):
            body = _encode_rows(rows)
        return self._append(ENC_RESULT, ranges, len(rows), body)

    def append_columns(
        self,
        start: int,
        stop: int,
        columns: Sequence[Sequence],
        encoding: str,
    ) -> Path:
        """Append one *contiguous* chunk as a binary segment (hot path).

        ``columns`` are whole-chunk value arrays (times, and for
        patterns bytes/links) — numpy arrays straight off the kernel,
        or plain lists; point ``i`` of every column belongs to grid
        index ``start + i``.  Each column lands as one raw
        little-endian block (``ndarray.tobytes()``), with no per-point
        formatting.  ``encoding`` names the store kind's binary
        encoding or its ``*-cols`` alias; any other raises
        ``ValueError``.
        """
        bin_encoding = _KIND_BIN[self.header["kind"]]
        if _BIN_FOR_APPEND.get(encoding) != bin_encoding:
            raise ValueError(
                f"{encoding!r} is not the column encoding of a "
                f"{self.header['kind']} store ({bin_encoding!r})"
            )
        count = int(stop) - int(start)
        with span("store.encode"):
            body = _encode_columns(bin_encoding, columns, count)
        return self._append(bin_encoding, [(start, stop)], count, body)

    # -- reading -------------------------------------------------------------
    def _piece_results(self, encoding: str, indices, payload) -> Iterator[dict]:
        """The result dicts of one :meth:`_pieces` piece: a ``result``
        piece carries its dicts; a binary piece expands to the
        deterministic analytic result (every iteration sample
        identical), its iteration counts decoded once for the piece —
        from the grid's own scenario when no axis varies them, so the
        spec defaults live only in the spec."""
        if encoding == ENC_RESULT:
            return (row[1] for row in payload)
        grid = self.grid
        if "iterations" in grid.axes:
            values = grid.axes["iterations"]
            codes = grid.axis_codes("iterations", indices).tolist()
            iterations = [int(values[c]) for c in codes]
        else:
            iterations = [int(grid.scenario_at(0).spec.iterations)] * len(indices)
        times = payload["times"].tolist()
        if encoding == ENC_BENCH_BIN:
            return (
                {"times": [t] * k, "retries": 0, "verified": True}
                for t, k in zip(times, iterations)
            )
        return (
            {"times": [t] * k, "bytes_per_iteration": b, "n_links": n}
            for t, k, b, n in zip(
                times,
                iterations,
                payload["bytes_per_iteration"].tolist(),
                payload["n_links"].tolist(),
            )
        )

    def _segment_rows(self, path: Path) -> Tuple[Any, List[list]]:
        """A ``result`` segment as ``(index_array, rows)``: every row
        parsed, index-sorted (stable) and de-duplicated, a later file
        position winning a same-index tie."""
        import numpy as np

        with path.open() as handle:
            handle.readline()
            rows = [json.loads(line) for line in handle if line.strip()]
        rows.sort(key=lambda row: int(row[0]))
        rows = [
            row
            for k, row in enumerate(rows)
            if k + 1 == len(rows) or int(rows[k + 1][0]) != int(row[0])
        ]
        indices = np.fromiter(
            (int(row[0]) for row in rows), dtype=np.int64, count=len(rows)
        )
        return indices, rows

    def _segment_columns(self, path: Path, encoding: str):
        """A binary segment as ``(index_array, {name: column})``:
        read-only memmaps, zero parse, zero copy."""
        header, raw = read_binary_segment(path)
        names = [name for name, _ in _BIN_COLUMNS[encoding]]
        return _ranges_to_index_array(header["ranges"]), dict(zip(names, raw))

    @staticmethod
    def _survivor_plan(entries: Sequence[dict]) -> List[Tuple[int, int, int]]:
        """The latest-wins merge, decided at the *index-range* level.

        Walks the segments newest-first, claiming each one's covered
        ranges minus whatever newer segments already claimed: the
        result is a list of disjoint ``(start, stop, seq)`` pieces,
        sorted by start, where ``seq`` is the segment that owns those
        points — computed entirely from ``index.json`` metadata, before
        a single segment file is opened.  A million-point overlap costs
        one range subtraction.
        """
        covered: List[Tuple[int, int]] = []
        pieces: List[Tuple[int, int, int]] = []
        for seq in range(len(entries) - 1, -1, -1):
            ranges = entries[seq]["ranges"]
            pieces.extend(
                (start, stop, seq)
                for start, stop in _subtract_ranges(ranges, covered)
            )
            covered = _merge_ranges(covered + ranges)
        pieces.sort()
        return pieces

    def _pieces(
        self, where: Optional[Mapping[str, Any]] = None
    ) -> Iterator[Tuple[str, Any, Any]]:
        """The survivor plan, read: ``(encoding, index_array, payload)``
        per surviving piece, ascending and disjoint.  The payload is
        ``{name: column}`` for binary segments and the row list for
        ``result`` segments.

        Each segment is loaded once and dropped after the plan's last
        piece from it, so peak memory is the segments the current piece
        overlaps.  ``where`` applies the :meth:`query` filter semantics
        as one vectorized mask per piece, so filtered-out points are
        never copied out of their segment.
        """
        import numpy as np

        checks = self._filter_checks(where)
        if checks is None:
            return
        entries = self._index()["segments"]
        with span("store.read.plan"):
            pieces = self._survivor_plan(entries)
            # Keep only what the walk needs, not the parsed index.
            segments = [(e["file"], e["encoding"]) for e in entries]
            del entries
            last_use = {seq: i for i, (_, _, seq) in enumerate(pieces)}
        cache: Dict[int, Tuple[Any, Any]] = {}
        for i, (start, stop, seq) in enumerate(pieces):
            name, encoding = segments[seq]
            if seq not in cache:
                path = self.root / name
                with span("store.read.segment"):
                    cache[seq] = (
                        self._segment_rows(path)
                        if encoding == ENC_RESULT
                        else self._segment_columns(path, encoding)
                    )
            seg_idx, payload = cache[seq]
            if last_use[seq] == i:
                del cache[seq]
            lo, hi = (int(p) for p in np.searchsorted(seg_idx, (start, stop)))
            if hi == lo:
                continue
            keep = slice(lo, hi)
            if checks:
                mask = self._checks_mask(seg_idx[keep], checks)
                if not mask.any():
                    continue
                if not mask.all():
                    keep = np.flatnonzero(mask) + lo
            yield encoding, seg_idx[keep], _take(payload, keep)

    def iter_rows(self) -> Iterator[Tuple[int, dict]]:
        """Yield ``(grid_index, result_dict)`` sorted by index, one per
        point (on duplicate coverage the latest append wins).  Streams:
        peak memory is bounded by the segments being read, not the
        campaign (see :meth:`_pieces`)."""
        for encoding, indices, payload in self._pieces():
            yield from zip(
                indices.tolist(),
                self._piece_results(encoding, indices, payload),
            )

    # -- columnar reads ------------------------------------------------------
    def column_names(self) -> Tuple[str, ...]:
        """The store's columnar schema for its kind: ``("times",)`` for
        bench grids, ``("times", "bytes_per_iteration", "n_links")``
        for pattern grids — the same layout binary segments persist."""
        layout = _BIN_COLUMNS[_KIND_BIN[self.header["kind"]]]
        return tuple(name for name, _ in layout)

    def _filter_checks(
        self, filters: Optional[Mapping[str, Any]]
    ) -> Optional[List[Tuple[int, int, frozenset]]]:
        """Axis filters as ``(stride, size, code set)`` checks against
        the row-major index.  Base-field filters (and unknown names)
        resolve here: ``None`` means no point can ever match."""
        grid = self.grid
        strides = grid._strides()
        checks: List[Tuple[int, int, frozenset]] = []
        for name, value in (filters or {}).items():
            if name in grid.axes:
                codes = frozenset(
                    i
                    for i, v in enumerate(grid.axes[name])
                    if v == value
                )
                if not codes:
                    return None
                checks.append(
                    (strides[name], len(grid.axes[name]), codes)
                )
            elif name not in grid.base or grid.base[name] != value:
                return None
        return checks

    @staticmethod
    def _checks_mask(indices, checks):
        """Vectorized form of the digit-wise filter: one ``//`` + ``%``
        per check over the whole index array."""
        import numpy as np

        mask = np.ones(len(indices), dtype=bool)
        for stride, size, codes in checks:
            digits = (indices // stride) % size
            if len(codes) == 1:
                mask &= digits == next(iter(codes))
            else:
                mask &= np.isin(digits, np.fromiter(codes, np.int64))
        return mask

    def iter_columns(
        self, where: Optional[Mapping[str, Any]] = None
    ) -> Iterator[Tuple[Any, Dict[str, Any]]]:
        """Yield ``(index_array, {name: column array})`` chunks,
        ascending, one value per covered point, latest-append-wins —
        the columnar twin of :meth:`iter_rows`, with ndarrays
        end-to-end and no per-point Python objects anywhere.

        One chunk per surviving piece of the plan (:meth:`_pieces`):
        array slices off its segment's memmapped columns, never re-cut
        or concatenated, so a chunk holds at most one segment's points.
        ``where`` applies the :meth:`query` filter semantics
        vectorized (a filtered piece copies only its matches).

        Requires every segment to be binary (an analytic campaign): a
        store holding ``result`` rows raises ``ValueError`` — those
        points have no fixed column schema; use :meth:`iter_rows`.
        """
        foreign = {
            entry["encoding"] for entry in self._index()["segments"]
        } - set(_BIN_COLUMNS)
        if foreign:
            raise ValueError(
                f"store holds non-columnar segment encoding(s) "
                f"{sorted(foreign)}; only analytic campaigns "
                f"support columnar reads — use iter_rows()"
            )
        for _, indices, columns in self._pieces(where):
            telemetry.count("store.read.chunks")
            telemetry.count("store.read.points", len(indices))
            yield indices, columns

    def read_columns(
        self, where: Optional[Mapping[str, Any]] = None
    ) -> Tuple[Any, Dict[str, Any]]:
        """Every covered point's columns in one pair of arrays:
        ``(index_array, {name: column})`` — :meth:`iter_columns`
        materialized (the bulk-read call a query service or exporter
        builds on).  ``where`` filters vectorized, before any copy."""
        import numpy as np

        parts = list(self.iter_columns(where=where))
        if not parts:
            layout = _BIN_COLUMNS[_KIND_BIN[self.header["kind"]]]
            return (
                np.empty(0, dtype=np.int64),
                {
                    name: np.empty(0, dtype=dtype)
                    for name, dtype in layout
                },
            )
        if len(parts) == 1:
            return parts[0]
        return (
            np.concatenate([indices for indices, _ in parts]),
            {
                name: np.concatenate(
                    [columns[name] for _, columns in parts]
                )
                for name in self.column_names()
            },
        )

    def export_npz(
        self, target, where: Optional[dict] = None
    ) -> int:
        """Dump completed points columnar as an ``.npz``: the index
        array, one array per store column, and one decoded value array
        per grid axis (``axis_<name>``) — zero row dicts anywhere, the
        whole export is array slices and one vectorized axis decode.
        Returns the point count.  Requires an analytic store
        (:meth:`iter_columns`)."""
        import numpy as np

        indices, columns = self.read_columns(where=where)
        arrays: Dict[str, Any] = {"indices": indices}
        arrays.update(columns)
        grid = self.grid
        codes = grid.axis_codes_for_indices(indices)
        for name, values in grid.axes.items():
            arrays[f"axis_{name}"] = np.take(
                np.asarray(values), codes[name]
            )
        write_npz(target, arrays)
        return int(len(indices))

    def query(self, **filters) -> Iterator[Tuple[int, Dict[str, Any], dict]]:
        """Yield ``(index, axis_assignment, result_dict)`` for completed
        points whose axis assignment matches every filter, e.g.
        ``store.query(approach="pt2pt_part", n_threads=4)``.

        Axis filters are decoded once into matching *value codes* and
        tested digit-wise against the row-major index as one boolean
        mask per piece of the merge (:meth:`_pieces`), so rows are
        decoded only for the matches, and each piece's assignments in
        one vectorized axis decode.  Base-field filters (and unknown
        names) resolve before any segment is read: a mismatch yields
        nothing.
        """
        axes = self.grid.axes
        for encoding, indices, payload in self._pieces(filters or None):
            codes = self.grid.axis_codes_for_indices(indices)
            columns = [[v[c] for c in codes[n].tolist()] for n, v in axes.items()]
            assignments = zip(*columns) if columns else [()] * len(indices)
            results = self._piece_results(encoding, indices, payload)
            for index, assignment, result in zip(
                indices.tolist(), assignments, results
            ):
                yield index, dict(zip(axes, assignment)), result

    def export_jsonl(self, target, where: Optional[dict] = None) -> int:
        """Dump completed points as JSON-lines ``{"index", "assignment",
        "result"}`` records to a path or file object
        (:func:`~repro.runner.io.write_jsonl`); returns the row count.
        ``where`` filters points by spec field values (the
        :meth:`query` semantics)."""
        return write_jsonl(
            target,
            (
                {"index": index, "assignment": assignment, "result": result}
                for index, assignment, result in self.query(**(where or {}))
            ),
        )

    # -- maintenance ---------------------------------------------------------
    def compact(self) -> dict:
        """Merge the indexed segments into few large, sorted,
        duplicate-free segments of :data:`COMPACT_SEGMENT_POINTS`
        points each; returns a summary dict.

        The surviving pieces of the merge (:meth:`_pieces`) are
        buffered per encoding and flushed as new segments: binary
        columns move as array slices (no per-row decode or encode),
        ``result`` rows as their parsed lists.  Peak memory is one
        output segment plus the input segments being read.

        Crash-safe ordering: the replacement segments are fully written
        *before* the index switches over and the old files are removed.
        A crash mid-compact leaves old and new segments coexisting with
        a stale index — :meth:`rebuild_index` then sees both, coverage
        is unchanged, and duplicate points resolve via
        latest-append-wins (the replacements sort after the originals).
        """
        import numpy as np

        index = self._index()
        old_files = [entry["file"] for entry in index["segments"]]
        new_segments: List[dict] = []
        buffers: Dict[str, List[Tuple[Any, Any]]] = {}
        sizes: Dict[str, int] = {}

        def flush(encoding: str) -> None:
            parts = buffers.pop(encoding)
            sizes.pop(encoding)
            indices = np.concatenate([idx for idx, _ in parts])
            if encoding == ENC_RESULT:
                body = _encode_rows([row for _, rows in parts for row in rows])
            else:
                body = _encode_columns(
                    encoding,
                    [
                        np.concatenate([cols[name] for _, cols in parts])
                        for name, _ in _BIN_COLUMNS[encoding]
                    ],
                    len(indices),
                )
            new_segments.append(
                self._write_segment(
                    encoding, _index_array_to_ranges(indices), len(indices),
                    len(old_files) + len(new_segments), body,
                )
            )

        for encoding, indices, payload in self._pieces():
            pos = 0
            while pos < len(indices):
                room = COMPACT_SEGMENT_POINTS - sizes.get(encoding, 0)
                keep = slice(pos, pos + room)
                buffers.setdefault(encoding, []).append(
                    (indices[keep], _take(payload, keep))
                )
                sizes[encoding] = sizes.get(encoding, 0) + len(indices[keep])
                pos += room
                if sizes[encoding] == COMPACT_SEGMENT_POINTS:
                    flush(encoding)
        for encoding in sorted(buffers):
            flush(encoding)

        self._write_index(new_segments, index["ignored"])
        for rel in old_files:
            (self.root / rel).unlink(missing_ok=True)
        return {
            "segments_before": len(old_files),
            "segments_after": len(new_segments),
            "points": sum(entry["count"] for entry in new_segments),
        }

    def stats(self) -> dict:
        """Campaign health summary (the ``campaign status`` view).

        When segments carry writer tokens (a sharded run's, or any
        concurrent writers'), the per-writer coverage appears under
        ``"shard_segments"``.  ``"ignored"`` lists the files that are
        not readable segments of this campaign.
        """
        index = self._index()
        total_bytes = sum(
            (self.root / entry["file"]).stat().st_size
            for entry in index["segments"]
            if (self.root / entry["file"]).is_file()
        )
        payload = {
            "root": str(self.root),
            "schema": CAMPAIGN_SCHEMA,
            "kind": self.header["kind"],
            "backend": self.header["backend"],
            "grid_hash": self.header["grid_hash"],
            "n_points": self.n_points,
            "completed": self.n_completed,
            "missing": self.n_points - self.n_completed,
            "segments": len(index["segments"]),
            "total_bytes": total_bytes,
            "ignored": index["ignored"],
        }
        by_writer: Dict[str, List[Sequence[int]]] = {}
        for entry in index["segments"]:
            if "writer" in entry:
                by_writer.setdefault(entry["writer"], []).extend(
                    entry["ranges"]
                )
        if by_writer:
            payload["shard_segments"] = {
                writer: {
                    "ranges": [
                        [s, e] for s, e in _merge_ranges(ranges)
                    ],
                    "points": sum(
                        e - s for s, e in _merge_ranges(ranges)
                    ),
                }
                for writer, ranges in sorted(by_writer.items())
            }
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debug repr
        return f"<CampaignStore {str(self.root)!r}>"


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def slice_report(
    store: CampaignStore,
    slices: Optional[Mapping[str, Any]] = None,
) -> dict:
    """Aggregate statistics for one campaign slice, straight from
    columns — the first thin consumer of the columnar read path
    (``campaign report --slice axis=value``).

    ``slices`` pins axes (or base fields) with the :meth:`~CampaignStore.query`
    filter semantics; the report then groups the surviving points by
    each *remaining* axis value and gives n / mean / min / max of the
    per-iteration time (µs).  Everything is one
    :meth:`~CampaignStore.read_columns` call, one vectorized axis-code
    decode and one sort per axis — no row dicts at any size.
    """
    import numpy as np

    indices, columns = store.read_columns(where=slices or None)
    times = np.asarray(columns["times"])
    report: Dict[str, Any] = {
        "kind": store.header["kind"],
        "slice": dict(slices or {}),
        "points": int(len(indices)),
        "axes": {},
    }
    if len(indices):
        report["times_us"] = {
            "mean": float(times.mean()) * 1e6,
            "min": float(times.min()) * 1e6,
            "max": float(times.max()) * 1e6,
        }
    codes = store.grid.axis_codes_for_indices(indices)
    for name, values in store.grid.axes.items():
        if slices and name in slices:
            continue
        # One stable sort per axis makes each value's points one
        # contiguous run in index order, so a run's mean is the same
        # pairwise sum as the masked ``times[codes == code].mean()``.
        grouped = times[np.argsort(codes[name], kind="stable")]
        bounds = np.cumsum(np.bincount(codes[name], minlength=len(values)))
        report["axes"][name] = [
            {
                "value": value,
                "n": len(run),
                "mean_us": float(run.mean()) * 1e6,
                "min_us": float(run.min()) * 1e6,
                "max_us": float(run.max()) * 1e6,
            }
            for value, run in zip(values, np.split(grouped, bounds[:-1]))
            if len(run)
        ]
    return report


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

#: Spec fields that provably never enter the model arithmetic, per
#: kind: an axis over one of these needs no kernel column.
_IGNORABLE_AXES = {
    KIND_BENCH: {
        "iterations", "warmup", "seed", "verify", "max_retries",
        "ci_fraction", "gaussian_epsilon", "gaussian_delta",
    },
    KIND_PATTERN: {"iterations", "warmup", "seed"},
}


def _check_kernel_axes(grid: ScenarioGrid) -> None:
    """Raise ``ValueError`` unless every axis of an analytic grid is a
    model input the column kernel reads or a field the model provably
    ignores.  ``CampaignStore.create`` admits only JSON-scalar axes,
    which always pass; a hand-edited ``campaign.json`` (a ``cvars`` or
    ``params`` axis) would otherwise be silently dropped by the
    kernel, which takes those as batch constants from the grid base."""
    from ..model.vector import BENCH_COLUMN_FIELDS, PATTERN_COLUMN_FIELDS

    fields = (
        BENCH_COLUMN_FIELDS
        if grid.kind == KIND_BENCH
        else PATTERN_COLUMN_FIELDS
    )
    for name in grid.axes:
        if name not in fields and name not in _IGNORABLE_AXES[grid.kind]:
            raise ValueError(
                f"axis {name!r} is not a {grid.kind} kernel column; "
                f"an analytic campaign can vary only "
                f"{sorted(set(fields) | _IGNORABLE_AXES[grid.kind])}"
            )


def _bench_chunk_columns(
    grid: ScenarioGrid, start: int, stop: int
) -> List[Any]:
    """An analytic bench chunk: grid indices -> ``(values, digits)``
    axis columns -> vectorized kernel -> one times column, no spec
    objects anywhere."""
    import numpy as np

    from ..model.vector import BENCH_COLUMN_FIELDS, bench_times_from_columns
    from ..mpi import Cvars
    from ..net import MELUXINA

    with span("campaign.decode"):
        indices = np.arange(start, stop, dtype=np.int64)
        columns = grid.kernel_columns(indices, BENCH_COLUMN_FIELDS)
    params = grid.base.get("params", MELUXINA)
    cvars = grid.base.get("cvars") or Cvars()
    times = bench_times_from_columns(
        params,
        cvars.num_vcis,
        cvars.vci_method,
        cvars.part_aggr_size,
        columns,
        len(indices),
    )
    return [times]


def _pattern_chunk_columns(
    grid: ScenarioGrid, start: int, stop: int
) -> List[Any]:
    """An analytic pattern chunk: grid indices -> ``(values, digits)``
    axis columns -> vectorized kernel, factored over the chunk's link
    configurations -> three columns, with no per-point
    ``scenario_at``/config objects anywhere."""
    import numpy as np

    from ..model.vector import (
        PATTERN_COLUMN_FIELDS,
        pattern_times_from_columns,
    )
    from ..mpi import Cvars
    from ..net import MELUXINA

    with span("campaign.decode"):
        indices = np.arange(start, stop, dtype=np.int64)
        columns = grid.kernel_columns(indices, PATTERN_COLUMN_FIELDS)
    params = grid.base.get("params", MELUXINA)
    cvars = grid.base.get("cvars") or Cvars()
    batch = pattern_times_from_columns(
        params,
        cvars.num_vcis,
        cvars.part_aggr_size,
        columns,
        len(indices),
    )
    return batch.store_columns()


def _chunk_ranges(
    todo: Sequence[Tuple[int, int]],
    chunk_points: int,
    limit: Optional[int],
) -> Iterator[Tuple[int, int]]:
    """Yield [start, stop) chunks of at most ``chunk_points`` over the
    ``todo`` ranges, capped at ``limit`` points total."""
    budget = limit if limit is not None else sum(e - s for s, e in todo)
    for range_start, range_stop in todo:
        for start in range(range_start, range_stop, chunk_points):
            if budget <= 0:
                return
            stop = min(start + chunk_points, range_stop, start + budget)
            budget -= stop - start
            yield start, stop


def run_campaign(
    store: CampaignStore,
    jobs: int = 1,
    chunk_points: Optional[int] = None,
    limit: Optional[int] = None,
    ranges: Optional[Sequence[Tuple[int, int]]] = None,
    progress=None,
) -> dict:
    """Execute a campaign's missing points, chunk by chunk.

    Each completed chunk is appended to the store before the next one
    starts (streaming: an interrupted run resumes from its segments);
    ``index.json`` is written once, when the run ends
    (:meth:`CampaignStore.deferred_index`).
    Analytic campaigns hand each chunk's kernel columns to a
    bounded-queue **async segment writer**
    (:class:`~repro.runner.executor.AsyncSegmentWriter`) so the
    segment write overlaps the next chunk's kernel evaluation; the
    writer appends FIFO on one thread, so the segments are
    byte-identical to appending inline.  An analytic grid whose axes
    the column kernel cannot read raises ``ValueError`` before any
    chunk runs.
    Simulation-backed campaigns run their chunks through a bounded
    **submit-ahead pipeline**: ~2x the workers' worth of chunks
    (:func:`~repro.runner.planner.auto_submit_window`) are in flight on
    one persistent pool while earlier results stream to the store in
    submission order — the pool stays saturated across chunk
    boundaries, and the store bytes are identical to sequential
    execution.  ``limit`` caps the points executed by this invocation
    (useful for time-boxed sessions and the CI resume assertion).
    ``ranges`` restricts execution to the given [start, stop)
    grid-index slabs (the shard shape: each shard process runs
    ``ranges=its slab list`` against the shared target store).
    Returns a summary dict (points executed, chunks, wall seconds,
    points/s).
    """
    from collections import deque

    from .executor import AsyncSegmentWriter, iter_chunk_results
    from .planner import (
        auto_chunk_size,
        auto_submit_window,
        auto_writer_depth,
        pool_workers,
    )

    grid = store.grid
    # Analytic chunks are kernel columns written as binary segments;
    # every other backend produces result rows.  (The axis check
    # imports the kernel module: outside the timed root span.)
    columnar = grid.backend == "analytic"
    if columnar:
        _check_kernel_axes(grid)
    # index.json is written once, when the run ends (or fails).
    with span("campaign.run", backend=grid.backend, kind=grid.kind), \
            store.deferred_index():
        if ranges is not None:
            ranges = _merge_ranges(ranges)
            for start, stop in ranges:
                if not (0 <= start < stop <= store.n_points):
                    raise ValueError(
                        f"range [{start}, {stop}) outside the grid "
                        f"[0, {store.n_points})"
                    )
            full_missing = store.missing_ranges()
            missing = _intersect_ranges(full_missing, ranges)
        else:
            full_missing = missing = store.missing_ranges()
        n_missing = sum(stop - start for start, stop in missing)
        if limit is not None:
            n_missing = min(n_missing, limit)
        # One pool decision for the whole campaign: the pipeline spans
        # every chunk.
        workers, use_pool = pool_workers(n_missing, jobs)
        if chunk_points is None:
            # A simulation chunk is one pool task, so sizing must leave at
            # least a few chunks per worker (auto_chunk_size's rule) or a
            # small campaign would keep most of the pool idle; its cap
            # bounds how long results can sit before their ordered write.
            chunk_points = (
                DEFAULT_INLINE_CHUNK
                if columnar
                else auto_chunk_size(n_missing, workers)
            )
        chunk_points = max(1, int(chunk_points))

        # Planner decisions become observables: the profile report shows
        # them beside the stage attribution they produced.
        if telemetry.active_registry() is not None:
            telemetry.gauge("planner.workers", workers)
            telemetry.gauge("planner.use_pool", int(use_pool))
            telemetry.gauge("planner.chunk_points", chunk_points)

        t0 = time.perf_counter()
        executed = 0
        chunks = 0
        # Progress coverage is tracked locally, not re-read from the store:
        # under the async writer the in-memory index is the writer
        # thread's to update, and a mid-run ``n_completed`` would race it.
        covered = store.n_points - sum(
            stop - start for start, stop in full_missing
        )

        def note_chunk(points: int) -> None:
            nonlocal chunks, executed, covered
            chunks += 1
            executed += points
            covered += points
            telemetry.count("campaign.chunks")
            telemetry.count("campaign.points", points)
            if progress is not None:
                progress(
                    f"[campaign] {covered}/{store.n_points} "
                    f"points ({chunks} chunk(s) this run)"
                )

        if columnar:
            columns_for = (
                _bench_chunk_columns
                if grid.kind == KIND_BENCH
                else _pattern_chunk_columns
            )
            encoding = _KIND_BIN[grid.kind]
            with AsyncSegmentWriter(
                depth=auto_writer_depth(chunk_points)
            ) as writer:
                for start, stop in _chunk_ranges(missing, chunk_points, limit):
                    writer.submit(
                        store.append_columns,
                        start, stop, columns_for(grid, start, stop), encoding,
                    )
                    note_chunk(stop - start)
        else:
            window = auto_submit_window(workers)
            telemetry.gauge("planner.submit_window", window)
            # Chunk bounds travel beside the payload stream: the
            # generator appends each chunk's range as it is submitted,
            # the ordered consumer pops it back — the deque never holds
            # more than the in-flight window.
            bounds: deque = deque()

            def payload_chunks():
                for start, stop in _chunk_ranges(missing, chunk_points, limit):
                    with span("campaign.materialize"):
                        payloads = [
                            grid.scenario_at(i).to_dict()
                            for i in range(start, stop)
                        ]
                    bounds.append((start, stop))
                    yield payloads

            for result_dicts in iter_chunk_results(
                payload_chunks(), workers, window, use_pool
            ):
                start, stop = bounds.popleft()
                store.append_chunk(
                    [
                        [start + j, result]
                        for j, result in enumerate(result_dicts)
                    ],
                    [(start, stop)],
                )
                note_chunk(stop - start)

        wall = time.perf_counter() - t0
        completed = store.n_completed

    return {
        "executed": executed,
        "chunks": chunks,
        "wall_s": wall,
        "points_per_s": (executed / wall) if wall > 0 else None,
        "completed": completed,
        "n_points": store.n_points,
    }
