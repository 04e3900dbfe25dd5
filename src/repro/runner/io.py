"""Shared store I/O helpers: atomic writes, segment reads, exports.

Every persistent artifact in the runner layer — v1 result records,
campaign headers, segments, indexes, JSONL and ``.npz`` exports — goes
through the same two idioms:

* **atomic replace** — write to a unique temp file in the target's
  directory, then ``os.replace`` it into place, so a store shared by
  parallel workers or interrupted mid-run never holds a torn file;
* **path-or-handle targets** — export entry points accept either a
  filesystem path (opened, parents created) or an open file object
  (written through, left open), so ``--out FILE`` and stdout piping
  share one code path.

Campaign segments are read here too: every segment starts with one
JSON header line; a ``.bin`` segment follows it with raw little-endian
column blocks (:func:`read_binary_segment`).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import IO, Callable, Iterable, List, Tuple, Union

__all__ = [
    "BINARY_DTYPES",
    "atomic_write_bytes",
    "atomic_write_text",
    "read_binary_segment",
    "read_segment_header",
    "write_jsonl",
    "write_npz",
]

#: Column dtypes a binary segment may carry (explicit little-endian, so
#: the on-disk bytes are identical on any host): float64 and int64.
BINARY_DTYPES = ("<f8", "<i8")


def _atomic_write(
    target: Union[str, Path], write: Callable[[IO[bytes]], None]
) -> None:
    """Atomically replace ``target`` (creating parents) with whatever
    ``write`` puts into a binary handle.

    The temp name is unique per writer, so concurrent processes writing
    the same target cannot interleave; the last ``os.replace`` wins with
    a whole file either way.
    """
    target = Path(target)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=target.stem + ".", suffix=".tmp", dir=target.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def atomic_write_bytes(target: Path, data: bytes) -> None:
    """Atomically replace ``target`` with raw ``data``."""
    _atomic_write(target, lambda handle: handle.write(data))


def atomic_write_text(target: Path, text: str) -> None:
    """Atomically replace ``target`` with UTF-8 ``text``."""
    atomic_write_bytes(target, text.encode("utf-8"))


def _binary_layout(header: dict) -> List[Tuple[str, str, int]]:
    """``(name, dtype, nbytes)`` per column block, header order.

    Raises ``ValueError`` on anything outside the binary-segment
    contract (unknown dtype, malformed column spec) — the caller treats
    that exactly like an unparseable header.
    """
    import numpy as np

    count = int(header["count"])
    layout: List[Tuple[str, str, int]] = []
    for name, dtype in header["columns"]:
        if dtype not in BINARY_DTYPES:
            raise ValueError(
                f"binary segment column {name!r} has unsupported "
                f"dtype {dtype!r} (expected one of {BINARY_DTYPES})"
            )
        layout.append((str(name), str(dtype), count * np.dtype(dtype).itemsize))
    return layout


def read_segment_header(path: Path) -> dict:
    """Parse a segment's first-line JSON header.

    ``.bin`` segments are additionally *size-validated*: the header's
    declared column layout must account for every payload byte, so a
    truncated (or trailing-garbage) binary file fails here.  Raises
    OSError/ValueError on any problem.
    """
    path = Path(path)
    with path.open("rb") as handle:
        line = handle.readline()
        payload_start = handle.tell()
    header = json.loads(line)
    if not isinstance(header, dict):
        raise ValueError(f"{path}: segment header is not an object")
    if path.suffix == ".bin":
        if not line.endswith(b"\n"):
            raise ValueError(f"{path}: truncated binary header")
        expected = payload_start + sum(
            nbytes for _, _, nbytes in _binary_layout(header)
        )
        actual = path.stat().st_size
        if actual != expected:
            raise ValueError(
                f"{path}: payload size mismatch "
                f"(header declares {expected} bytes, file has {actual})"
            )
    return header


def read_binary_segment(path: Path) -> Tuple[dict, List]:
    """A binary segment as ``(header, [column, ...])``.

    Columns come back as read-only ``numpy.memmap`` views over the
    payload blocks — zero parse, zero copy, O(1) resident memory until
    a consumer touches the pages.  The header is size-validated first
    (:func:`read_segment_header`), so a truncated file raises here
    instead of yielding short columns.
    """
    import numpy as np

    path = Path(path)
    header = read_segment_header(path)
    with path.open("rb") as handle:
        handle.readline()
        offset = handle.tell()
    columns = []
    for _, dtype, nbytes in _binary_layout(header):
        columns.append(
            np.memmap(
                path, dtype=dtype, mode="r",
                offset=offset, shape=(int(header["count"]),),
            )
        )
        offset += nbytes
    return header, columns


def write_npz(target: Union[str, Path], arrays: dict) -> None:
    """Atomically write named arrays as an uncompressed ``.npz``."""
    import numpy as np

    _atomic_write(target, lambda handle: np.savez(handle, **arrays))


def write_jsonl(
    target: Union[str, Path, IO[str]],
    records: Iterable[dict],
    encode: Callable[[dict], str] = lambda record: json.dumps(
        record, sort_keys=True, separators=(",", ":")
    ),
) -> int:
    """Write ``records`` as JSON lines to a path or open file object.

    Returns the record count.  A path target is created (with parents)
    and closed; a file-object target is written through and left open —
    the shared contract of every ``export_jsonl`` entry point.
    """
    def _write(handle: IO[str]) -> int:
        count = 0
        for record in records:
            handle.write(encode(record) + "\n")
            count += 1
        return count

    if hasattr(target, "write"):
        return _write(target)  # type: ignore[arg-type]
    path = Path(target)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        return _write(handle)
