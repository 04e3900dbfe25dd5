"""Report formatting: the tables and series the paper's figures plot."""

from __future__ import annotations

from typing import List, Optional, Sequence

from .sweep import SweepResult

__all__ = ["format_us_table", "format_bandwidth_table"]


def _fmt_size(nbytes: int) -> str:
    if nbytes >= 1 << 20:
        return f"{nbytes / (1 << 20):g}MiB"
    if nbytes >= 1 << 10:
        return f"{nbytes / (1 << 10):g}KiB"
    return f"{nbytes}B"


def format_us_table(
    sweep: SweepResult,
    approaches: Optional[Sequence[str]] = None,
    title: str = "",
) -> str:
    """ASCII table of mean times (µs) by size × approach.

    This is the textual equivalent of the paper's time-vs-size figures
    (Figs. 4–7).
    """
    names = list(approaches) if approaches else sweep.approaches()
    sizes = sweep.sizes(names[0])
    width = max(18, max(len(n) for n in names) + 2)
    lines: List[str] = []
    if title:
        lines.append(title)
    header = f"{'msg size':>10} | " + " | ".join(f"{n:>{width}}" for n in names)
    lines.append(header)
    lines.append("-" * len(header))
    for size in sizes:
        cells = []
        for n in names:
            r = sweep.get(n, size)
            ci = r.stats.ci_half * 1e6
            cell = f"{r.mean_us:12.3f}±{ci:5.2f}"
            cells.append(f"{cell:>{width}}")
        lines.append(f"{_fmt_size(size):>10} | " + " | ".join(cells))
    return "\n".join(lines)


def format_bandwidth_table(
    sweep: SweepResult,
    approaches: Optional[Sequence[str]] = None,
    title: str = "",
) -> str:
    """ASCII table of perceived bandwidth (GB/s) by size × approach
    (Fig. 8's metric)."""
    names = list(approaches) if approaches else sweep.approaches()
    sizes = sweep.sizes(names[0])
    width = max(14, max(len(n) for n in names) + 2)
    lines: List[str] = []
    if title:
        lines.append(title)
    header = f"{'msg size':>10} | " + " | ".join(f"{n:>{width}}" for n in names)
    lines.append(header)
    lines.append("-" * len(header))
    for size in sizes:
        cells = []
        for n in names:
            bw = sweep.get(n, size).bandwidth_gbs
            cells.append(f"{bw:{width}.4f}")
        lines.append(f"{_fmt_size(size):>10} | " + " | ".join(cells))
    return "\n".join(lines)

