"""Tables 1 and 2: the MPI operations each approach maps to each phase.

These tables are the paper's specification of the benchmark approaches;
here they double as machine-checkable documentation: the integration
tests assert that each approach's implementation actually performs the
listed operations (via runtime call counters and wire traffic).

Unlike the ``figN_*`` drivers, the tables are static text — there is no
scenario grid to submit to :mod:`repro.runner`, so regeneration is free
and ignores ``--jobs``/``--store``.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["TABLE1_SENDER", "TABLE2_RECEIVER", "table1", "table2"]

#: Sender-side operations by approach and phase (paper Table 1).
TABLE1_SENDER: Dict[str, Dict[str, List[str]]] = {
    "pt2pt_part": {
        "init": ["MPI_Psend_init"],
        "start": ["MPI_Start"],
        "ready": ["MPI_Pready"],
        "wait": ["MPI_Wait"],
    },
    "pt2pt_single": {
        "init": ["MPI_Send_init"],
        "start": [],
        "ready": [],
        "wait": ["MPI_Start", "MPI_Wait"],
    },
    "pt2pt_many": {
        "init": ["MPI_Comm_dup", "MPI_Send_init"],
        "start": [],
        "ready": ["MPI_Start"],
        "wait": ["MPI_Wait"],
    },
    "rma_single_passive": {
        "init": ["MPI_Comm_dup", "MPI_Win_create", "MPI_Win_lock"],
        "start": ["MPI_Recv"],
        "ready": ["MPI_Put"],
        "wait": ["MPI_Win_flush", "MPI_Send"],
    },
    "rma_many_passive": {
        "init": ["MPI_Win_create", "MPI_Win_lock"],
        "start": ["MPI_Recv"],
        "ready": ["MPI_Put", "MPI_Win_flush"],
        "wait": ["MPI_Send"],
    },
    "rma_single_active": {
        "init": ["MPI_Comm_dup", "MPI_Win_create"],
        "start": ["MPI_Start"],
        "ready": ["MPI_Put"],
        "wait": ["MPI_Complete"],
    },
    "rma_many_active": {
        "init": ["MPI_Win_create"],
        "start": ["MPI_Start"],
        "ready": ["MPI_Put"],
        "wait": ["MPI_Complete"],
    },
}

#: Receiver-side operations by approach and phase (paper Table 2).
TABLE2_RECEIVER: Dict[str, Dict[str, List[str]]] = {
    "pt2pt_part": {
        "init": ["MPI_Precv_init"],
        "start": ["MPI_Start"],
        "ready": ["MPI_Parrived"],
        "wait": ["MPI_Wait"],
    },
    "pt2pt_single": {
        "init": ["MPI_Recv_init"],
        "start": ["MPI_Start"],
        "ready": [],
        "wait": ["MPI_Wait"],
    },
    "pt2pt_many": {
        "init": ["MPI_Comm_dup", "MPI_Recv_init"],
        "start": ["MPI_Start"],
        "ready": [],
        "wait": ["MPI_Wait"],
    },
    "rma_single_passive": {
        "init": ["MPI_Win_create"],
        "start": ["MPI_Send"],
        "ready": [],
        "wait": ["MPI_Recv"],
    },
    "rma_many_passive": {
        "init": ["MPI_Win_create"],
        "start": ["MPI_Send"],
        "ready": [],
        "wait": ["MPI_Recv"],
    },
    "rma_single_active": {
        "init": ["MPI_Win_create"],
        "start": ["MPI_Post"],
        "ready": [],
        "wait": ["MPI_Wait"],
    },
    "rma_many_active": {
        "init": ["MPI_Win_create"],
        "start": ["MPI_Post"],
        "ready": [],
        "wait": ["MPI_Wait"],
    },
}

_PHASES = ("init", "start", "ready", "wait")


def _render(table: Dict[str, Dict[str, List[str]]], title: str) -> str:
    width = 24
    lines = [title]
    header = f"{'approach':<22}" + "".join(f"{p:<{width}}" for p in _PHASES)
    lines.append(header)
    lines.append("-" * len(header))
    for name, phases in table.items():
        cells = "".join(
            f"{' + '.join(phases[p]) or '-':<{width}}" for p in _PHASES
        )
        lines.append(f"{name:<22}" + cells)
    return "\n".join(lines)


def table1() -> str:
    """Printable reproduction of Table 1 (sender side)."""
    return _render(TABLE1_SENDER, "Table 1 — MPI operations, sender side")


def table2() -> str:
    """Printable reproduction of Table 2 (receiver side)."""
    return _render(TABLE2_RECEIVER, "Table 2 — MPI operations, receiver side")
