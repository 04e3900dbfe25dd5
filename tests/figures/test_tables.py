"""Tests for the Table 1/2 reproductions."""

from repro.bench import APPROACHES
from repro.figures.tables import (
    TABLE1_SENDER,
    TABLE2_RECEIVER,
    table1,
    table2,
)


def test_all_approaches_covered():
    expected = set(APPROACHES) - {"pt2pt_part_old"}  # old shares part's row
    assert set(TABLE1_SENDER) == expected
    assert set(TABLE2_RECEIVER) == expected


def test_paper_table1_key_cells():
    assert TABLE1_SENDER["pt2pt_part"]["init"] == ["MPI_Psend_init"]
    assert TABLE1_SENDER["pt2pt_part"]["ready"] == ["MPI_Pready"]
    assert TABLE1_SENDER["pt2pt_single"]["wait"] == ["MPI_Start", "MPI_Wait"]
    assert "MPI_Comm_dup" in TABLE1_SENDER["pt2pt_many"]["init"]
    assert TABLE1_SENDER["rma_single_passive"]["start"] == ["MPI_Recv"]
    assert "MPI_Win_flush" in TABLE1_SENDER["rma_single_passive"]["wait"]
    assert TABLE1_SENDER["rma_single_active"]["wait"] == ["MPI_Complete"]


def test_paper_table2_key_cells():
    assert TABLE2_RECEIVER["pt2pt_part"]["ready"] == ["MPI_Parrived"]
    assert TABLE2_RECEIVER["rma_single_passive"]["start"] == ["MPI_Send"]
    assert TABLE2_RECEIVER["rma_single_active"]["start"] == ["MPI_Post"]
    assert TABLE2_RECEIVER["rma_single_active"]["wait"] == ["MPI_Wait"]


def test_dup_only_where_paper_lists_it():
    """Table 1: comm_dup for many, rma single (both syncs); not rma many."""
    assert "MPI_Comm_dup" in TABLE1_SENDER["rma_single_passive"]["init"]
    assert "MPI_Comm_dup" in TABLE1_SENDER["rma_single_active"]["init"]
    assert "MPI_Comm_dup" not in TABLE1_SENDER["rma_many_active"]["init"]


def test_rendered_tables_contain_every_row():
    t1, t2 = table1(), table2()
    for name in TABLE1_SENDER:
        assert name in t1
        assert name in t2
    assert "MPI_Pready" in t1
    assert "MPI_Parrived" in t2


def test_every_phase_present():
    for table in (TABLE1_SENDER, TABLE2_RECEIVER):
        for phases in table.values():
            assert set(phases) == {"init", "start", "ready", "wait"}


def _rows(text):
    title, header, rule, *rows = text.split("\n")
    return header, rule, rows


def test_rendered_columns_align():
    """Every cell starts at its header's column, at least two spaces
    after the previous cell, however long the operation lists get."""
    for table, text in ((TABLE1_SENDER, table1()), (TABLE2_RECEIVER, table2())):
        header, rule, rows = _rows(text)
        starts = [header.index(p) for p in ("init", "start", "ready", "wait")]
        assert len(rows) == len(table)
        for (name, phases), row in zip(table.items(), rows):
            assert row.startswith(name + "  ")
            for phase, start in zip(("init", "start", "ready", "wait"), starts):
                cell = " + ".join(phases[phase]) or "-"
                assert row[start - 2:start] == "  ", (name, phase)
                assert row[start:start + len(cell)] == cell, (name, phase)
        assert set(rule) == {"-"}
        assert len(rule) == max(len(line) for line in [header, *rows])


def test_rendered_lines_have_no_trailing_space():
    for text in (table1(), table2()):
        for line in text.split("\n"):
            assert line == line.rstrip(), repr(line)
