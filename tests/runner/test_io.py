"""Shared store I/O helpers: atomic writes and the path-or-handle
JSONL contract."""

import io
import json

from repro.runner.io import atomic_write_text, write_jsonl


class TestAtomicWrite:
    def test_writes_and_creates_parents(self, tmp_path):
        target = tmp_path / "a" / "b" / "file.txt"
        atomic_write_text(target, "hello\n")
        assert target.read_text() == "hello\n"

    def test_replaces_whole_file(self, tmp_path):
        target = tmp_path / "file.txt"
        atomic_write_text(target, "first version, long content\n")
        atomic_write_text(target, "v2\n")
        assert target.read_text() == "v2\n"

    def test_no_temp_litter(self, tmp_path):
        target = tmp_path / "file.txt"
        atomic_write_text(target, "x\n")
        assert [p.name for p in tmp_path.iterdir()] == ["file.txt"]


class TestWriteJsonl:
    RECORDS = [{"b": 2, "a": 1}, {"x": [1, 2]}]

    def test_path_target(self, tmp_path):
        target = tmp_path / "out" / "dump.jsonl"
        assert write_jsonl(target, self.RECORDS) == 2
        lines = target.read_text().splitlines()
        assert json.loads(lines[0]) == {"a": 1, "b": 2}
        assert lines[0] == '{"a":1,"b":2}'  # sorted, compact

    def test_handle_target_left_open(self):
        buffer = io.StringIO()
        assert write_jsonl(buffer, self.RECORDS) == 2
        assert not buffer.closed
        assert len(buffer.getvalue().splitlines()) == 2

    def test_custom_encoder(self):
        buffer = io.StringIO()
        write_jsonl(buffer, [[1, 2.5]], encode=lambda r: repr(r))
        assert buffer.getvalue() == "[1, 2.5]\n"
