"""The campaign index: one ``index.json`` write per writing run, and
resume after a process killed before that write.

A writing run keeps the index in memory and writes ``index.json`` once,
when it ends.  A run killed before then leaves segments the on-disk
index does not list; the next load sees the index is stale and rebuilds
coverage from the segment headers.  The kill hooks below live in the
tests: the child processes patch the store's segment write to SIGKILL
themselves after segment ``k``.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.runner import CampaignStore, ScenarioGrid, run_campaign
from repro.runner import campaign
from repro.runner.campaign import parse_grid_spec
from repro.runner.shard import run_sharded, shard_token

SRC = Path(repro.__file__).resolve().parents[1]


def index_calls(monkeypatch):
    """Count ``index.json`` parses and writes (every store object)."""
    calls = {"read": 0, "write": 0}
    read, write = CampaignStore._read_index, CampaignStore._write_index

    def counted_read(self):
        calls["read"] += 1
        return read(self)

    def counted_write(self, *args, **kwargs):
        calls["write"] += 1
        return write(self, *args, **kwargs)

    monkeypatch.setattr(CampaignStore, "_read_index", counted_read)
    monkeypatch.setattr(CampaignStore, "_write_index", counted_write)
    return calls


def writer_token(tokened):
    """Shard 1 of 1's writer token, or ``None`` for a plain writer."""
    return shard_token(1, 1) if tokened else None


def segment_files(root):
    return sorted((Path(root) / "segments").glob("seg-*"))


class TestOneIndexWritePerRun:
    """4,000 analytic points in 25-point chunks are 160 segments.  The
    index used to be re-read, re-parsed and rewritten per segment: the
    open and this run made 163 parses (2.20 MB of JSON) and 160
    writes.  Each test runs as a plain writer and as a shard-shaped one
    (a writer token, as :func:`run_sharded` opens the target)."""

    GRID = ScenarioGrid(
        "bench",
        base={"n_threads": 4, "iterations": 1},
        axes={
            "approach": ["pt2pt_single", "pt2pt_part"],
            "total_bytes": list(range(1024, 1024 + 2000 * 64, 64)),
        },
        backend="analytic",
    )

    @pytest.mark.parametrize("tokened", [False, True])
    def test_one_parse_and_one_write(self, tmp_path, monkeypatch, tokened):
        token = writer_token(tokened)
        CampaignStore.create(tmp_path / "camp", self.GRID)
        calls = index_calls(monkeypatch)
        store = CampaignStore.open(tmp_path / "camp", writer_token=token)
        summary = run_campaign(store, chunk_points=25)
        assert summary["executed"] == len(self.GRID) == 4000
        segments = segment_files(store.root)
        assert len(segments) == 160
        assert all(
            path.name.startswith(f"seg-{token}-") == tokened
            for path in segments
        )
        assert calls["read"] <= 1
        assert calls["write"] == 1
        # The one write lists every segment: a fresh load is not stale.
        index = CampaignStore(store.root)._read_index()
        assert index is not None and len(index["segments"]) == 160

    @pytest.mark.parametrize("tokened", [False, True])
    def test_run_that_appends_nothing_writes_nothing(
        self, tmp_path, monkeypatch, tokened
    ):
        store = CampaignStore.create(tmp_path / "camp", self.GRID)
        run_campaign(store, chunk_points=1000)
        index_path = store.root / "index.json"
        before = index_path.stat().st_mtime_ns, index_path.read_bytes()
        calls = index_calls(monkeypatch)
        summary = run_campaign(
            CampaignStore.open(store.root, writer_token=writer_token(tokened))
        )
        assert summary["executed"] == 0
        assert calls == {"read": 1, "write": 0}
        assert (index_path.stat().st_mtime_ns, index_path.read_bytes()) == before

    @pytest.mark.parametrize("tokened", [False, True])
    def test_failed_run_still_writes_its_index(
        self, tmp_path, monkeypatch, tokened
    ):
        """A run that raises after two chunks leaves an index that lists
        both of their segments (not a stale one)."""
        chunk = campaign._bench_chunk_columns
        built = []

        def third_chunk_fails(grid, start, stop):
            if len(built) == 2:
                raise RuntimeError("kernel failed")
            built.append(start)
            return chunk(grid, start, stop)

        monkeypatch.setattr(campaign, "_bench_chunk_columns", third_chunk_fails)
        store = CampaignStore.create(
            tmp_path / "camp", self.GRID, writer_token=writer_token(tokened)
        )
        with pytest.raises(RuntimeError, match="kernel failed"):
            run_campaign(store, chunk_points=100)
        index = CampaignStore(store.root)._read_index()
        assert index is not None
        assert [entry["ranges"] for entry in index["segments"]] == [
            [[0, 100]], [[100, 200]]
        ]


#: Runs one campaign in a child process that SIGKILLs itself right
#: after writing segment ``kill_after``.
CHILD = """
import json, os, signal, sys
from repro.runner import campaign

root, spec, chunk, kill_after = sys.argv[1:]
write_segment = campaign.CampaignStore._write_segment
written = 0


def write_then_die(self, *args, **kwargs):
    global written
    entry = write_segment(self, *args, **kwargs)
    written += 1
    if written == int(kill_after):
        os.kill(os.getpid(), signal.SIGKILL)
    return entry


campaign.CampaignStore._write_segment = write_then_die
store = campaign.CampaignStore.create(
    root, campaign.parse_grid_spec(json.loads(spec))
)
campaign.run_campaign(store, chunk_points=int(chunk))
sys.exit(3)  # the kill never came
"""

BENCH_SPEC = {
    "kind": "bench",
    "backend": "analytic",
    "base": {"theta": 2, "iterations": 3},
    "axes": {
        "approach": ["pt2pt_single", "pt2pt_part", "rma_many_passive"],
        "total_bytes": {"pow2": [10, 19]},
        "n_threads": [1, 4],
        "gamma_us_per_mb": [0.0, 200.0],
    },
}

PATTERN_SPEC = {
    "kind": "pattern",
    "backend": "analytic",
    "base": {"n_ranks": 8, "n_threads": 2, "iterations": 2,
             "noise_us": 25.0, "noise_sigma_us": 5.0},
    "axes": {
        "pattern": ["halo3d", "sweep3d", "fft"],
        "approach": ["pt2pt_single", "pt2pt_part", "rma_single_active"],
        "msg_bytes": [4096, 65536, 1 << 20],
        "noise": ["none", "gaussian"],
    },
}


def export_bytes(root, out):
    from repro.__main__ import main

    assert main(["campaign", "export", str(root), "--out", str(out)]) == 0
    return Path(out).read_bytes()


@pytest.fixture(scope="module")
def reference_exports(tmp_path_factory):
    """``campaign export`` of each grid run without interruption."""
    base = tmp_path_factory.mktemp("reference")
    exports = {}
    for name, spec in (("bench", BENCH_SPEC), ("pattern", PATTERN_SPEC)):
        store = CampaignStore.create(base / name, parse_grid_spec(spec))
        run_campaign(store)
        exports[name] = export_bytes(store.root, base / f"{name}.jsonl")
    return exports


class TestKilledRunResumes:
    #: (grid, points per chunk, segments): 120 bench points in 12
    #: segments, 54 pattern points in 6.
    CASES = {
        "bench": (BENCH_SPEC, 10, 12),
        "pattern": (PATTERN_SPEC, 9, 6),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_resume_after_kill(self, tmp_path, reference_exports, name, where):
        spec, chunk, n_segments = self.CASES[name]
        kill_after = {"first": 1, "middle": n_segments // 2,
                      "last": n_segments}[where]
        root = tmp_path / "camp"
        child = subprocess.run(
            [sys.executable, "-c", CHILD, str(root), json.dumps(spec),
             str(chunk), str(kill_after)],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == -signal.SIGKILL, child.stderr
        assert len(segment_files(root)) == kill_after
        # The index on disk predates every segment of the killed run.
        assert CampaignStore(root)._read_index() is None

        store = CampaignStore.open(root)
        done = kill_after * chunk
        assert store.completed_ranges() == [(0, done)]
        summary = run_campaign(store, chunk_points=chunk)
        assert summary["executed"] == store.n_points - done
        assert store.n_completed == store.n_points
        assert export_bytes(root, tmp_path / "out.jsonl") == (
            reference_exports[name]
        )


def test_killed_shard_keeps_its_store_and_resumes(
    tmp_path, monkeypatch, reference_exports
):
    """Shard 2 of 2 SIGKILLs itself after its first segment: the run
    raises naming it, the target keeps both shards' finished segments
    in an index the driver rebuilt, and the resume runs only the rest
    and exports the bytes of an uninterrupted run."""
    killed = shard_token(2, 2)
    write_segment = CampaignStore._write_segment

    def write_then_die(self, *args, **kwargs):
        entry = write_segment(self, *args, **kwargs)
        if self.writer_token == killed:
            os.kill(os.getpid(), signal.SIGKILL)
        return entry

    # Shard processes are forked, so they inherit both patches: the 54
    # points run as two 27-point shards in 9-point segments.
    monkeypatch.setattr(campaign, "DEFAULT_INLINE_CHUNK", 9)
    monkeypatch.setattr(CampaignStore, "_write_segment", write_then_die)
    store = CampaignStore.create(tmp_path / "camp", parse_grid_spec(PATTERN_SPEC))
    with pytest.raises(RuntimeError, match=r"shard 2/2 exited -9"):
        run_sharded(store, n_shards=2)
    assert not (store.root / "shards").exists()
    writers = [path.name.split("-")[1] for path in segment_files(store.root)]
    assert writers == [shard_token(1, 2)] * 3 + [killed]
    assert CampaignStore(store.root)._read_index() is not None
    assert store.completed_ranges() == [(0, 36)]

    monkeypatch.setattr(CampaignStore, "_write_segment", write_segment)
    summary = run_sharded(store, n_shards=2)
    assert summary["executed"] == store.n_points - 36
    assert store.n_completed == store.n_points
    assert export_bytes(store.root, tmp_path / "out.jsonl") == (
        reference_exports["pattern"]
    )
