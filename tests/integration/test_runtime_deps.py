"""The paper path runs on the standard library and numpy alone.

scipy is a test-only dependency (the quantile oracle in
``tests/bench/test_stats.py``).  A child interpreter with scipy blocked
imports every entry point, simulates a benchmark point and a noisy
pattern point (both reach the Student-t quantile), and summarizes.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

CHILD = """
import sys
sys.modules["scipy"] = None  # any `import scipy...` now raises ImportError

import repro.__main__, repro.apps, repro.backends, repro.figures, repro.runner
from repro.apps import PatternConfig, run_pattern
from repro.bench import BenchSpec, run_benchmark, summarize

bench = run_benchmark(
    BenchSpec(approach="pt2pt_part", total_bytes=16384, n_threads=2, iterations=3)
)
assert bench.stats.n == 3, bench.stats
pattern = run_pattern(
    PatternConfig(
        pattern="halo3d", n_ranks=4, n_threads=2, msg_bytes=16384,
        iterations=3, noise="gaussian", noise_us=5.0, noise_sigma_us=2.0,
    )
)
assert pattern.stats.ci_half > 0.0, pattern.stats  # took the quantile path
stats = summarize([1.0, 2.0, 3.0])
assert abs(stats.ci_half - 2.919985580353725 / 3 ** 0.5) < 1e-12, stats
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert loaded == ["scipy"], loaded  # only the blocking entry
print("ok")
"""


def test_paper_path_without_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True,
        text=True,
        timeout=240,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "ok"
