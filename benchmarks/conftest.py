"""Shared fixtures for the figure-regeneration benchmarks.

Each ``test_figN`` module benchmarks the regeneration of one of the
paper's figures and prints the reproduced table plus the paper-vs-
measured headline factors (captured with ``pytest -s`` or in the
benchmark summary).

Benchmarks run the drivers in *quick* mode (sparse size grid, few
iterations): the deterministic simulator produces identical means at any
iteration count, so quick mode changes resolution, not conclusions.
Full-resolution runs: ``python -m repro.figures`` entry points in
``examples/regenerate_figures.py``.
"""

import pytest


@pytest.fixture(scope="session")
def report_sink():
    """Collects figure reports; prints them at the end of the session."""
    reports = []
    yield reports
    if reports:
        print("\n" + "\n\n".join(reports))


@pytest.fixture(scope="session")
def bench_iters():
    """Iterations per benchmark point (deterministic: the mean is exact).

    A fixture rather than a module constant: under the project's
    ``--import-mode=importlib`` a test module cannot ``import conftest``.
    """
    return 5
