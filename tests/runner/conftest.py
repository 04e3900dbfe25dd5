"""Shared runner-test fixtures."""

import pytest

from repro.runner import planner


@pytest.fixture()
def two_cpus(monkeypatch):
    """Let the planner see two usable CPUs, so ``jobs=2`` runs a
    2-worker pool even under a one-CPU affinity mask (given at least
    two points per worker)."""
    monkeypatch.setattr(planner, "available_cpus", lambda: 2)
