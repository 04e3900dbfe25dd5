"""Tests for the shared-counter contention model."""

import pytest

from repro.mpi.contention import ContendedAtomic
from repro.net import MELUXINA
from repro.sim import Environment


def run_team(n_threads, updates_each=1, bounce=None, stagger=0.0):
    """Run a burst of contended updates; return (total_time, per-thread)."""
    env = Environment()
    atomic = ContendedAtomic(env, MELUXINA, name="t", bounce=bounce)
    finish = []

    def worker(env, tid):
        if stagger:
            yield env.timeout(tid * stagger)
        for _ in range(updates_each):
            yield from atomic.update()
        finish.append(env.now)

    for tid in range(n_threads):
        env.process(worker(env, tid))
    env.run()
    return max(finish), atomic


def test_single_thread_pays_base_cost():
    total, atomic = run_team(1)
    assert total == pytest.approx(MELUXINA.atomic_overhead)
    assert atomic.updates == 1


def test_updates_serialize():
    total_1, _ = run_team(1)
    total_4, _ = run_team(4)
    assert total_4 > 3 * total_1


def test_contention_superlinear_in_threads():
    """32 threads pay much more than 8x the 4-thread total."""
    total_4, _ = run_team(4)
    total_32, _ = run_team(32)
    assert total_32 > 10 * total_4


def test_burst_peak_applies_to_first_update_too():
    """In a simultaneous burst every update pays the N-way fight."""
    total, atomic = run_team(8)
    # Total 8 serialized updates at ~7-contender cost each.
    expected_each = MELUXINA.atomic_overhead + 7 * MELUXINA.atomic_bounce_coeff
    assert total == pytest.approx(8 * expected_each)
    assert atomic.updates == 8


def test_custom_bounce_coefficient():
    cheap, _ = run_team(8, bounce=0.0)
    dear, _ = run_team(8, bounce=1e-6)
    assert dear > cheap


def test_isolated_sequential_updates_stay_cheap():
    """Updates spaced beyond the window see no contention."""
    window = MELUXINA.vci_agent_window
    total, _ = run_team(4, stagger=window * 10)
    # Each paid the uncontended cost.
    assert total == pytest.approx(
        3 * window * 10 + MELUXINA.atomic_overhead, rel=1e-6
    )


def test_extra_cost_added_in_critical_section():
    env = Environment()
    atomic = ContendedAtomic(env, MELUXINA)

    def worker(env):
        yield from atomic.update(extra_cost=5e-6)
        return env.now

    p = env.process(worker(env))
    env.run()
    assert p.value == pytest.approx(MELUXINA.atomic_overhead + 5e-6)


def test_update_counter():
    _, atomic = run_team(3, updates_each=5)
    assert atomic.updates == 15
