"""Unit tests for barriers and latches."""

import pytest

from repro.sim import (
    CountdownLatch,
    Environment,
    SimBarrier,
    SimulationError,
)


def test_barrier_releases_all_when_last_arrives():
    env = Environment()
    barrier = SimBarrier(env, 3)
    times = []

    def proc(env, delay):
        yield env.timeout(delay)
        yield barrier.wait()
        times.append(env.now)

    for d in (1.0, 2.0, 5.0):
        env.process(proc(env, d))
    env.run()
    assert times == [5.0, 5.0, 5.0]


def test_barrier_is_cyclic():
    env = Environment()
    barrier = SimBarrier(env, 2)
    generations = []

    def proc(env):
        for _ in range(3):
            gen = yield barrier.wait()
            generations.append(gen)
            yield env.timeout(1.0)

    env.process(proc(env))
    env.process(proc(env))
    env.run()
    assert generations == [0, 0, 1, 1, 2, 2]
    assert barrier.generation == 3


def test_single_party_barrier_is_noop():
    env = Environment()
    barrier = SimBarrier(env, 1)

    def proc(env):
        yield barrier.wait()
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 0.0


def test_barrier_invalid_parties():
    with pytest.raises(ValueError):
        SimBarrier(Environment(), 0)


def test_latch_fires_at_zero():
    env = Environment()
    latch = CountdownLatch(env, 3)
    fired_at = []

    def waiter(env):
        yield latch.done
        fired_at.append(env.now)

    def worker(env, delay):
        yield env.timeout(delay)
        latch.count_down()

    env.process(waiter(env))
    for d in (1.0, 2.0, 3.0):
        env.process(worker(env, d))
    env.run()
    assert fired_at == [3.0]


def test_latch_count_down_returns_true_once():
    env = Environment()
    latch = CountdownLatch(env, 2)
    assert latch.count_down() is False
    assert latch.count_down() is True


def test_latch_zero_initial_count_fires_immediately():
    env = Environment()
    latch = CountdownLatch(env, 0)
    assert latch.done.triggered


def test_latch_overdecrement_raises():
    env = Environment()
    latch = CountdownLatch(env, 1)
    latch.count_down()
    with pytest.raises(SimulationError):
        latch.count_down()


def test_latch_bulk_decrement():
    env = Environment()
    latch = CountdownLatch(env, 5)
    assert latch.count_down(4) is False
    assert latch.count == 1
    assert latch.count_down() is True


def test_latch_bulk_overdecrement_raises():
    env = Environment()
    latch = CountdownLatch(env, 2)
    with pytest.raises(SimulationError):
        latch.count_down(3)
