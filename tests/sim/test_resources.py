"""Unit tests for resources, locks, and stores."""

import pytest

from repro.sim import Environment, Lock, Resource, SimulationError, Store


def test_lock_mutual_exclusion_and_fifo():
    env = Environment()
    lock = Lock(env, name="L")
    order = []

    def proc(env, tag):
        req = lock.request()
        yield req
        order.append((tag, "in", env.now))
        yield env.timeout(1.0)
        order.append((tag, "out", env.now))
        lock.release(req)

    for i in range(3):
        env.process(proc(env, i))
    env.run()
    # Strictly serialized, FIFO grant order.
    assert order == [
        (0, "in", 0.0),
        (0, "out", 1.0),
        (1, "in", 1.0),
        (1, "out", 2.0),
        (2, "in", 2.0),
        (2, "out", 3.0),
    ]


def test_resource_capacity_allows_concurrency():
    env = Environment()
    res = Resource(env, capacity=2)
    finish_times = []

    def proc(env):
        req = res.request()
        yield req
        yield env.timeout(1.0)
        res.release(req)
        finish_times.append(env.now)

    for _ in range(4):
        env.process(proc(env))
    env.run()
    # Two batches of two.
    assert finish_times == [1.0, 1.0, 2.0, 2.0]


def test_release_without_hold_raises():
    env = Environment()
    lock = Lock(env)

    def proc(env):
        req = lock.request()
        yield req
        lock.release(req)
        with pytest.raises(SimulationError):
            lock.release(req)

    env.process(proc(env))
    env.run()


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_store_put_then_get():
    env = Environment()
    store = Store(env)
    store.put("a")
    store.put("b")

    def getter(env):
        x = yield store.get()
        y = yield store.get()
        return (x, y)

    p = env.process(getter(env))
    env.run()
    assert p.value == ("a", "b")


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)

    def getter(env):
        item = yield store.get()
        return (item, env.now)

    def putter(env):
        yield env.timeout(3.0)
        store.put("late")

    p = env.process(getter(env))
    env.process(putter(env))
    env.run()
    assert p.value == ("late", 3.0)


def test_store_fifo_getters():
    env = Environment()
    store = Store(env)
    results = {}

    def getter(env, tag):
        item = yield store.get()
        results[tag] = item

    env.process(getter(env, "first"))
    env.process(getter(env, "second"))

    def putter(env):
        yield env.timeout(1.0)
        store.put(1)
        store.put(2)

    env.process(putter(env))
    env.run()
    assert results == {"first": 1, "second": 2}


def test_queue_length_visible_during_contention():
    env = Environment()
    lock = Lock(env)
    observed = []

    def holder(env):
        req = lock.request()
        yield req
        yield env.timeout(5.0)
        lock.release(req)

    def waiter(env):
        req = lock.request()
        yield req
        lock.release(req)

    def observer(env):
        yield env.timeout(1.0)
        observed.append(lock.queue_length)
        observed.append(lock.count)

    env.process(holder(env))
    env.process(waiter(env))
    env.process(observer(env))
    env.run()
    assert observed == [1, 1]
