"""Unit tests for generator-based processes."""

import pytest

from repro.sim import Environment, SimulationError


def test_process_return_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        return 99

    p = env.process(proc(env))
    env.run()
    assert p.value == 99


def test_process_is_alive_flag():
    env = Environment()

    def proc(env):
        yield env.timeout(5.0)

    p = env.process(proc(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_process_join_by_yield():
    env = Environment()

    def child(env):
        yield env.timeout(2.0)
        return "child-result"

    def parent(env):
        result = yield env.process(child(env))
        return f"got {result}"

    p = env.process(parent(env))
    env.run()
    assert p.value == "got child-result"


def test_nested_process_chain():
    env = Environment()

    def leaf(env):
        yield env.timeout(1.0)
        return 1

    def mid(env):
        v = yield env.process(leaf(env))
        return v + 1

    def root(env):
        v = yield env.process(mid(env))
        return v + 1

    p = env.process(root(env))
    env.run()
    assert p.value == 3


def test_yield_already_processed_event_continues_immediately():
    env = Environment()
    ev = env.event()
    ev.succeed("old")
    env.run()

    def proc(env):
        v = yield ev
        return v

    p = env.process(proc(env))
    env.run()
    assert p.value == "old"
    assert env.now == 0.0


def test_yield_non_event_fails_process():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_process_exception_propagates():
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise KeyError("oops")

    env.process(bad(env))
    with pytest.raises(KeyError):
        env.run()


def test_process_exception_caught_by_waiter():
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise KeyError("oops")

    def parent(env):
        try:
            yield env.process(bad(env))
        except KeyError:
            return "handled"

    p = env.process(parent(env))
    env.run()
    assert p.value == "handled"


def test_process_name_default_and_custom():
    env = Environment()

    def named(env):
        yield env.timeout(0.0)

    p = env.process(named(env))
    assert "process" in repr(p) or "named" in repr(p)


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)
