"""Unit tests for the discrete-event engine core."""

import pytest

from repro.sim import (
    Environment,
    Event,
    SimulationError,
    Timeout,
)


def test_initial_time_defaults_to_zero():
    assert Environment().now == 0.0


def test_initial_time_can_be_set():
    assert Environment(5.0).now == 5.0


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(2.5)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 2.5
    assert env.now == 2.5


def test_timeout_value_is_delivered():
    env = Environment()

    def proc(env):
        got = yield env.timeout(1.0, value="payload")
        return got

    p = env.process(proc(env))
    env.run()
    assert p.value == "payload"


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_zero_timeout_allowed():
    env = Environment()

    def proc(env):
        yield env.timeout(0.0)
        return "done"

    p = env.process(proc(env))
    env.run()
    assert p.value == "done"
    assert env.now == 0.0


def test_events_at_same_time_fifo_order():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for i in range(5):
        env.process(proc(env, i))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_event_succeed_delivers_value():
    env = Environment()
    ev = env.event()

    def waiter(env):
        val = yield ev
        return val

    def firer(env):
        yield env.timeout(1.0)
        ev.succeed(42)

    p = env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert p.value == 42


def test_event_double_trigger_raises():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_run_until_time_stops_clock():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(1.0)

    env.process(proc(env))
    env.run(until=10.0)
    assert env.now == 10.0


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(3.0)
        return "finished"

    p = env.process(proc(env))
    result = env.run(until=p)
    assert result == "finished"


def test_run_until_past_time_raises():
    env = Environment(10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_run_until_event_deadlock_detected():
    env = Environment()
    ev = env.event()  # never triggered
    with pytest.raises(SimulationError, match="deadlock"):
        env.run(until=ev)


def test_run_until_already_processed_event():
    env = Environment()
    ev = env.event()
    ev.succeed("early")
    env.run()
    assert env.run(until=ev) == "early"


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(4.0)
    assert env.peek() == 4.0


def test_peek_empty_is_inf():
    assert Environment().peek() == float("inf")


def test_step_on_empty_raises():
    with pytest.raises(SimulationError):
        Environment().step()


def test_triggered_and_processed_lifecycle():
    env = Environment()
    ev = env.event()
    assert not ev.triggered and not ev.processed
    ev.succeed(7)
    assert ev.triggered and not ev.processed
    env.run()
    assert ev.triggered and ev.processed
    assert ev.value == 7


def test_timeout_is_event_subclass():
    env = Environment()
    assert isinstance(env.timeout(1.0), Event)
    assert isinstance(env.timeout(1.0), Timeout)
