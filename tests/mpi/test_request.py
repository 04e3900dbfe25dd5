"""Unit tests for request state machines."""

import pytest

from repro.mpi import RequestStateError
from repro.mpi.request import PersistentRequest, Request
from repro.sim import Environment


class _FakePersistent(PersistentRequest):
    """Persistent request that completes after a fixed delay."""

    def __init__(self, env, delay=1.0):
        super().__init__(env)
        self.delay = delay
        self.starts = 0

    def _start(self):
        self.starts += 1
        yield self.env.timeout(0.0)
        self.env.process(self._complete_later())

    def _complete_later(self):
        yield self.env.timeout(self.delay)
        self.complete(f"done-{self.starts}")


class TestRequest:
    def test_wait_returns_completion_value(self):
        env = Environment()
        req = Request(env)

        def proc(env):
            result = yield from req.wait()
            return result, env.now

        p = env.process(proc(env))

        def completer(env):
            yield env.timeout(2.0)
            req.complete("payload")

        env.process(completer(env))
        env.run()
        assert p.value == ("payload", 2.0)

    def test_test_before_and_after(self):
        env = Environment()
        req = Request(env)
        assert not req.test()
        req.complete()
        assert req.test()

    def test_unique_request_ids(self):
        env = Environment()
        assert Request(env).rid != Request(env).rid

    def test_value_after_completion(self):
        env = Environment()
        req = Request(env)
        req.complete(41)
        assert req.value == 41


class TestPersistentRequest:
    def test_lifecycle_inactive_active_inactive(self):
        env = Environment()
        req = _FakePersistent(env)
        assert not req.active

        def proc(env):
            yield from req.start()
            assert req.active
            result = yield from req.wait()
            assert not req.active
            return result

        p = env.process(proc(env))
        env.run()
        assert p.value == "done-1"

    def test_reuse_across_iterations(self):
        env = Environment()
        req = _FakePersistent(env)

        def proc(env):
            results = []
            for _ in range(3):
                yield from req.start()
                results.append((yield from req.wait()))
            return results

        p = env.process(proc(env))
        env.run()
        assert p.value == ["done-1", "done-2", "done-3"]
        assert req.started_count == 3

    def test_double_start_rejected(self):
        env = Environment()
        req = _FakePersistent(env)

        def proc(env):
            yield from req.start()
            with pytest.raises(RequestStateError):
                yield from req.start()
            yield from req.wait()

        env.process(proc(env))
        env.run()

    def test_wait_while_inactive_rejected(self):
        env = Environment()
        req = _FakePersistent(env)

        def proc(env):
            with pytest.raises(RequestStateError):
                yield from req.wait()
            yield env.timeout(0.0)

        env.process(proc(env))
        env.run()

    def test_test_while_inactive_rejected(self):
        env = Environment()
        req = _FakePersistent(env)
        with pytest.raises(RequestStateError):
            req.test()

    def test_complete_while_inactive_rejected(self):
        env = Environment()
        req = _FakePersistent(env)
        with pytest.raises(RequestStateError):
            req.complete()

    def test_free_while_active_rejected(self):
        env = Environment()
        req = _FakePersistent(env)

        def proc(env):
            yield from req.start()
            with pytest.raises(RequestStateError):
                req.free()
            yield from req.wait()
            req.free()  # fine once inactive

        env.process(proc(env))
        env.run()

    def test_completion_event_requires_activation(self):
        env = Environment()
        req = _FakePersistent(env)
        with pytest.raises(RequestStateError):
            _ = req.completion_event
