"""Request objects: the completion handles of all nonblocking operations.

Two base classes:

* :class:`Request` — single-shot completion (``wait``/``test``).
* :class:`PersistentRequest` — the ``*_init``/``Start``/``Wait`` state
  machine of persistent MPI operations (INACTIVE → ACTIVE → INACTIVE),
  reusable across benchmark iterations exactly like the paper's Fig. 3
  template requires.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from ..sim import Environment, Event
from .errors import RequestStateError

__all__ = ["Request", "PersistentRequest"]

_request_ids = itertools.count(1)


class Request:
    """A one-shot completion handle."""

    def __init__(self, env: Environment):
        self.env = env
        self.rid = next(_request_ids)
        self._done: Event = env.event()

    # -- completion (runtime side) ------------------------------------------
    def complete(self, value: Any = None) -> None:
        """Mark complete; idempotence is an error (each op completes once)."""
        self._done.succeed(value)

    # -- user side ---------------------------------------------------------------
    def test(self) -> bool:
        """Nonblocking completion check."""
        return self._done.triggered

    @property
    def value(self) -> Any:
        """Completion value (e.g. a Status); only valid once complete."""
        return self._done.value

    def wait(self):
        """Generator: block the calling process until completion."""
        result = yield self._done
        return result


class PersistentRequest:
    """Base for persistent operations (``MPI_Send_init`` family).

    Subclasses implement :meth:`_start` (a generator performing the
    operation's initiation work in the caller's timeline) and may
    override :meth:`_finish_wait` for completion-side bookkeeping.
    """

    def __init__(self, env: Environment):
        self.env = env
        self.rid = next(_request_ids)
        self.active = False
        self.started_count = 0
        self._done: Optional[Event] = None

    # -- to be provided by subclasses -------------------------------------------
    def _start(self):
        """Generator: initiate one activation (caller pays the costs)."""
        raise NotImplementedError
        yield  # pragma: no cover

    def _finish_wait(self):
        """Generator: optional completion-side work inside ``wait``."""
        return
        yield  # pragma: no cover

    # -- runtime side --------------------------------------------------------------
    def complete(self, value: Any = None) -> None:
        """Complete the current activation."""
        if self._done is None:
            raise RequestStateError(f"request {self.rid}: complete() while inactive")
        if not self._done.triggered:
            self._done.succeed(value)

    @property
    def completion_event(self) -> Event:
        if self._done is None:
            raise RequestStateError(f"request {self.rid}: inactive")
        return self._done

    # -- user side ---------------------------------------------------------------------
    def start(self):
        """Generator: activate the request (``MPI_Start``)."""
        if self.active:
            raise RequestStateError(
                f"request {self.rid}: start() while already active"
            )
        self.active = True
        self.started_count += 1
        self._done = self.env.event()
        yield from self._start()

    def test(self) -> bool:
        """Nonblocking completion check of the current activation."""
        if not self.active:
            raise RequestStateError(f"request {self.rid}: test() while inactive")
        return self._done.triggered

    def wait(self):
        """Generator: wait for the current activation; deactivates."""
        if not self.active:
            raise RequestStateError(f"request {self.rid}: wait() while inactive")
        result = yield self._done
        yield from self._finish_wait()
        self.active = False
        return result

    def free(self) -> None:
        """Release the request (``MPI_Request_free``)."""
        if self.active:
            raise RequestStateError(f"request {self.rid}: free() while active")
        self._done = None
