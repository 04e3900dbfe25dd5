"""Contended resources: FIFO locks, counted resources, and stores.

These primitives are how the simulator models *contention*: a VCI's
command queue is a :class:`Lock`, the wire of a shared link is a
:class:`Resource`, and mailbox-style queues are :class:`Store` objects.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List

from .core import PENDING, Environment, Event, SimulationError

__all__ = ["Request", "Resource", "Lock", "Store"]


class Request(Event):
    """A pending claim on a :class:`Resource`; yield it to wait for grant."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        env = resource.env
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.resource = resource
        resource._do_request(self)


class Resource:
    """A resource with ``capacity`` concurrent slots and a FIFO wait queue.

    Usage from a process::

        req = resource.request()
        yield req
        ...  # critical section
        resource.release(req)
    """

    __slots__ = ("env", "capacity", "name", "_users", "_waiting")

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._users: List[Request] = []
        self._waiting: Deque[Request] = deque()

    # -- introspection -------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    # -- protocol --------------------------------------------------------------
    def request(self) -> Request:
        """Claim a slot; the returned event fires when granted."""
        return Request(self)

    def _do_request(self, req: Request) -> None:
        if len(self._users) < self.capacity:
            self._grant(req)
        else:
            self._waiting.append(req)

    def _grant(self, req: Request) -> None:
        self._users.append(req)
        req._value = req  # the request is pending: trigger it directly
        self.env.schedule(req)

    def release(self, req: Request) -> None:
        """Release a previously granted slot and wake the next waiter.

        Nothing observes a release, so it schedules no event of its own;
        only the grant to the next waiter (if any) is scheduled.
        """
        try:
            self._users.remove(req)
        except ValueError:
            raise SimulationError(
                f"release of {req!r} which does not hold {self.name or self!r}"
            ) from None
        if self._waiting and len(self._users) < self.capacity:
            self._grant(self._waiting.popleft())

    def __repr__(self) -> str:  # pragma: no cover - debug repr
        return (
            f"<Resource {self.name!r} {self.count}/{self.capacity} "
            f"queued={self.queue_length}>"
        )


class Lock(Resource):
    """A capacity-1 resource: a mutex with FIFO handoff."""

    __slots__ = ()

    def __init__(self, env: Environment, name: str = ""):
        super().__init__(env, capacity=1, name=name)

    @property
    def locked(self) -> bool:
        return self.count > 0


class Store:
    """An unbounded FIFO channel of Python objects between processes.

    ``put`` never blocks; ``get`` returns an event that fires when an item
    is available.  Items are handed to getters in FIFO order.
    """

    __slots__ = ("env", "name", "_items", "_getters")

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    @property
    def size(self) -> int:
        """Number of items currently buffered."""
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit ``item``, waking the oldest waiting getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event that fires with the next available item."""
        ev = Event(self.env)
        if self._items:
            ev._value = self._items.popleft()
            self.env.schedule(ev)
        else:
            self._getters.append(ev)
        return ev

    def peek_all(self) -> List[Any]:
        """Snapshot of buffered items (for inspection/tests)."""
        return list(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debug repr
        return f"<Store {self.name!r} items={len(self._items)} waiting={len(self._getters)}>"
