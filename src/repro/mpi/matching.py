"""The tag-matching engine: posted-receive and unexpected-message queues.

MPICH keeps one pair of matching queues per VCI; the match key is
``(context_id, source, tag)`` where receives may use wildcards.  Order
matters: MPI's non-overtaking rule requires that, among messages that
could match the same receive, the earliest posted/arrived wins — both
queues here are strictly FIFO.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Optional

from .status import ANY_SOURCE, ANY_TAG

__all__ = ["MatchKey", "PostedRecv", "UnexpectedMsg", "MatchingEngine"]


@dataclass(frozen=True)
class MatchKey:
    """Envelope of a message or receive used for matching."""

    context_id: int
    source: int
    tag: int

    def matches(self, incoming: "MatchKey") -> bool:
        """Does a posted receive with this key accept ``incoming``?

        ``self`` is the receive side (may hold wildcards); ``incoming``
        is the message envelope (never wildcarded).
        """
        if self.context_id != incoming.context_id:
            return False
        if self.source != ANY_SOURCE and self.source != incoming.source:
            return False
        if self.tag != ANY_TAG and self.tag != incoming.tag:
            return False
        return True


@dataclass
class PostedRecv:
    """A receive sitting in the posted queue."""

    key: MatchKey
    request: Any  # RecvRequest-like; not typed to avoid an import cycle


@dataclass
class UnexpectedMsg:
    """A message (or rendezvous RTS) that arrived before its receive."""

    key: MatchKey
    packet: Any
    fields: dict = field(default_factory=dict)


class MatchingEngine:
    """FIFO posted/unexpected queues for one VCI of one rank."""

    def __init__(self) -> None:
        self._posted: Deque[PostedRecv] = deque()
        self._unexpected: Deque[UnexpectedMsg] = deque()
        self.matched_posted = 0
        self.matched_unexpected = 0

    # -- introspection ----------------------------------------------------------
    @property
    def posted_count(self) -> int:
        return len(self._posted)

    @property
    def unexpected_count(self) -> int:
        return len(self._unexpected)

    # -- receive side ---------------------------------------------------------------
    def post_recv(self, entry: PostedRecv) -> Optional[UnexpectedMsg]:
        """Try to satisfy ``entry`` from the unexpected queue.

        Returns the matching unexpected message (removing it) or, if none
        matches, appends the receive to the posted queue and returns
        ``None``.
        """
        for i, msg in enumerate(self._unexpected):
            if entry.key.matches(msg.key):
                del self._unexpected[i]
                self.matched_unexpected += 1
                return msg
        self._posted.append(entry)
        return None

    def cancel_recv(self, request: Any) -> bool:
        """Remove a posted receive; True if found."""
        for i, entry in enumerate(self._posted):
            if entry.request is request:
                del self._posted[i]
                return True
        return False

    # -- arrival side ------------------------------------------------------------------
    def match_arrival(self, key: MatchKey) -> Optional[PostedRecv]:
        """Try to satisfy an incoming envelope from the posted queue.

        Returns the matching posted receive (removing it) or ``None``.
        The caller is responsible for queueing the message as unexpected
        when ``None`` is returned (it owns the packet payload).
        """
        for i, entry in enumerate(self._posted):
            if entry.key.matches(key):
                del self._posted[i]
                self.matched_posted += 1
                return entry
        return None

    def add_unexpected(self, msg: UnexpectedMsg) -> None:
        self._unexpected.append(msg)

    def __repr__(self) -> str:  # pragma: no cover - debug repr
        return (
            f"<MatchingEngine posted={len(self._posted)} "
            f"unexpected={len(self._unexpected)}>"
        )
