"""Spans and counters recorded around the program's public callables.

The benchmark never edits the program to trace it.  A :class:`Tracer`
replaces named attributes of classes and modules with wrappers that
record a span (name, start, end, parent) or bump a counter, and puts
the originals back when it is closed.  Spans stay in memory until
:meth:`Tracer.dump`.

Wrapping works only where the program looks the name up at call time
(``store.append_columns``, ``from ..bench.harness import run_benchmark``
inside a function).  A caller that bound the callable earlier bypasses
the wrapper, so every traced run is checked for at least one call at
each boundary its workload crosses.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: One finished span: (id, name, start, end, parent id, thread id).
Span = Tuple[int, str, float, float, Optional[int], int]


class Tracer:
    """In-memory spans and counters for one traced unit of a workload."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as a span of the calling thread."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent, threading.get_ident())
            )

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> Callable:
        if isinstance(owner, type):
            if attr not in owner.__dict__:
                raise AttributeError(
                    f"{owner.__qualname__} defines no {attr!r} to trace"
                )
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper))
        return original

    def wrap_span(self, owner: Any, attr: str, name: str) -> None:
        """Record every call of ``owner.attr`` as a span ``name``."""
        original = None

        def wrapper(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        original = self._patch(owner, attr, wrapper)

    def wrap_count(
        self,
        owner: Any,
        attr: str,
        tally: Callable[[Counter, tuple], None],
    ) -> None:
        """Call ``tally(counts, args)`` before every call of ``owner.attr``
        (no span: for boundaries crossed millions of times)."""
        counts = self.counts
        original = None

        def wrapper(*args, **kwargs):
            tally(counts, args)
            return original(*args, **kwargs)

        original = self._patch(owner, attr, wrapper)

    def close(self) -> None:
        """Put every wrapped attribute back.  Idempotent."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the durations of its child spans."""
        self_s = {span[0]: span[3] - span[2] for span in self.spans}
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None and parent in self_s:
                self_s[parent] -= end - start
        return self_s

    def durations(self, name: str) -> List[float]:
        return [end - start for _, n, start, end, _, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        return math.fsum(self.durations(name))

    def self_total(self, name: str) -> float:
        self_s = self.self_times()
        return math.fsum(
            self_s[span[0]] for span in self.spans if span[1] == name
        )

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[1] == name)

    def dump(self, path: Path) -> None:
        """Write spans (with self time) and counters as JSON."""
        self_s = self.self_times()
        origin = min((span[2] for span in self.spans), default=0.0)
        records = [
            {
                "id": span_id,
                "name": name,
                "start_s": start - origin,
                "end_s": end - origin,
                "self_s": self_s[span_id],
                "parent": parent,
                "thread": thread,
                "workload": self.workload,
            }
            for span_id, name, start, end, parent, thread in sorted(
                self.spans, key=lambda span: span[2]
            )
        ]
        path.write_text(
            json.dumps(
                {
                    "workload": self.workload,
                    "counts": dict(self.counts),
                    "spans": records,
                },
                indent=1,
            )
            + "\n"
        )
