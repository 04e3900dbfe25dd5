"""Steady-state detection: a canonical snapshot of a running simulation.

The benchmark harness repeats one iteration of the Fig. 3 template many
times (the paper: 150).  With a deterministic compute model the
simulator draws no random numbers inside the timed loop, so once the
warm-up has set up the persistent requests every iteration starts from
the same state and replays the same events.  :func:`snapshot` captures
that state at an iteration boundary in relative time, and
:func:`same_state` decides whether two boundaries are equal, so the
harness can stop simulating and replicate the last iteration.

What a snapshot holds
---------------------
A breadth-first walk from three roots: the event heap in processing
order as (Δt, priority, event), the running process (the sender's
master thread) and the world.  It follows every reference, including
each live process's generator stack (the code position of every frame
of its ``yield from`` chain, and its locals) and each queued callback
(its code and what it closes over).  Objects are numbered in the order
the walk first reaches them, and so are identifiers drawn from
process-wide counters (request ids, flush sequence numbers, process
serials), so two boundaries compare equal when their object graphs are
isomorphic.

Every attribute of every object reached is classified in
:data:`FIELDS`.  ``STATE`` is compared.  ``SKIP`` is a counter or stamp
the simulation never reads (``tx_count``, ``started_count``,
``Packet.uid``, ...) or a constant fixed at construction (names,
``params``, ``cvars``, ``env``).  ``RID``/``SEQ``/``SERIAL`` is an
identifier, compared after renumbering.  The remaining kinds have their
own walk: the contention window's agents are compared by their age
``t - now``, dropping agents older than ``vci_agent_window`` (the next
grant expires them before it counts); grow-only tables of the world and
the ranks by their size; an idle VCI (free lock, empty queues, both
loops parked at their ``get``) and an idle matching engine collapse to
a token.  A processed event is walked as a value (its outcome), and
configuration, match envelopes and statuses compare with ``==``.  A type,
an attribute or a callback that is not classified makes :func:`snapshot`
return ``None`` and the point simulates in full; so does anything that
draws random numbers (an RNG stream exists), carries payloads
(``verify``) or traces.

Proof obligation
----------------
Replication is exact up to rounding of the absolute clock when the
following hold; every change to ``sim/``, ``net/``, ``mpi/``,
``threads/`` or the bench approaches must keep them true (the
completeness test in ``tests/bench/test_steady.py`` checks that every
attribute it meets is classified):

1. the future of a simulation is a function of the state this walk
   compares: nothing reads ``env.now`` except to schedule, to stamp a
   ``SKIP`` field or a contention agent, or to compare an agent's age;
   no ``SKIP`` attribute is read by the simulation except as the
   constant it is;
2. identifiers are only compared for equality, and fresh ones are
   distinct from every live one;
3. a processed event is read only through its value and outcome;
   a VCI and a matching engine are referenced only from their NIC or
   rank (and a VCI from its own loops, whose ``pkt`` and ``cost``
   locals are dead while parked at ``get``); the grow-only tables
   (context, sub-communicator and window tables, handler tables) only
   gain entries;
4. a generator suspended inside a ``for`` loop iterates a sequence of
   distinct items, so its loop variable, a compared local, fixes the
   hidden iterator's position;
5. the compute model holds no state and draws no random numbers, so an
   iteration's compute removal repeats.

Δt tolerance
------------
Two boundaries read the same relative schedule at different absolute
clock values, so each Δt = t - now carries the rounding of the
additions that produced ``t`` and ``now``: at most half an ulp of the
clock per addition along the chain of events that led to it.
:func:`same_state` accepts |Δt₁ - Δt₂| ≤ ``CLOCK_ULPS`` · ulp(now) with
``CLOCK_ULPS = 2**16``: an iteration of the figure grids is at most a
few thousand events deep, and at ``now`` ≈ 1 ms the bound is 1.4e-14 s,
five orders of magnitude below the shortest cost the model charges
(``wire_gap``, nanoseconds).
"""

from __future__ import annotations

import math
from collections import deque
from types import FunctionType, GeneratorType, MethodType
from typing import Any, Callable, Dict, List, Mapping, Optional

from ..mpi.cvars import Cvars
from ..mpi.matching import MatchingEngine, MatchKey, PostedRecv, UnexpectedMsg
from ..mpi.communicator import Comm
from ..mpi.contention import ContendedAtomic
from ..mpi.p2p import (
    PersistentRecvRequest,
    PersistentSendRequest,
    RecvRequest,
    SendRequest,
)
from ..mpi.partitioned import PartitionedRecvRequest, PartitionedSendRequest
from ..mpi.partitioned_am import AmPartitionedSendRequest
from ..mpi.request import PersistentRequest, Request as MpiRequest
from ..mpi.rma import Window, _LockManager
from ..mpi.runtime import RankRuntime
from ..mpi.status import Status
from ..mpi.world import MPIWorld
from ..net.fabric import Fabric
from ..net.nic import ContentionWindow, Nic, Vci
from ..net.packets import Packet
from ..net.params import SystemParams
from ..sim import (
    CountdownLatch,
    Environment,
    Event,
    Process,
    Request,
    Resource,
    RngRegistry,
    SimBarrier,
    Store,
    Timeout,
)
from ..sim.core import PENDING
from ..threads import FixedDelayModel, NoDelayModel, ThreadTeam
from .approaches import Approach, ApproachConfig

__all__ = ["CLOCK_ULPS", "FIELDS", "Snapshot", "snapshot", "same_state"]

#: Attribute kinds (see the module docstring).
STATE = "state"
SKIP = "skip"
#: A scalar or a tuple of scalars: an object's value fields are compared
#: together, as one tuple.
VALUE = "value"
RID = "rid"
SEQ = "seq"
SERIAL = "serial"
#: Kinds with their own walk: a dict keyed by request ids, the contention
#: window's agents, a packet header, a process's generator stack.
RID_KEYS = "rid-keys"
SEQ_KEYS = "seq-keys"
AGENTS = "agents"
HEADER = "header"
FRAMES = "frames"
#: A grow-only table of the world or a rank, compared by its size.
GROW = "grow"
#: A NIC's VCIs and a rank's matching engines: idle ones collapse to a
#: token.
VCIS = "vcis"
ENGINES = "engines"
#: A deque, compared as the list of its items.
QUEUE = "queue"
#: An event's callback list.
CALLBACKS_LIST = "callbacks"

#: Δt tolerance in ulps of the clock (module docstring, "Δt tolerance").
CLOCK_ULPS = 2 ** 16

#: Packet header fields that carry identifiers; every other field is
#: compared by value.
_HEADER_IDS = {"sreq": RID, "rreq": RID, "seq": SEQ}


#: Classification of every attribute of every class a benchmark
#: simulation reaches.  Subclasses inherit their bases' entries.
FIELDS: Dict[type, Dict[str, str]] = {
    # -- sim ----------------------------------------------------------------
    Environment: dict(
        # The heap and the running process are walked as roots; the
        # clock is the reference and the sequence counter only orders.
        _now=SKIP, _queue=SKIP, _eid=SKIP, active_process=SKIP,
    ),
    Event: dict(
        env=SKIP, callbacks=CALLBACKS_LIST, _value=STATE, _ok=VALUE,
        _defused=VALUE,
    ),
    # The delay is already in the heap entry's time.
    Timeout: dict(delay=SKIP),
    Process: dict(
        _generator=FRAMES, _target=STATE, name=SKIP, serial=SERIAL,
    ),
    Request: dict(resource=STATE),
    Resource: dict(
        env=SKIP, capacity=SKIP, name=SKIP, _users=STATE, _waiting=QUEUE,
    ),
    Store: dict(env=SKIP, name=SKIP, _items=QUEUE, _getters=QUEUE),
    # The generation is the waiters' event value; ThreadTeam discards it.
    SimBarrier: dict(
        env=SKIP, parties=SKIP, name=SKIP, generation=SKIP,
        _arrived=VALUE, _event=STATE,
    ),
    CountdownLatch: dict(env=SKIP, name=SKIP, _count=VALUE, done=STATE),
    # Holding a generator means some consumer drew a random number.
    RngRegistry: dict(seed=SKIP, _streams=STATE),
    # -- net ----------------------------------------------------------------
    Fabric: dict(
        env=SKIP, params=SKIP, tracer=SKIP, _nics=STATE, _wires=STATE,
        packets_sent=SKIP, bytes_sent=SKIP,
    ),
    Nic: dict(env=SKIP, rank=SKIP, params=SKIP, tracer=SKIP, vcis=VCIS),
    Vci: dict(
        env=SKIP, rank=SKIP, index=SKIP, params=SKIP, tracer=SKIP,
        lock=STATE, tx_store=STATE, rx_store=STATE, _contention=STATE,
        # Wired once by Nic.attach_fabric / Nic.set_handler.
        _transmit=SKIP, _handler=SKIP,
        tx_count=SKIP, rx_count=SKIP,
    ),
    ContentionWindow: dict(
        env=SKIP, lock=STATE, window=SKIP, _agents=AGENTS,
        _episode_peak=VALUE,
    ),
    Packet: dict(
        kind=VALUE, src=VALUE, dst=VALUE, nbytes=VALUE, src_vci=VALUE,
        dst_vci=VALUE, header=HEADER, payload=STATE, uid=SKIP,
    ),
    # -- mpi ----------------------------------------------------------------
    MPIWorld: dict(
        env=SKIP, params=SKIP, cvars=SKIP, tracer=SKIP, rng=STATE,
        fabric=STATE, ranks=STATE, _world_group=VALUE, _comm_world=STATE,
        _next_ctx=VALUE, _ctx_table=GROW, _subcomm_table=GROW,
        _win_seq=STATE, _win_table=GROW, _win_key_table=GROW,
        _next_win=VALUE,
    ),
    RankRuntime: dict(
        world=SKIP, rank=SKIP, nic=STATE, env=SKIP, params=SKIP, cvars=SKIP,
        matching=ENGINES, _pending_sends=RID_KEYS,
        # register_*_handler refuses a duplicate op and nothing removes
        # one, so the size fixes the table.
        _pending_recvs=RID_KEYS, _ctrl_handlers=GROW, _am_handlers=GROW,
        part_requests_per_dest=STATE, _part_tag_next=STATE,
        tx_counters=SKIP, rx_counters=SKIP,
        _part_recv_registry=STATE, _part_pending_rts=STATE,
        _part_send_registry=RID_KEYS, rma_windows=STATE,
    ),
    MatchingEngine: dict(
        _posted=QUEUE, _unexpected=QUEUE,
        matched_posted=SKIP, matched_unexpected=SKIP,
    ),
    PostedRecv: dict(key=STATE, request=STATE),
    UnexpectedMsg: dict(key=STATE, packet=STATE, fields=STATE),
    Comm: dict(
        rt=STATE, context_id=VALUE, group=VALUE, vci=VALUE, _dup_seq=VALUE,
    ),
    MpiRequest: dict(env=SKIP, rid=RID, _done=STATE),
    SendRequest: dict(
        rt=STATE, context_id=VALUE, dest=VALUE, tag=VALUE, nbytes=VALUE,
        vci=VALUE, data=STATE, dst_vci=VALUE, offset=VALUE,
        _rdv_payload=STATE,
    ),
    RecvRequest: dict(
        rt=STATE, context_id=VALUE, source=VALUE, tag=VALUE, nbytes=VALUE,
        vci=VALUE, buffer=STATE,
    ),
    PersistentRequest: dict(
        env=SKIP, rid=RID, active=VALUE, started_count=SKIP, _done=STATE,
    ),
    PersistentSendRequest: dict(
        rt=STATE, context_id=VALUE, dest=VALUE, tag=VALUE, nbytes=VALUE,
        vci=VALUE, data=STATE, _rdv_payload=STATE,
    ),
    PersistentRecvRequest: dict(
        rt=STATE, context_id=VALUE, source=VALUE, tag=VALUE, nbytes=VALUE,
        vci=VALUE, buffer=STATE,
    ),
    PartitionedSendRequest: dict(
        rt=STATE, comm=STATE, dest=VALUE, tag=VALUE, partitions=VALUE,
        nbytes=VALUE, data=STATE, part_bytes=VALUE, tag_base=VALUE,
        n_msgs=VALUE, _cts_event=STATE, _latches=STATE,
        _early_ready=STATE, _completed_msgs=VALUE, _atomic=STATE,
    ),
    PartitionedRecvRequest: dict(
        rt=STATE, comm=STATE, source=VALUE, tag=VALUE, partitions=VALUE,
        nbytes=VALUE, buffer=STATE, mode=VALUE, n_msgs=VALUE,
        tag_base=VALUE, _sender_rid=RID, _n_send=VALUE, _rts_event=STATE,
        _cts_sent=VALUE, _msg_reqs=STATE, _completed_msgs=VALUE,
        _am_arrived=STATE, _atomic=STATE, _key=VALUE,
    ),
    AmPartitionedSendRequest: dict(
        rt=STATE, comm=STATE, dest=VALUE, tag=VALUE, partitions=VALUE,
        nbytes=VALUE, data=STATE, _latch=STATE, _banked_cts=VALUE,
        _atomic=STATE,
    ),
    ContendedAtomic: dict(
        env=SKIP, params=SKIP, name=SKIP, bounce=SKIP, _lock=STATE,
        _contention=STATE, updates=SKIP,
    ),
    Window: dict(
        comm=STATE, rt=STATE, env=SKIP, win_id=VALUE, nbytes=VALUE,
        buffer=STATE, vci=VALUE, _lock_epochs=STATE, _lock_grants=STATE,
        _flush_acks=SEQ_KEYS, _access_group=VALUE,
        _lock_mgr=STATE, _post_tokens=STATE, _post_waiters=STATE,
        _exposure_group=VALUE, _complete_tokens=VALUE,
        _complete_waiter=STATE, puts_received=SKIP,
    ),
    _LockManager: dict(holders=STATE, queue=STATE),
    # -- threads ------------------------------------------------------------
    ThreadTeam: dict(
        env=SKIP, n_threads=SKIP, barrier_cost=SKIP, _barrier=STATE,
        barrier_count=SKIP,
    ),
    NoDelayModel: dict(),
    FixedDelayModel: dict(gamma=SKIP),
    # -- bench --------------------------------------------------------------
    ApproachConfig: dict(total_bytes=SKIP, n_threads=SKIP, theta=SKIP),
    Approach: dict(
        world=SKIP, config=SKIP, env=SKIP, sender_rank=SKIP,
        receiver_rank=SKIP, tag=SKIP, win_key=SKIP, s_comm=STATE,
        r_comm=STATE, send_buffer=STATE, recv_buffer=STATE,
        # The approaches' own persistent handles.
        _s_comms=STATE, _r_comms=STATE, _s_reqs=STATE, _r_reqs=STATE,
        _sreq=STATE, _rreq=STATE, _s_wins=STATE, _r_wins=STATE,
        _s_token_comm=STATE, _r_token_comm=STATE,
    ),
}

#: Immutable values compared with ``==``: configuration, match
#: envelopes, completion statuses and the pending sentinel.
_VALUES = frozenset({SystemParams, Cvars, type(PENDING), MatchKey, Status})

#: Callables that may sit in a callback list or a handler table, by
#: ``(module, qualname)``; a queued callback is compared by its code and
#: what it closes over.
CALLBACKS = {
    ("repro.sim.process", "Process._resume"),
    ("repro.net.fabric", "Fabric._deliver_later.<locals>.arm"),
    ("repro.net.fabric",
     "Fabric._deliver_later.<locals>.arm.<locals>.<lambda>"),
    ("repro.mpi.partitioned", "_part_registry.<locals>.<lambda>"),
    ("repro.mpi.partitioned",
     "PartitionedSendRequest._post_message.<locals>.<lambda>"),
    ("repro.mpi.partitioned",
     "PartitionedRecvRequest._activate.<locals>.<lambda>"),
} | {
    ("repro.mpi.rma", f"Window.{name}")
    for name in (
        "_on_put", "_on_flush_req", "_on_flush_ack", "_on_post_token",
        "_on_complete_token", "_on_lock_req", "_on_lock_grant", "_on_unlock",
    )
}


class _Opaque(Exception):
    """The walk met something it cannot canonicalize."""


class _Marker:
    """A structure token; markers compare by identity."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debug repr
        return self.name


_RESUME = Process._resume
_SEQ, _MAP, _SET, _TIME, _ID, _FN = (
    _Marker(n) for n in ("seq", "map", "set", "time", "id", "fn")
)
_EMPTY_SEQ, _EMPTY_MAP, _EMPTY_SET, _DONE = (
    _Marker(n) for n in ("[]", "{}", "set()", "done")
)
#: ``_REFS[i]`` stands for the i-th object the walk reached; the list
#: doubles when a walk outgrows it (:func:`snapshot` retries).
_REFS: List[_Marker] = [_Marker(f"@{i}") for i in range(1 << 11)]
#: Empty containers, by type (lists, tuples and deques all read as
#: sequences).
_EMPTY = {list: _EMPTY_SEQ, tuple: _EMPTY_SEQ, deque: _EMPTY_SEQ,
          dict: _EMPTY_MAP, set: _EMPTY_SET, frozenset: _EMPTY_SET}
#: Types whose values are tokens themselves.
_SCALARS = frozenset({type(None), bool, int, float, str}) | _VALUES
#: A processed event is read only through its outcome, so it is walked
#: as a value; a resource request is not (its holder releases it by
#: identity).
_EVENTS = frozenset({Event, Timeout, Process})
#: Values walked by structure rather than referenced.
_COMPOUND = frozenset({
    list, tuple, deque, dict, set, frozenset, MethodType, FunctionType,
})


def _layout(cls: type) -> Dict[str, str]:
    """Merged classification of ``cls`` (bases first, then overrides)."""
    merged: Dict[str, str] = {}
    known = False
    for base in reversed(cls.__mro__):
        entry = FIELDS.get(base)
        if entry is not None:
            known = True
            merged.update(entry)
    if not known:
        raise _Opaque(cls)
    return merged


_EXPANDERS: Dict[type, Callable[["_Walker", Any], None]] = {}


def _compile(cls: type) -> Callable[["_Walker", Any], None]:
    """The expander of one class, generated from its :data:`FIELDS`
    layout: it appends the class and each compared field in a fixed
    order, so the walk costs one call per object."""
    layout = _layout(cls)
    if "__slots__" in cls.__dict__:
        names: List[str] = []
        for base in reversed(cls.__mro__):
            names += [n for n in base.__dict__.get("__slots__", ())
                      if n not in names]
        unknown = [n for n in names if n not in layout]
        if unknown:
            raise _Opaque(f"{cls.__name__}.{unknown[0]}")
        lines, read = [], "o.{}".format
    else:
        names = list(layout)
        lines = [
            "d = o.__dict__",
            "if not d.keys() <= KNOWN: raise _Opaque(o)",
            "a(tuple(d))",
        ]
        read = "d.get({!r})".format
    scope: Dict[str, Any] = {
        "cls": cls, "KNOWN": frozenset(layout), "_Opaque": _Opaque,
        "S": _SCALARS,
    }
    values = [read(n) for n in names if layout[n] is VALUE]
    if values:
        lines.append(f"a(({', '.join(values)},))" if len(values) > 1
                     else f"a({values[0]})")
    for name in names:
        kind = layout[name]
        if kind is SKIP or kind is VALUE:
            continue
        if kind is STATE:
            # Scalars, empty containers and objects of classified types
            # are inlined; everything else goes through ``w.value``.
            lines += [f"v = {read(name)}",
                      "t = type(v)",
                      "if t in S: a(v)",
                      "else:",
                      "    c = cids.get(id(v))",
                      "    if c is not None: a(R[c])",
                      "    elif t in EVENTS and v.callbacks is None:",
                      "        a(DONE)",
                      "        x = v._value",
                      "        if type(x) in S: a(x)",
                      "        else: w.value(x)",
                      "        a(v._ok)",
                      "    elif t in X:",
                      "        c = cids[id(v)] = len(cids)",
                      "        todo.append(v)",
                      "        a(R[c])",
                      "    elif t in EMPTY and not v: a(EMPTY[t])",
                      "    elif t is tuple and S.issuperset(map(type, v)): a(v)",
                      "    else: w.value(v)"]
        elif kind is QUEUE:
            lines += [f"v = {read(name)}",
                      "if v: w.value(list(v))",
                      "else: a(EMPTY_SEQ)"]
        elif kind is RID or kind is SEQ or kind is SERIAL:
            lines += [f"t = w.ids[{kind!r}]",
                      f"v = {read(name)}",
                      "a(ID)",
                      "a(t.setdefault(v, len(t)))"]
        elif kind is CALLBACKS_LIST:
            lines.append(f"w.callbacks({read(name)})")
        elif kind is FRAMES:
            lines.append(f"w.frames({read(name)})")
        elif kind is GROW:
            lines += [f"v = {read(name)}",
                      "a(None if v is None else len(v))"]
        else:
            scope[f"K_{name}"] = kind
            lines.append(f"w.special(K_{name}, {read(name)}, o)")
    scope.update(
        R=_REFS, ID=_ID, X=_EXPANDERS, EMPTY=_EMPTY, EMPTY_SEQ=_EMPTY[list],
        EVENTS=_EVENTS, DONE=_DONE,
    )
    source = "\n    ".join(
        [f"def expand_{cls.__name__}(w, o):", "a = w.out.append",
         "cids = w.cids", "todo = w.todo", "a(cls)"]
        + lines
    )
    exec(source, scope)
    return scope[f"expand_{cls.__name__}"]


_TX_LOOP = Vci._tx_loop.__code__
_RX_LOOP = Vci._rx_loop.__code__


def _parked_loop(store: Store, code: Any) -> bool:
    """True when the only getter of ``store`` is a pending event that
    exactly one process waits on: a VCI loop (``code``) suspended at its
    ``get`` with nobody waiting on the loop itself."""
    getters = store._getters
    if store._items or len(getters) != 1:
        return False
    event = getters[0]
    callbacks = event.callbacks
    if (event._value is not PENDING or callbacks is None
            or len(callbacks) != 1):
        return False
    resume = callbacks[0]
    if type(resume) is not MethodType or resume.__func__ is not _RESUME:
        return False
    loop = resume.__self__
    gen = loop._generator
    return (
        gen.gi_code is code and gen.gi_yieldfrom is None
        and loop._target is event and loop.callbacks == []
    )


def _idle_vci(w: "_Walker", vci: Vci) -> bool:
    """Append an idle VCI (free lock, empty queues, both loops parked at
    their ``get``) as one token plus its contention window, whose agents
    the next grant still counts; False if it is busy."""
    lock = vci.lock
    if (lock._users or lock._waiting
            or not _parked_loop(vci.tx_store, _TX_LOOP)
            or not _parked_loop(vci.rx_store, _RX_LOOP)):
        return False
    out = w.out
    out.append(_IDLE)
    contention = vci._contention
    out.append(contention._episode_peak)
    w.agents(contention._agents, contention.window)
    return True


_IDLE = _Marker("idle")


class _Walker:
    """Breadth-first canonical walk of the simulation state."""

    def __init__(self, now: float, frame_locals: Mapping[Any, frozenset]):
        self.now = now
        self.out: List[Any] = []
        self.times: List[float] = []
        self.frame_locals = frame_locals
        self.todo: List[Any] = []
        self.cids: Dict[int, int] = {}
        self.ids: Dict[str, Dict[Any, int]] = {RID: {}, SEQ: {}, SERIAL: {}}
        self._codes: Dict[Any, bool] = {}

    def run(self) -> None:
        todo = self.todo
        expanders = _EXPANDERS
        i = 0
        while i < len(todo):
            obj = todo[i]
            i += 1
            expand = expanders.get(type(obj))
            if expand is None:
                expand = expanders[type(obj)] = _compile(type(obj))
            expand(self, obj)

    # -- values ---------------------------------------------------------------
    def value(self, v: Any) -> None:
        out = self.out
        t = type(v)
        if t in _SCALARS:
            out.append(v)
        elif t in _EVENTS and v.callbacks is None:
            out.append(_DONE)
            outcome = v._value
            if type(outcome) in _SCALARS:
                out.append(outcome)
            else:
                self.value(outcome)
            out.append(v._ok)
        elif t in _EXPANDERS or t not in _COMPOUND:
            cids = self.cids
            cid = cids.get(id(v))
            if cid is None:
                cid = cids[id(v)] = len(cids)
                self.todo.append(v)
            out.append(_REFS[cid])
        elif not v:
            out.append(_EMPTY[t])
        elif t is tuple and _SCALARS.issuperset(map(type, v)):
            out.append(v)
        elif t is list or t is tuple or t is deque:
            out.append(_SEQ)
            out.append(len(v))
            cids = self.cids
            todo = self.todo
            for item in v:
                it = type(item)
                if it in _SCALARS:
                    out.append(item)
                else:
                    cid = cids.get(id(item))
                    if cid is not None:
                        out.append(_REFS[cid])
                    elif it in _EXPANDERS and it not in _EVENTS:
                        cid = cids[id(item)] = len(cids)
                        todo.append(item)
                        out.append(_REFS[cid])
                    else:
                        self.value(item)
        elif t is dict:
            out.append(_MAP)
            out.append(len(v))
            cids = self.cids
            todo = self.todo
            for key, item in v.items():
                if type(key) in _SCALARS:
                    out.append(key)
                else:
                    self.value(key)
                it = type(item)
                if it in _SCALARS:
                    out.append(item)
                else:
                    cid = cids.get(id(item))
                    if cid is not None:
                        out.append(_REFS[cid])
                    elif it in _EXPANDERS and it not in _EVENTS:
                        cid = cids[id(item)] = len(cids)
                        todo.append(item)
                        out.append(_REFS[cid])
                    else:
                        self.value(item)
        elif t is set or t is frozenset:
            out.append(_SET)
            out.append(len(v))
            for item in sorted(v, key=repr):
                self.value(item)
        elif t is MethodType:
            self.callable(v.__func__)
            self.value(v.__self__)
        else:  # a plain function
            self.callable(v)
            for cell in v.__closure__ or ():
                self.value(cell.cell_contents)

    def callbacks(self, callbacks: Optional[List[Any]]) -> None:
        """An event's callback list: mostly processes' ``_resume``."""
        out = self.out
        if callbacks is None:
            out.append(None)
            return
        out.append(_SEQ)
        out.append(len(callbacks))
        cids = self.cids
        for cb in callbacks:
            if type(cb) is MethodType and cb.__func__ is _RESUME:
                out.append(_FN)
                proc = cb.__self__
                cid = cids.get(id(proc))
                if cid is None:
                    if proc.callbacks is None:
                        self.value(proc)
                    else:
                        cid = cids[id(proc)] = len(cids)
                        self.todo.append(proc)
                        out.append(_REFS[cid])
                else:
                    out.append(_REFS[cid])
            else:
                self.value(cb)

    def callable(self, fn: FunctionType) -> None:
        code = fn.__code__
        if code not in self._codes:
            if (fn.__module__, fn.__qualname__) not in CALLBACKS:
                raise _Opaque(fn)
            self._codes[code] = True
        self.out.append(_FN)
        self.out.append(code)

    def ident(self, space: str, raw: Any) -> None:
        table = self.ids[space]
        self.out.append(_ID)
        self.out.append(table.setdefault(raw, len(table)))

    def time(self, t: float) -> None:
        self.out.append(_TIME)
        self.times.append(t - self.now)

    # -- fields with their own walk ---------------------------------------------
    def special(self, kind: str, value: Any, owner: Any) -> None:
        """A field whose kind has its own walk (see :data:`FIELDS`)."""
        out = self.out
        if kind is AGENTS:
            self.agents(value, owner.window)
        elif value is None:
            out.append(None)
        elif kind is RID_KEYS or kind is SEQ_KEYS:
            space = RID if kind is RID_KEYS else SEQ
            out.append(len(value))
            for key, item in value.items():
                self.ident(space, key)
                self.value(item)
        elif kind is HEADER:
            out.append(len(value))
            for key, item in value.items():
                out.append(key)
                space = _HEADER_IDS.get(key)
                if space is None:
                    self.value(item)
                else:
                    self.ident(space, item)
        elif kind is VCIS:
            out.append(len(value))
            for vci in value:
                if not _idle_vci(self, vci):
                    self.value(vci)
        elif kind is ENGINES:
            out.append(len(value))
            for engine in value:
                if engine._posted or engine._unexpected:
                    self.value(engine)
                else:
                    out.append(_IDLE)
        else:  # pragma: no cover - every kind is handled
            raise _Opaque(kind)

    def agents(self, agents: Dict[int, float], window: float) -> None:
        """A contention window's agents by age; agents older than the
        window are dropped by the next grant before it counts, so they
        cannot matter."""
        now = self.now
        live = [(a, t) for a, t in agents.items() if now - t <= window]
        self.out.append(len(live))
        for agent, stamp in live:
            self.ident(SERIAL, agent)
            self.time(stamp)

    def frames(self, gen: Any) -> None:
        """A process's generator stack: code position and locals of each
        frame of the ``yield from`` chain."""
        out = self.out
        cids = self.cids
        declared = self.frame_locals
        while gen is not None:
            if type(gen) is not GeneratorType:
                raise _Opaque(gen)
            frame = gen.gi_frame
            if frame is None:
                out.append(None)
                return
            code = gen.gi_code
            out.append(code)
            out.append(frame.f_lasti)
            local = frame.f_locals
            names = declared.get(code)
            if names is None:
                out.append(tuple(local))  # the bound locals, in code order
                values = local.values()
            else:
                values = [local.get(name) for name in names]
            for v in values:
                if type(v) in _SCALARS:
                    out.append(v)
                else:
                    cid = cids.get(id(v))
                    if cid is None:
                        self.value(v)
                    else:
                        out.append(_REFS[cid])
            gen = gen.gi_yieldfrom


class Snapshot:
    """A canonical simulation state: a structure list compared exactly
    and the relative times compared within the clock tolerance."""

    __slots__ = ("now", "structure", "times")

    def __init__(self, now: float, structure: List[Any], times: List[float]):
        self.now = now
        self.structure = structure
        self.times = times


def snapshot(world: MPIWorld,
             frame_locals: Mapping[Any, frozenset] = {}) -> Optional[Snapshot]:
    """The canonical state of ``world`` at this instant, or ``None`` when
    some part of it cannot be canonicalized (see the module docstring).

    ``frame_locals`` maps a code object to the only locals the walk
    compares in its frames; the caller declares its own generators there
    when their other locals are bound once before the frame can suspend
    or are bookkeeping the simulation never reads.
    """
    if world.tracer.enabled or world.cvars.verify_payloads:
        return None
    env = world.env
    walker = _Walker(env._now, frame_locals)
    out = walker.out
    try:
        for when, priority, _, event in sorted(env._queue):
            walker.time(when)
            out.append(priority)
            walker.value(event)
        walker.value(env.active_process)
        walker.value(world)
        walker.run()
    except (_Opaque, AttributeError):
        return None
    except IndexError:
        if len(walker.cids) < len(_REFS):
            raise  # pragma: no cover - not a reference overflow
        _REFS.extend(_Marker(f"@{i}") for i in range(len(_REFS), 2 * len(_REFS)))
        return snapshot(world, frame_locals)
    return Snapshot(walker.now, out, walker.times)


def same_state(a: Snapshot, b: Snapshot) -> bool:
    """True when two snapshots are equal: the same structure, and every
    relative time within ``CLOCK_ULPS`` ulps of the later clock."""
    if a.structure != b.structure:
        return False
    tol = CLOCK_ULPS * math.ulp(max(a.now, b.now))
    return all(abs(x - y) <= tol for x, y in zip(a.times, b.times))
