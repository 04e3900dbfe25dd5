"""Vectorized (numpy) evaluation of the closed-form models — the batch kernel.

The scalar predictors (:func:`repro.model.approaches.predict_bench_time`,
:func:`repro.model.patterns.predict_pattern_time`) remain the **single
source of truth** for every formula; this module re-expresses them over
numpy arrays so a whole parameter grid evaluates in a handful of array
operations instead of one Python call per point.  Every expression here
mirrors its scalar counterpart **operation for operation, in the same
order**, so the IEEE-754 result of each point is bitwise identical to
the scalar path — asserted, not assumed, by the batch-equivalence test
suite (``tests/model/test_vector.py``), which sweeps all 8 approaches
and all 3 application patterns.

Batching model
--------------
Points are grouped by the parameters that select *code paths* rather
than *values* — the approach (each has its own predictor), the frozen
:class:`~repro.net.params.SystemParams` (so every ``p.*`` cost is a
scalar inside a group), and the cvar knobs (``num_vcis``,
``part_aggr_size`` and, for bench, ``vci_method``).  Everything else
(sizes, thread counts, partition counts, compute rates, noise) varies
per point as an int64/float64 column.  Data-dependent branches of the
scalar code (protocol ladder, zcopy queue-feedback regimes, pipeline
bounds) become boolean masks combined with ``np.where``.  The model's
hand-set corrections (the queue ramp divisor, the hump window, the
comm-VCI stagger, …) are never repeated here: the kernels read the named
constants of :mod:`repro.model.approaches` as ``approaches.NAME`` at
call time, so a recalibration edits one number and both evaluators
follow it.

One kernel entry per scenario kind: :func:`bench_times_from_columns`
and :func:`pattern_times_from_columns` take columns — ``(values,
codes)`` pairs, arrays or scalars — plus the batch constants, so a
campaign hands over its grid digits without constructing a spec
object.  Both kernels are factored in two stages: the terms that do not
depend on a point's own compute run once per distinct key, and the
points gather them and add their compute in the scalar's order.  The
pattern kernel keys its link-level terms by ``(pattern, n_ranks,
n_threads, msg_bytes)``; the bench kernel keys its delay-free
message-cost, contention, protocol and barrier terms by ``(total_bytes,
n_threads, theta)`` per approach (plus the compute class where the
zcopy queue-feedback masks read it), and applies each point's compute
delay γ after the gather.  Campaign chunks are their only product
caller; a single spec goes through the scalar predictor
(:mod:`repro.backends.analytic`).

Sizes are assumed to stay below 2**53 bytes (exact int64→float64
conversion); every grid in the repo is far below that.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from ..net import SystemParams
from ..telemetry import span
from . import approaches
from .approaches import (
    _ctrl_path,
    _rendezvous_rtt,
    _token_path,
    _zcopy_queue_contenders,
    APPROACH_PREDICTORS,
)

__all__ = [
    "bench_times_from_columns",
    "pattern_times_from_columns",
    "PatternBatch",
    "BENCH_COLUMN_FIELDS",
    "PATTERN_COLUMN_FIELDS",
]

#: BenchSpec fields the column-based bench kernel consumes (everything
#: else — iterations, warmup, seed, verify … — does not enter the model).
BENCH_COLUMN_FIELDS = (
    "approach",
    "total_bytes",
    "n_threads",
    "theta",
    "gamma_us_per_mb",
    "gaussian_mu_us_per_mb",
)

#: PatternConfig fields the column-based pattern kernel consumes.  The
#: first two shape the link graph, the next two size its payload; the
#: rest enter the per-point arithmetic directly.
PATTERN_COLUMN_FIELDS = (
    "pattern",
    "n_ranks",
    "n_threads",
    "msg_bytes",
    "approach",
    "compute_us_per_mb",
    "noise",
    "noise_us",
    "noise_sigma_us",
)


# ---------------------------------------------------------------------------
# elementwise counterparts of the SystemParams helpers
# ---------------------------------------------------------------------------

def _mult_vec(p: SystemParams, contenders):
    """``SystemParams.contention_multiplier`` over an array."""
    n = np.maximum(0, contenders)
    return 1.0 + p.vci_contention_coeff * n + p.vci_contention_quad * n * n


def _wire_vec(p: SystemParams, nbytes):
    """``SystemParams.wire_time`` over an array."""
    return p.wire_gap + (nbytes + p.header_bytes) / p.bandwidth


def _copy_vec(p: SystemParams, nbytes):
    """``SystemParams.copy_time`` over an array."""
    return nbytes / p.copy_bandwidth


def _bit_length_vec(x: np.ndarray) -> np.ndarray:
    """``int.bit_length()`` elementwise for ``0 <= x < 2**53``: the
    binary exponent of the exact float64 value (``frexp``, no log)."""
    return np.frexp(np.asarray(x, dtype=np.float64))[1].astype(np.int64)


def _barrier_vec(p: SystemParams, parties) -> np.ndarray:
    """``SystemParams.barrier_time`` over an array.

    ``rounds = (parties - 1).bit_length()`` is 0 for ``parties <= 1``,
    so the scalar's early-return-0 branch folds into the product.
    """
    return p.thread_barrier_base * _bit_length_vec(
        np.maximum(np.asarray(parties, dtype=np.int64) - 1, 0)
    )


def _ceil_div(a, b):
    """Exact integer ``ceil(a / b)`` (matches ``math.ceil`` of the float
    quotient for every magnitude used by the models)."""
    return -(-np.asarray(a, dtype=np.int64) // np.asarray(b, dtype=np.int64))


def _chain_max(*terms):
    """Elementwise ``max(...)`` over mixed scalar/array terms."""
    out = terms[0]
    for term in terms[1:]:
        out = np.maximum(out, term)
    return out


def _unique_codes(values) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` for a 1-D int64 array;
    a presence table replaces the sort when the values span no more
    than the array's length."""
    lo, hi = (int(values.min()), int(values.max())) if values.size else (0, 0)
    if hi - lo >= values.size:
        uniq, inverse = np.unique(values, return_inverse=True)
        return uniq, inverse.reshape(-1)
    offset = values - lo
    present = np.zeros(hi - lo + 1, dtype=bool)
    present[offset] = True
    return np.flatnonzero(present) + lo, (np.cumsum(present) - 1)[offset]


def _dense_codes(values) -> Tuple[np.ndarray, int]:
    """``(inverse, n_unique)`` of :func:`_unique_codes`."""
    uniq, inverse = _unique_codes(values)
    return inverse, len(uniq)


def _as_pair(column, n_points: int = 0, dtype=None) -> Tuple[Any, np.ndarray]:
    """Any column form as a ``(values, codes)`` pair, point ``i``
    taking ``values[codes[i]]``.

    A pair passes through (a campaign chunk's grid digits); a scalar
    becomes a one-value pair over ``n_points``; an array is factorized
    (names as strings, floats by bit pattern, so ``0.0``/``-0.0`` and
    distinct NaN payloads keep their own values).  With a ``dtype`` the
    values are an array of it, else (names) a list.
    """
    if isinstance(column, tuple):
        values, codes = column
    elif np.ndim(column) == 0:
        values, codes = [column], np.zeros(n_points, dtype=np.int64)
    elif dtype is None:
        values, codes = np.unique(
            np.asarray(column).astype(str), return_inverse=True
        )
        values = values.tolist()
    elif np.dtype(dtype).kind == "f":
        bits, codes = _unique_codes(
            np.asarray(column, dtype=dtype).view(np.int64)
        )
        values = bits.view(dtype)
    else:
        values, codes = _unique_codes(np.asarray(column, dtype=dtype))
    values = list(values) if dtype is None else np.asarray(values, dtype=dtype)
    return values, np.asarray(codes, dtype=np.int64).reshape(-1)


def _materialize(column, n_points: int, dtype) -> np.ndarray:
    """A per-point ``dtype`` array of any column form: one ``take`` of
    a pair's values, a scalar broadcast, an array as it is."""
    if isinstance(column, tuple):
        values, codes = column
        return np.asarray(values, dtype=dtype)[codes]
    if np.ndim(column) == 0:
        return np.full(n_points, column, dtype=dtype)
    return np.asarray(column, dtype=dtype)


def _key_values(column, first) -> list:
    """The key value of each :func:`_factorize` group of one column, as
    Python scalars (a pair's value at the group's first code)."""
    if isinstance(column, tuple):
        values, codes = column
        return np.asarray(values)[codes[first]].tolist()
    return column[first].tolist()


def _factorize(*columns) -> Tuple[np.ndarray, np.ndarray]:
    """Exact group-by over equal-length 1-D key columns.

    Returns ``(first, inverse)``: ``first[g]`` is the index of group
    ``g``'s first point and ``inverse[i]`` the group of point ``i``.

    A column is a ``(values, codes)`` pair (codes used as they are,
    radix ``len(values)``), an int64 array or a float64 array.  Arrays
    become dense codes (:func:`_dense_codes`); floats are keyed by
    their bit pattern, so ``0.0``/``-0.0`` and distinct NaN payloads
    never share a group.  The codes are packed mixed-radix into one
    int64 key, re-densified whenever the next radix could overflow it,
    and the key is factorized once; ``first`` is each group's smallest
    index (``np.minimum.at``: ``return_index`` would force a stable
    sort, several times slower at chunk sizes).
    """
    key, size = np.int64(0), 1
    for column in columns:
        if isinstance(column, tuple):
            radix, codes = len(column[0]), column[1]
        else:
            column = np.asarray(column)
            if column.dtype.kind == "f":
                column = column.astype(np.float64, copy=False).view(np.int64)
            codes, radix = _dense_codes(column)
        if size * radix >= 2**63:
            key, size = _dense_codes(key)
        key, size = key * radix + codes, size * radix
    inverse, n_groups = _dense_codes(key)
    first = np.full(n_groups, len(inverse))
    np.minimum.at(first, inverse, np.arange(len(inverse)))
    return first, inverse


def _scalar_per_key(scalar, dtype, *columns) -> np.ndarray:
    """``scalar(*key)`` at every point, called once per exact key group
    of :func:`_factorize` (a ``(values, codes)`` column passes the
    value), so each point gets the scalar's value for its own inputs."""
    first, inverse = _factorize(*columns)
    keys = zip(*(_key_values(column, first) for column in columns))
    return np.array([scalar(*key) for key in keys], dtype=dtype)[inverse]


# ---------------------------------------------------------------------------
# per-message stage costs (vector twins of _tag_msg_cost / _put_msg_cost)
# ---------------------------------------------------------------------------

@dataclass
class _MsgCostV:
    """Array-valued per-message stage costs (see ``_MsgCost``)."""

    post: Any
    wire: Any
    rx: Any
    path: Any


def _tag_msg_cost_vec(p: SystemParams, nbytes, mult) -> _MsgCostV:
    """Vector twin of ``approaches._tag_msg_cost``."""
    nbytes = np.asarray(nbytes, dtype=np.int64)
    zc = nbytes > p.eager_max
    bc = (nbytes > p.short_max) & ~zc
    wire0 = p.wire_time(0)
    wire_nb = _wire_vec(p, nbytes)
    # zcopy branch (RTS/CTS rendezvous)
    z_post = p.post_overhead * mult * 2.0
    z_wire = wire0 + wire_nb
    z_rx = p.ctrl_overhead + p.put_handler_overhead
    z_path = (
        p.post_overhead * mult + wire0 + p.latency
        + p.ctrl_overhead
        + p.ctrl_overhead + wire0 + p.latency
        + p.ctrl_overhead
        + p.post_overhead
        + wire_nb + p.latency + p.put_handler_overhead
    )
    # short/bcopy branch (eager)
    pack = np.where(bc, _copy_vec(p, nbytes), 0.0)
    e_post = p.post_overhead * mult + pack
    e_rx = p.recv_overhead + pack  # unpack == pack for bcopy, 0 for short
    e_path = e_post + wire_nb + p.latency + e_rx
    return _MsgCostV(
        post=np.where(zc, z_post, e_post),
        wire=np.where(zc, z_wire, wire_nb),
        rx=np.where(zc, z_rx, e_rx),
        path=np.where(zc, z_path, e_path),
    )


def _put_msg_cost_vec(p: SystemParams, nbytes, mult) -> _MsgCostV:
    """Vector twin of ``approaches._put_msg_cost``."""
    post = p.put_overhead * mult
    wire = _wire_vec(p, nbytes)
    rx = p.put_handler_overhead
    return _MsgCostV(
        post=post, wire=wire, rx=rx, path=post + wire + p.latency + rx
    )


# ---------------------------------------------------------------------------
# bench geometry keys
# ---------------------------------------------------------------------------

@dataclass
class _BenchKeys:
    """Array twin of ``approaches._Geometry`` for one (approach, params,
    vci_method) group, one entry per distinct key: the
    ``(total_bytes, n_threads, theta)`` geometry and, for the
    approaches in :data:`_ACTIVE_KEYED`, the compute class.  The cvar
    knobs are batch constants; the delay is per point, not per key."""

    params: SystemParams
    vci_method: str
    n_threads: np.ndarray
    theta: np.ndarray
    total_bytes: np.ndarray
    num_vcis: int
    part_aggr_size: int
    #: Per key for :data:`_ACTIVE_KEYED` approaches, else None (their
    #: terms never read it).
    compute_active: Optional[np.ndarray]

    @property
    def n_parts(self) -> np.ndarray:
        return self.n_threads * self.theta

    @property
    def part_bytes(self) -> np.ndarray:
        return self.total_bytes // self.n_parts


def _negotiated_vec(n, total_bytes, aggr) -> np.ndarray:
    """``negotiate_message_count(n, n, total_bytes, aggr)`` over
    columns, for both kernels.  Aggregation's ``k_max`` is array math;
    only the divisor rule (``largest_divisor_at_most``) runs in Python,
    once per exact ``(n, k_max)`` key (:func:`_scalar_per_key`)."""
    from ..mpi.errors import PartitionError
    from ..mpi.partitioned import largest_divisor_at_most

    n = np.asarray(n, dtype=np.int64)
    if n.size and n.min() < 1:
        raise PartitionError("partition counts must be >= 1")
    aggr = np.asarray(aggr, dtype=np.int64)
    msg = np.asarray(total_bytes, dtype=np.int64) // n
    merge = (aggr > 0) & (msg > 0) & (msg <= aggr)
    k_max = np.where(merge, np.minimum(n, aggr // np.maximum(msg, 1)), 1)
    return n // _scalar_per_key(largest_divisor_at_most, np.int64, n, k_max)


def _saturated_contenders_vec(p: SystemParams, contenders, n_msgs):
    """Vector twin of ``approaches._saturated_contenders``."""
    ramp = contenders + n_msgs / approaches.ZCOPY_RAMP_DIVISOR
    return np.maximum(contenders, np.minimum(_zcopy_queue_contenders(p), ramp))


def _tag_transfer_vec(
    keys: _BenchKeys,
    n_msgs,
    nbytes,
    contenders,
    lanes,
    rx_lanes,
    rx_extra=0.0,
    path_extra=0.0,
    extra_serial=0.0,
) -> Tuple[np.ndarray, Any, _MsgCostV]:
    """Vector twin of ``approaches._tag_transfer`` (all regimes), per
    key.  Returns ``(work, path, msg)``: each point's transfer is
    ``max(work - delay, 0) + path`` (:meth:`_Points.overlap`)."""
    p = keys.params
    nbytes = np.asarray(nbytes, dtype=np.int64)
    contenders = np.asarray(contenders, dtype=np.float64)
    zsv = (
        np.asarray(lanes == 1)
        & np.asarray(n_msgs > 1)
        & (nbytes > p.eager_max)
    )
    wire_nb = _wire_vec(p, nbytes)
    rtt = _rendezvous_rtt(p)
    c_sat = _saturated_contenders_vec(p, contenders, n_msgs)
    pair = 2.0 * p.post_overhead * _mult_vec(p, c_sat)
    saturated = zsv & ~keys.compute_active & (pair >= wire_nb)
    contenders = np.where(saturated, c_sat, contenders)
    burst = zsv & ~saturated
    prefix_msgs = np.where(
        burst, np.minimum(n_msgs, keys.n_threads), n_msgs
    )
    hump_window = (
        burst
        & ~keys.compute_active
        & (n_msgs > approaches.ZCOPY_HUMP_ONSET * keys.n_threads)
        & (approaches.ZCOPY_HUMP_MIN_RTT * rtt < wire_nb)
        & (wire_nb < approaches.ZCOPY_HUMP_MAX_RTT * rtt)
    )
    c2 = wire_nb / p.ctrl_overhead
    pair2 = 2.0 * p.post_overhead * _mult_vec(p, c2)
    hump_bn = np.where(
        hump_window & (pair2 > wire_nb), (pair + pair2) / 2.0, 0.0
    )
    mult = _mult_vec(p, contenders)
    msg = _tag_msg_cost_vec(p, nbytes, mult)
    cost = replace(msg, rx=msg.rx + rx_extra, path=msg.path + path_extra)
    # zcopy-single-VCI regime: RTS prefix serializes ahead of the drain.
    post_half = p.post_overhead * mult
    z_bn = _chain_max(
        post_half, cost.wire, cost.rx / rx_lanes, extra_serial, hump_bn
    )
    z_work = prefix_msgs * post_half + (n_msgs - 1) * z_bn
    e_work = _pipeline_work_vec(n_msgs, cost, lanes, rx_lanes, extra_serial)
    return np.where(zsv, z_work, e_work), cost.path, msg


def _pipeline_work_vec(
    n_msgs, cost: _MsgCostV, post_lanes, rx_lanes, extra_serial=0.0
):
    """``approaches._pipeline``'s ``(n_msgs - 1) * bottleneck``: the
    pipeline is ``max(work - delay, 0) + cost.path``
    (:meth:`_Points.overlap`)."""
    bottleneck = _chain_max(
        cost.post / post_lanes, cost.wire, cost.rx / rx_lanes, extra_serial
    )
    return (n_msgs - 1) * bottleneck


class _Points:
    """The point stage of one approach group: ``at(term)`` gathers a
    per-key term to the points (``key_of``: each point's key; a scalar
    term stays a scalar); ``delay`` is each point's compute delay."""

    def __init__(self, key_of: np.ndarray, delay: np.ndarray):
        self.key_of = key_of
        self.delay = delay

    def at(self, term):
        return term[self.key_of] if np.ndim(term) else term

    def overlap(self, work, path) -> np.ndarray:
        """``max(work - delay, 0) + path`` at every point: the pipeline
        the last partition's compute delay overlaps (Eq. 3)."""
        return np.maximum(self.at(work) - self.delay, 0.0) + self.at(path)


# ---------------------------------------------------------------------------
# per-approach vector predictors (twins of approaches._predict_*)
# ---------------------------------------------------------------------------
#
# Each runs in two stages: the delay-free terms once per key, then the
# points gather them and apply their own delay, in the scalar's order.

def _vec_pt2pt_single(keys: _BenchKeys, points: _Points) -> np.ndarray:
    p = keys.params
    barrier = _barrier_vec(p, keys.n_threads)
    msg = _tag_msg_cost_vec(p, keys.total_bytes, 1.0)
    return points.at(2.0 * barrier + msg.path)


def _vec_pt2pt_many(keys: _BenchKeys, points: _Points) -> np.ndarray:
    p = keys.params
    n, s = keys.n_parts, keys.part_bytes
    barrier = _barrier_vec(p, keys.n_threads)
    lanes = np.maximum(1, np.minimum(keys.n_threads, keys.num_vcis))
    per_vci = _ceil_div(keys.n_threads, lanes)
    work, path, msg = _tag_transfer_vec(
        keys, n, s, per_vci - 1, lanes, lanes
    )
    prepost = n * p.recv_post_overhead + msg.rx
    return points.at(barrier) + np.maximum(
        points.overlap(work, path), points.at(prepost)
    )


def _part_post_geometry_vec(keys: _BenchKeys, n_msgs, msg_bytes):
    """Vector twin of ``approaches._part_post_geometry``."""
    p = keys.params
    if keys.vci_method == "comm":
        ones = np.ones_like(keys.n_threads)
        stagger = np.where(
            msg_bytes > p.eager_max, 1.0, approaches.COMM_VCI_STAGGER
        )
        return ones, stagger * (keys.n_threads - 1), ones
    lanes = np.maximum(
        1, np.minimum(np.minimum(keys.n_threads, keys.num_vcis), n_msgs)
    )
    per_vci = _ceil_div(
        keys.n_threads,
        np.maximum(1, np.minimum(keys.num_vcis, keys.n_threads)),
    )
    rx_lanes = np.maximum(1, np.minimum(n_msgs, keys.num_vcis))
    return lanes, per_vci - 1.0, rx_lanes


def _pready_vec(p: SystemParams, n_threads) -> np.ndarray:
    """``pready_atomic_time(n_threads) + pready_overhead`` columns."""
    extra = np.maximum(0, n_threads - 1)
    return (
        p.atomic_overhead + p.pready_atomic_bounce * extra
    ) + p.pready_overhead


def _vec_pt2pt_part(keys: _BenchKeys, points: _Points) -> np.ndarray:
    p = keys.params
    n_msgs = _negotiated_vec(
        keys.n_parts, keys.total_bytes, keys.part_aggr_size
    )
    msg_bytes = keys.total_bytes // n_msgs
    barrier = _barrier_vec(p, keys.n_threads)
    lanes, contenders, rx_lanes = _part_post_geometry_vec(
        keys, n_msgs, msg_bytes
    )
    pready = _pready_vec(p, keys.n_threads)
    preadys_per_msg = keys.n_parts / n_msgs
    bounce = p.atomic_bounce_coeff * (rx_lanes - 1)
    completion_atomic = (
        p.atomic_overhead + bounce / approaches.COMPLETION_PEAK_DIVISOR
    )
    work, path, msg = _tag_transfer_vec(
        keys, n_msgs, msg_bytes, contenders, lanes, rx_lanes,
        rx_extra=completion_atomic,
        path_extra=pready * preadys_per_msg + completion_atomic,
        extra_serial=np.maximum(pready * preadys_per_msg, completion_atomic),
    )
    prepost = n_msgs * p.recv_post_overhead + msg.rx + completion_atomic
    return (
        points.at(barrier)
        + np.maximum(points.overlap(work, path), points.at(prepost))
        + p.part_completion_overhead
    )


def _vec_pt2pt_part_old(keys: _BenchKeys, points: _Points) -> np.ndarray:
    p = keys.params
    n = keys.n_parts
    barrier = _barrier_vec(p, keys.n_threads)
    pready = _pready_vec(p, keys.n_threads)
    pready_chain = points.overlap((n - 1) * pready, pready)
    am_path = (
        p.post_overhead
        + _copy_vec(p, keys.total_bytes)
        + _wire_vec(p, keys.total_bytes)
        + p.latency
        + p.am_dispatch_overhead
        + _copy_vec(p, np.minimum(keys.total_bytes, p.am_chunk_bytes))
    )
    cts = p.ctrl_overhead
    return (
        points.at(barrier)
        + np.maximum(pready_chain, cts)
        + points.at(am_path)
        + p.part_completion_overhead
    )


def _rma_stages_vec(keys: _BenchKeys, many: bool):
    """(put cost, lanes, windows, mult) — twin of ``_rma_put_stages``."""
    p = keys.params
    windows = keys.n_threads if many else np.ones_like(keys.n_threads)
    lanes = np.maximum(1, np.minimum(windows, keys.num_vcis))
    actors_per_lane = _ceil_div(keys.n_threads, lanes)
    mult = _mult_vec(p, actors_per_lane - 1)
    return _put_msg_cost_vec(p, keys.part_bytes, mult), lanes, windows, mult


def _rma_scan_vec(keys: _BenchKeys, windows) -> np.ndarray:
    sharing = _ceil_div(windows, np.minimum(windows, keys.num_vcis))
    return keys.params.rma_progress_scan * (sharing - 1)


def _vec_rma_passive(
    keys: _BenchKeys, points: _Points, many: bool
) -> np.ndarray:
    p = keys.params
    n = keys.n_parts
    barrier = _barrier_vec(p, keys.n_threads)
    put, lanes, windows, mult = _rma_stages_vec(keys, many)
    put_start = p.recv_overhead + barrier
    flushes = windows if many else 1
    post_work = (n * put.post + flushes * p.ctrl_overhead * mult) / lanes
    wire_work = n * put.wire + flushes * p.wire_time(0)
    rx_work = (n * put.rx + flushes * p.ctrl_overhead) / lanes
    serial = _chain_max(post_work, wire_work, rx_work)
    flush_handled = (
        points.at(put_start)
        + np.maximum(points.at(serial) - points.delay, 0.0)
        + p.rma_sync_overhead
        + p.wire_time(0)
        + p.latency
        + p.ctrl_overhead
        + points.at(_rma_scan_vec(keys, windows))
    )
    ack = _ctrl_path(p)
    done = _token_path(p, p.post_overhead)
    return flush_handled + ack + done


def _vec_rma_active(
    keys: _BenchKeys, points: _Points, many: bool
) -> np.ndarray:
    p = keys.params
    n = keys.n_parts
    barrier = _barrier_vec(p, keys.n_threads)
    put, lanes, windows, _ = _rma_stages_vec(keys, many)
    tokens_avail = (
        p.rma_sync_overhead
        + p.ctrl_overhead
        + (windows - 1) * (p.rma_sync_overhead + p.ctrl_overhead)
    )
    open_epochs = windows * p.rma_sync_overhead
    put_start = points.at(np.maximum(tokens_avail, open_epochs) + barrier)
    post_bn = put.post / lanes
    post_done = (
        put_start
        + np.maximum(points.at((n - 1) * post_bn) - points.delay, 0.0)
        + points.at(put.post)
    )
    transfer_end = put_start + points.overlap(
        _pipeline_work_vec(n, put, lanes, lanes), put.path
    )
    complete_issued = post_done + points.at(
        windows * (p.rma_sync_overhead + p.ctrl_overhead)
    )
    return (
        np.maximum(complete_issued + p.wire_time(0) + p.latency, transfer_end)
        + p.ctrl_overhead
    )


#: Registry: approach name -> vector predictor over ``(_BenchKeys,
#: _Points)``.
_VECTOR_PREDICTORS = {
    "pt2pt_single": _vec_pt2pt_single,
    "pt2pt_many": _vec_pt2pt_many,
    "pt2pt_part": _vec_pt2pt_part,
    "pt2pt_part_old": _vec_pt2pt_part_old,
    "rma_single_passive": lambda k, pts: _vec_rma_passive(k, pts, many=False),
    "rma_many_passive": lambda k, pts: _vec_rma_passive(k, pts, many=True),
    "rma_single_active": lambda k, pts: _vec_rma_active(k, pts, many=False),
    "rma_many_active": lambda k, pts: _vec_rma_active(k, pts, many=True),
}

assert set(_VECTOR_PREDICTORS) == set(APPROACH_PREDICTORS), (
    "vector kernel out of sync with the scalar predictor registry"
)

#: Approaches whose delay-free terms read ``compute_active`` (the
#: zcopy queue-feedback masks of :func:`_tag_transfer_vec`): their key
#: carries the compute class, so γ = 0 and γ > 0 points of one geometry
#: keep their own regime.
_ACTIVE_KEYED = frozenset({"pt2pt_many", "pt2pt_part"})


# ---------------------------------------------------------------------------
# bench entry points
# ---------------------------------------------------------------------------

def _delay_columns(part_bytes, rate, gaussian):
    """Vector twin of ``predict_bench_time``'s delay: ``rate`` (s/B,
    ``gamma * 1e-6 / 1e6``) times the partition size, 0 under the
    Gaussian model."""
    return np.where(gaussian, 0.0, rate * part_bytes)


def bench_times_from_columns(
    params: SystemParams,
    num_vcis: int,
    vci_method: str,
    part_aggr_size: int,
    columns: Mapping[str, Any],
    n_points: int,
) -> np.ndarray:
    """Predicted times for ``n_points`` bench points given bare columns.

    ``columns`` maps :data:`BENCH_COLUMN_FIELDS` to per-point arrays,
    scalars (broadcast to the batch) or ``(values, codes)`` pairs (a
    campaign chunk's grid digits); every form becomes a pair first
    (:func:`_as_pair`), so all take the same path.  Absent fields take
    the ``BenchSpec`` defaults.  ``params`` and the three cvar knobs
    are batch constants — callers with heterogeneous machine models or
    cvars group first.  No spec object is needed.

    Per approach, the geometry ``(total_bytes, n_threads, theta)`` —
    plus the compute class for :data:`_ACTIVE_KEYED` — is factorized
    once; the delay-free terms run once per key, and every point
    gathers them and applies its own compute delay, in the scalar's
    order of operations, so each point is bitwise equal to
    ``predict_bench_time``.
    """
    def pair(name, default, dtype):
        return _as_pair(columns.get(name, default), n_points, dtype)

    with span("kernel.eval", kind="bench"):
        names, codes = _as_pair(columns["approach"], n_points)
        geometry = (
            pair("total_bytes", 0, np.int64),
            pair("n_threads", 1, np.int64),
            pair("theta", 1, np.int64),
        )
        gamma, gamma_codes = pair("gamma_us_per_mb", 0.0, np.float64)
        mu, mu_codes = pair("gaussian_mu_us_per_mb", 0.0, np.float64)
        rate = (gamma * 1e-6 / 1e6)[gamma_codes]
        gaussian = (mu > 0)[mu_codes]
        compute_active = ~gaussian & (gamma > 0)[gamma_codes]
        times = np.empty(n_points, dtype=np.float64)
        counts = np.bincount(codes, minlength=len(names))
        for code, name in enumerate(names):
            if name not in _VECTOR_PREDICTORS:
                raise KeyError(f"no analytic predictor for approach {name!r}")
            if not counts[code]:
                continue
            # The whole batch takes views, no gathers.
            rows = (
                slice(None) if counts[code] == n_points
                else np.nonzero(codes == code)[0]
            )
            key = [(values, digits[rows]) for values, digits in geometry]
            active = compute_active[rows]
            if name in _ACTIVE_KEYED:
                key.append(((False, True), active.astype(np.int64)))
            first, key_of = _factorize(*key)
            total_bytes, n_threads, theta = (
                values[digits[first]] for values, digits in key[:3]
            )
            keys = _BenchKeys(
                params=params,
                vci_method=vci_method,
                n_threads=n_threads,
                theta=theta,
                total_bytes=total_bytes,
                num_vcis=num_vcis,
                part_aggr_size=part_aggr_size,
                compute_active=(
                    active[first] if name in _ACTIVE_KEYED else None
                ),
            )
            delay = _delay_columns(
                keys.part_bytes[key_of], rate[rows], gaussian[rows]
            )
            times[rows] = _VECTOR_PREDICTORS[name](
                keys, _Points(key_of, delay)
            )
        return times


# ---------------------------------------------------------------------------
# pattern entry point
# ---------------------------------------------------------------------------

@dataclass
class PatternBatch:
    """Vectorized pattern predictions plus the per-point topology facts
    the native result object carries."""

    times: np.ndarray
    bytes_per_iteration: np.ndarray
    n_links: np.ndarray

    def store_columns(self) -> list:
        """The batch as campaign-store columns, store dtype order
        (``times`` float64, ``bytes_per_iteration``/``n_links`` int64)
        — contiguous arrays a binary segment can ``tobytes()`` without
        a copy and a JSONL segment can ``tolist()`` whole."""
        return [
            np.ascontiguousarray(self.times, dtype=np.float64),
            np.ascontiguousarray(self.bytes_per_iteration, dtype=np.int64),
            np.ascontiguousarray(self.n_links, dtype=np.int64),
        ]


#: Link-graph shapes keyed by ``(pattern, n_ranks)``: every registered
#: pattern draws its links from the rank count alone and gives each the
#: same aligned payload (the :class:`~repro.apps.base.Pattern`
#: contract).  A shape is everything the predictor needs from the
#: graph: (max_out, max_in, max links per ordered pair, depth, n_links).
_SHAPE_CACHE: Dict[Tuple[str, int], Tuple[int, int, int, int, int]] = {}


def _graph_shape(pattern_name: str, n_ranks: int) -> Tuple[int, ...]:
    """The link-graph shape of one ``(pattern, n_ranks)``, built at
    most once per process through a throwaway ``PatternConfig``."""
    key = (pattern_name, n_ranks)
    hit = _SHAPE_CACHE.get(key)
    if hit is not None:
        return hit
    from ..apps.base import PatternConfig, build_pattern
    from .patterns import _dependency_depth

    pattern = build_pattern(
        PatternConfig(pattern=pattern_name, n_ranks=n_ranks)
    )
    links = pattern.links()
    shape: Tuple[int, ...] = (0, 0, 0, 0, 0)
    if links:
        shape = (
            max(Counter(link.src for link in links).values()),
            max(Counter(link.dst for link in links).values()),
            max(Counter((link.src, link.dst) for link in links).values()),
            _dependency_depth(pattern, n_ranks),
            len(links),
        )
    _SHAPE_CACHE[key] = shape
    return shape


def _topology_columns(pattern, n_ranks, n_threads, msg_bytes):
    """The topology columns of :class:`_PatternLinks` (a dict) and the
    ``bytes_per_iteration`` column: one :func:`_graph_shape` per exact
    ``(pattern, n_ranks)`` key (:func:`_scalar_per_key`); ``nbytes`` is
    the per-link ``align_bytes(msg_bytes, n_threads)``.  ``pattern`` is
    a ``(names, codes)`` pair, the rest int64 columns."""
    if (n_ranks < 2).any():
        raise ValueError("patterns need n_ranks >= 2")
    if (n_threads < 1).any():
        raise ValueError("n_threads must be >= 1")
    if (msg_bytes < 1).any():
        raise ValueError("msg_bytes must be >= 1")
    shapes = _scalar_per_key(_graph_shape, np.int64, pattern, n_ranks)
    topo = dict(zip(
        ("max_out", "max_in", "max_pair_links", "depth", "n_links"),
        shapes.reshape(-1, 5).T,
    ))
    topo["nbytes"] = _ceil_div(msg_bytes, n_threads) * n_threads
    return topo, topo["nbytes"] * topo["n_links"]


def _pattern_link_messages(approach: str, nbytes, n_threads, aggr):
    """Vector twin of ``patterns._link_messages`` (approach constant)."""
    if approach == "pt2pt_single" or approach == "pt2pt_part_old":
        return np.ones_like(nbytes), nbytes
    if approach == "pt2pt_part":
        n = _negotiated_vec(n_threads, nbytes, aggr)
        return n, nbytes // n
    return n_threads, nbytes // n_threads


def _pattern_per_message_vec(p, approach: str, msg_bytes, mult):
    """Vector twin of ``patterns._per_message_costs``."""
    if approach.startswith("rma"):
        put = _put_msg_cost_vec(p, msg_bytes, mult)
        if "passive" in approach:
            per_link = (
                _token_path(p, p.post_overhead)
                + p.rma_sync_overhead
                + 2.0 * _ctrl_path(p)
            )
        else:
            per_link = p.rma_sync_overhead + _ctrl_path(p)
        return put, per_link
    if approach == "pt2pt_part_old":
        post = p.post_overhead * mult + _copy_vec(p, msg_bytes)
        wire = _wire_vec(p, msg_bytes)
        rx = p.am_dispatch_overhead + _copy_vec(
            p, np.minimum(msg_bytes, p.am_chunk_bytes)
        )
        msg = _MsgCostV(
            post=post, wire=wire, rx=rx,
            path=post + wire + p.latency + rx,
        )
        return msg, p.ctrl_overhead + 2.0 * p.part_completion_overhead
    msg = _tag_msg_cost_vec(p, msg_bytes, mult)
    per_link = 0.0
    if approach == "pt2pt_part":
        per_link = 2.0 * p.part_completion_overhead
    return msg, per_link


@dataclass
class _PatternLinks:
    """The link configurations of one approach group: the
    :func:`_topology_columns` shape and payload of each distinct
    ``(pattern, n_ranks, n_threads, msg_bytes)`` key, its thread
    count, and the batch's cvar knobs."""

    nbytes: np.ndarray
    max_out: np.ndarray
    max_in: np.ndarray
    max_pair_links: np.ndarray
    depth: np.ndarray
    n_links: np.ndarray
    n_threads: np.ndarray
    num_vcis: int
    aggr: int


def _pattern_times_cols(
    p, approach: str, links: _PatternLinks, link_of, compute_rate, noise_q
) -> np.ndarray:
    """Vector twin of ``patterns.predict_pattern_time`` for one
    (approach, params) group, in two stages.

    The *link stage* evaluates every term that depends only on the link
    configuration once per entry of ``links``; the *per-point stage*
    gathers those terms through ``link_of`` (each point's entry) and
    adds the compute rate and the noise quantum (``noise_q``, see
    :func:`_noise_quantum_column`) of each point.  Both stages run the
    scalar's operations in the scalar's order, so every point is
    bitwise equal to it.
    """
    # -- link stage: once per distinct link configuration ---------------
    n_threads = links.n_threads
    nbytes = links.nbytes
    max_out = links.max_out
    max_in = links.max_in

    n_msgs, msg_bytes = _pattern_link_messages(
        approach, nbytes, n_threads, links.aggr
    )
    max_pair = links.max_pair_links * n_msgs

    lanes = np.maximum(1, np.minimum(n_threads, links.num_vcis))
    per_vci = _ceil_div(n_threads, lanes)
    contenders = (per_vci - 1).astype(np.float64)
    rank_msgs = max_out * n_msgs
    zcopy_approach = (
        not approach.startswith("rma") and approach != "pt2pt_part_old"
    )
    zcopy = (
        (msg_bytes > p.eager_max)
        if zcopy_approach
        else np.zeros(len(nbytes), dtype=bool)
    )
    queue = zcopy & (lanes == 1) & (rank_msgs > 1)
    contenders = np.where(
        queue, _saturated_contenders_vec(p, contenders, rank_msgs), contenders
    )
    mult = _mult_vec(p, contenders)
    msg, per_link_sync = _pattern_per_message_vec(p, approach, msg_bytes, mult)
    sync_tail = max_out * per_link_sync

    post_work = max_out * n_msgs * msg.post / lanes
    post_work = post_work + np.where(
        zcopy, max_in * n_msgs * p.ctrl_overhead * mult / lanes, 0.0
    )
    wire_work = np.maximum(
        max_pair * msg.wire, max_out * n_msgs * msg.wire / lanes
    )
    rx_work = max_in * n_msgs * msg.rx / lanes
    bottleneck = _chain_max(post_work, wire_work, rx_work)
    barrier = _barrier_vec(p, n_threads)

    # -- per-point stage: link terms gathered through link_of -----------
    def at(term):
        return np.broadcast_to(term, nbytes.shape)[link_of]

    point_max_out = max_out[link_of]
    mu = compute_rate * 1e-6 / 1e6
    compute = point_max_out * mu * at(nbytes / n_threads)
    noise_rank = point_max_out * noise_q
    from .patterns import STREAMING_APPROACHES

    if approach == "pt2pt_single":
        hop = at(max_out * msg.path + sync_tail + barrier)
        hop_noise = noise_rank
    elif approach in STREAMING_APPROACHES:
        floor = np.maximum(
            at(bottleneck / rank_msgs), at(bottleneck / max_out) - noise_rank
        )
        hop = (
            np.maximum(at(bottleneck) - (compute + noise_rank), floor)
            + at(msg.path)
            + at(sync_tail)
            + at(barrier)
        )
        hop_noise = noise_q
    else:
        hop = (
            np.maximum(at(bottleneck) - compute, at(bottleneck / max_out))
            + at(msg.path)
            + at(sync_tail)
            + at(barrier)
        )
        hop_noise = noise_rank
    depth = links.depth[link_of]
    times = np.where(
        depth > 1, hop + (depth - 1) * (hop + compute + hop_noise), hop
    )
    return np.where(links.n_links[link_of] == 0, 0.0, times)


def _noise_quantum_column(noise, noise_us, noise_sigma_us) -> np.ndarray:
    """``patterns.noise_mean_quantum`` over columns, through the
    *scalar* function once per exact (noise, amplitude, sigma) key, so
    it is bitwise-equal by construction.

    Each column is a ``(values, codes)`` pair (a campaign chunk: the key
    is packed from the grid digits) or an array (factorized first:
    shape names as strings, floats by bit pattern).
    """
    from .patterns import noise_mean_quantum

    return _scalar_per_key(
        noise_mean_quantum, np.float64, _as_pair(noise),
        _as_pair(noise_us, dtype=np.float64),
        _as_pair(noise_sigma_us, dtype=np.float64),
    )


def pattern_times_from_columns(
    params: SystemParams,
    num_vcis: int,
    part_aggr_size: int,
    columns: Mapping[str, Any],
    n_points: int,
) -> PatternBatch:
    """Vectorized pattern predictions for ``n_points`` given bare columns.

    The pattern twin of :func:`bench_times_from_columns`: no
    ``PatternConfig`` is needed.  ``columns`` maps
    :data:`PATTERN_COLUMN_FIELDS` to ``(values, codes)`` pairs (a
    campaign chunk's grid digits, see
    :meth:`~repro.runner.scenario.ScenarioGrid.kernel_columns`),
    per-point arrays or scalars; arrays and scalars become pairs first
    (:func:`_as_pair`), so every form takes the same path.  Absent
    fields take the ``PatternConfig`` defaults.  ``params`` and the cvar
    knobs are batch constants, as in the bench twin.

    The link configurations ``(pattern, n_ranks, n_threads,
    msg_bytes)`` are factorized from the codes once; each distinct one
    gets its topology (one link-graph build per ``(pattern, n_ranks)``,
    process-lifetime cache) and, per approach, its link-stage terms
    (:func:`_pattern_times_cols`), which the points gather.  The noise
    quantum is one scalar call per distinct noise key.  Every per-point
    value is bitwise-equal to the scalar ``predict_pattern_time`` path.
    """
    if "pattern" not in columns:
        raise KeyError("pattern column is required")

    def pair(name, default, dtype=None):
        return _as_pair(columns.get(name, default), n_points, dtype)

    approach_names, approach_codes = pair("approach", "pt2pt_part")
    link_key = (
        pair("pattern", None),
        pair("n_ranks", 8, np.int64),
        pair("n_threads", 4, np.int64),
        pair("msg_bytes", 256 << 10, np.int64),
    )

    # One entry per distinct link configuration; one link-graph build
    # per (pattern, n_ranks).
    with span("kernel.topology", kind="pattern"):
        first, link_of = _factorize(*link_key)
        (pattern_names, pattern_codes), *numeric = link_key
        n_ranks, n_threads, msg_bytes = (
            values[codes[first]] for values, codes in numeric
        )
        topo, bytes_per_iteration = _topology_columns(
            (pattern_names, pattern_codes[first]), n_ranks, n_threads,
            msg_bytes,
        )

    # Column prep is model work too (the noise-quantum column calls the
    # scalar model once per exact noise triple): one kernel span covers
    # it and the approach loop, as in the bench twin.
    times = np.empty(n_points, dtype=np.float64)
    with span("kernel.eval", kind="pattern"):
        compute_rate = _materialize(
            columns.get("compute_us_per_mb", 0.0), n_points, np.float64
        )
        noise_q = _noise_quantum_column(
            pair("noise", "none"),
            pair("noise_us", 0.0, np.float64),
            pair("noise_sigma_us", 0.0, np.float64),
        )
        for code, name in enumerate(approach_names):
            idx = np.nonzero(approach_codes == code)[0]
            if not idx.size:
                continue
            if name not in APPROACH_PREDICTORS:
                # Same contract as the bench twin: an unknown name must
                # fail loudly, not fall into the bulk-gated default
                # branch with a plausible wrong number.
                raise KeyError(
                    f"no analytic predictor for approach {name!r}"
                )
            used, local = _unique_codes(link_of[idx])
            links = _PatternLinks(
                **{field: values[used] for field, values in topo.items()},
                n_threads=n_threads[used],
                num_vcis=num_vcis,
                aggr=part_aggr_size,
            )
            times[idx] = _pattern_times_cols(
                params, name, links, local, compute_rate[idx], noise_q[idx]
            )
    return PatternBatch(
        times=times,
        bytes_per_iteration=bytes_per_iteration[link_of],
        n_links=topo["n_links"][link_of],
    )
