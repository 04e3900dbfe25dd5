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
bounds) become boolean masks combined with ``np.where``.

One kernel entry per scenario kind: :func:`bench_times_from_columns`
and :func:`pattern_times_from_columns` take bare column arrays plus
the batch constants, so a campaign decodes grid indices straight into
parameter columns without constructing a spec object.
:func:`bench_batch_times` / :func:`pattern_batch` (the
:meth:`~repro.backends.base.Backend.run_batch` path) are views of
them: they group spec dataclasses by the batch constants and hand each
group's field columns to the column kernel.

Sizes are assumed to stay below 2**53 bytes (exact int64→float64
conversion); every grid in the repo is far below that.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Dict, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from ..net import SystemParams
from ..telemetry import span
from .approaches import (
    _ctrl_path,
    _rendezvous_rtt,
    _token_path,
    _zcopy_queue_contenders,
    APPROACH_PREDICTORS,
)

__all__ = [
    "bench_batch_times",
    "bench_times_from_columns",
    "pattern_batch",
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
    """``int.bit_length()`` elementwise (exact, no float log)."""
    v = np.asarray(x, dtype=np.int64).copy()
    r = np.zeros_like(v)
    for shift in (32, 16, 8, 4, 2, 1):
        mask = v >= (np.int64(1) << shift)
        r[mask] += shift
        v[mask] >>= shift
    r += (v > 0).astype(np.int64)
    return r


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


def _dense_codes(values) -> Tuple[np.ndarray, int]:
    """``(inverse, n_unique)`` of ``np.unique(values, return_inverse=True)``
    for a 1-D int64 array; a presence table replaces the sort when the
    values span no more than the array's length."""
    lo, hi = (int(values.min()), int(values.max())) if values.size else (0, 0)
    if hi - lo >= values.size:
        uniq, inverse = np.unique(values, return_inverse=True)
        return inverse, len(uniq)
    offset = values - lo
    present = np.zeros(hi - lo + 1, dtype=bool)
    present[offset] = True
    rank = np.cumsum(present) - 1
    return rank[offset], int(rank[-1]) + 1


def _factorize(*columns) -> Tuple[np.ndarray, np.ndarray]:
    """Exact group-by over equal-length 1-D key columns.

    Returns ``(first, inverse)``: ``first[g]`` is the index of group
    ``g``'s first point and ``inverse[i]`` the group of point ``i``.

    A column is a ``(names, codes)`` pair (codes used as they are,
    radix ``len(names)``), an int64 array or a float64 array.  Arrays
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
    of :func:`_factorize` (a ``(names, codes)`` column passes the name),
    so each point gets the scalar's value for its own inputs."""
    first, inverse = _factorize(*columns)
    keys = zip(*(
        [column[0][code] for code in column[1][first].tolist()]
        if isinstance(column, tuple) else column[first].tolist()
        for column in columns
    ))
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
# bench geometry columns
# ---------------------------------------------------------------------------

@dataclass
class _BenchCols:
    """Array twin of ``approaches._Geometry`` for one (params,
    vci_method) group — every field a column over the group's points."""

    params: SystemParams
    vci_method: str
    n_threads: np.ndarray
    theta: np.ndarray
    total_bytes: np.ndarray
    num_vcis: np.ndarray
    part_aggr_size: np.ndarray
    delay: np.ndarray
    compute_active: np.ndarray

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


def _tag_transfer_vec(
    cols: _BenchCols,
    n_msgs,
    nbytes,
    contenders,
    lanes,
    rx_lanes,
    rx_extra=0.0,
    path_extra=0.0,
    extra_serial=0.0,
) -> Tuple[np.ndarray, _MsgCostV]:
    """Vector twin of ``approaches._tag_transfer`` (all regimes)."""
    p = cols.params
    nbytes = np.asarray(nbytes, dtype=np.int64)
    contenders = np.asarray(contenders, dtype=np.float64)
    zsv = (
        np.asarray(lanes == 1)
        & np.asarray(n_msgs > 1)
        & (nbytes > p.eager_max)
    )
    wire_nb = _wire_vec(p, nbytes)
    rtt = _rendezvous_rtt(p)
    c_sat = np.maximum(
        contenders,
        np.minimum(_zcopy_queue_contenders(p), contenders + n_msgs / 2.0),
    )
    pair = 2.0 * p.post_overhead * _mult_vec(p, c_sat)
    saturated = zsv & ~cols.compute_active & (pair >= wire_nb)
    contenders = np.where(saturated, c_sat, contenders)
    burst = zsv & ~saturated
    prefix_msgs = np.where(
        burst, np.minimum(n_msgs, cols.n_threads), n_msgs
    )
    hump_window = (
        burst
        & ~cols.compute_active
        & (n_msgs > 2 * cols.n_threads)
        & (1.15 * rtt < wire_nb)
        & (wire_nb < 2.5 * rtt)
    )
    c2 = wire_nb / p.ctrl_overhead
    pair2 = 2.0 * p.post_overhead * _mult_vec(p, c2)
    hump_bn = np.where(
        hump_window & (pair2 > wire_nb), (pair + pair2) / 2.0, 0.0
    )
    mult = _mult_vec(p, contenders)
    msg = _tag_msg_cost_vec(p, nbytes, mult)
    rx = msg.rx + rx_extra
    path = msg.path + path_extra
    # zcopy-single-VCI regime: RTS prefix serializes ahead of the drain.
    post_half = p.post_overhead * mult
    z_bn = _chain_max(
        post_half, msg.wire, rx / rx_lanes, extra_serial, hump_bn
    )
    z_transfer = (
        np.maximum(prefix_msgs * post_half + (n_msgs - 1) * z_bn
                   - cols.delay, 0.0)
        + path
    )
    # generic stage-bottleneck pipeline
    e_bn = _chain_max(msg.post / lanes, msg.wire, rx / rx_lanes, extra_serial)
    e_transfer = np.maximum((n_msgs - 1) * e_bn - cols.delay, 0.0) + path
    return np.where(zsv, z_transfer, e_transfer), msg


def _pipeline_vec(n_msgs, cost: _MsgCostV, post_lanes, rx_lanes, delay,
                  extra_serial=0.0):
    """Vector twin of ``approaches._pipeline``."""
    bottleneck = _chain_max(
        cost.post / post_lanes, cost.wire, cost.rx / rx_lanes, extra_serial
    )
    return np.maximum((n_msgs - 1) * bottleneck - delay, 0.0) + cost.path


# ---------------------------------------------------------------------------
# per-approach vector predictors (twins of approaches._predict_*)
# ---------------------------------------------------------------------------

def _vec_pt2pt_single(cols: _BenchCols) -> np.ndarray:
    p = cols.params
    barrier = _barrier_vec(p, cols.n_threads)
    msg = _tag_msg_cost_vec(p, cols.total_bytes, 1.0)
    return 2.0 * barrier + msg.path


def _vec_pt2pt_many(cols: _BenchCols) -> np.ndarray:
    p = cols.params
    n, s = cols.n_parts, cols.part_bytes
    barrier = _barrier_vec(p, cols.n_threads)
    lanes = np.maximum(1, np.minimum(cols.n_threads, cols.num_vcis))
    per_vci = _ceil_div(cols.n_threads, lanes)
    transfer, msg = _tag_transfer_vec(
        cols, n, s, per_vci - 1, lanes, lanes
    )
    prepost = n * p.recv_post_overhead + msg.rx
    return barrier + np.maximum(transfer, prepost)


def _part_post_geometry_vec(cols: _BenchCols, n_msgs, msg_bytes):
    """Vector twin of ``approaches._part_post_geometry``."""
    p = cols.params
    if cols.vci_method == "comm":
        ones = np.ones_like(cols.n_threads)
        stagger = np.where(msg_bytes > p.eager_max, 1.0, 0.8)
        return ones, stagger * (cols.n_threads - 1), ones
    lanes = np.maximum(
        1, np.minimum(np.minimum(cols.n_threads, cols.num_vcis), n_msgs)
    )
    per_vci = _ceil_div(
        cols.n_threads,
        np.maximum(1, np.minimum(cols.num_vcis, cols.n_threads)),
    )
    rx_lanes = np.maximum(1, np.minimum(n_msgs, cols.num_vcis))
    return lanes, per_vci - 1.0, rx_lanes


def _pready_vec(p: SystemParams, n_threads) -> np.ndarray:
    """``pready_atomic_time(n_threads) + pready_overhead`` columns."""
    extra = np.maximum(0, n_threads - 1)
    return (
        p.atomic_overhead + p.pready_atomic_bounce * extra
    ) + p.pready_overhead


def _vec_pt2pt_part(cols: _BenchCols) -> np.ndarray:
    p = cols.params
    n_msgs = _negotiated_vec(cols.n_parts, cols.total_bytes, cols.part_aggr_size)
    msg_bytes = cols.total_bytes // n_msgs
    barrier = _barrier_vec(p, cols.n_threads)
    lanes, contenders, rx_lanes = _part_post_geometry_vec(
        cols, n_msgs, msg_bytes
    )
    pready = _pready_vec(p, cols.n_threads)
    preadys_per_msg = cols.n_parts / n_msgs
    completion_atomic = (
        p.atomic_overhead + p.atomic_bounce_coeff * (rx_lanes - 1) / 2.0
    )
    transfer, msg = _tag_transfer_vec(
        cols, n_msgs, msg_bytes, contenders, lanes, rx_lanes,
        rx_extra=completion_atomic,
        path_extra=pready * preadys_per_msg + completion_atomic,
        extra_serial=np.maximum(pready * preadys_per_msg, completion_atomic),
    )
    prepost = n_msgs * p.recv_post_overhead + msg.rx + completion_atomic
    return (
        barrier + np.maximum(transfer, prepost) + p.part_completion_overhead
    )


def _vec_pt2pt_part_old(cols: _BenchCols) -> np.ndarray:
    p = cols.params
    n = cols.n_parts
    barrier = _barrier_vec(p, cols.n_threads)
    pready = _pready_vec(p, cols.n_threads)
    pready_chain = (
        np.maximum((n - 1) * pready - cols.delay, 0.0) + pready
    )
    am_path = (
        p.post_overhead
        + _copy_vec(p, cols.total_bytes)
        + _wire_vec(p, cols.total_bytes)
        + p.latency
        + p.am_dispatch_overhead
        + _copy_vec(p, np.minimum(cols.total_bytes, p.am_chunk_bytes))
    )
    cts = p.ctrl_overhead
    return (
        barrier
        + np.maximum(pready_chain, cts)
        + am_path
        + p.part_completion_overhead
    )


def _rma_stages_vec(cols: _BenchCols, many: bool):
    """(put cost, lanes, windows, mult) — twin of ``_rma_put_stages``."""
    p = cols.params
    windows = cols.n_threads if many else np.ones_like(cols.n_threads)
    lanes = np.maximum(1, np.minimum(windows, cols.num_vcis))
    actors_per_lane = _ceil_div(cols.n_threads, lanes)
    mult = _mult_vec(p, actors_per_lane - 1)
    return _put_msg_cost_vec(p, cols.part_bytes, mult), lanes, windows, mult


def _rma_scan_vec(cols: _BenchCols, windows) -> np.ndarray:
    sharing = _ceil_div(windows, np.minimum(windows, cols.num_vcis))
    return cols.params.rma_progress_scan * (sharing - 1)


def _vec_rma_passive(cols: _BenchCols, many: bool) -> np.ndarray:
    p = cols.params
    n = cols.n_parts
    barrier = _barrier_vec(p, cols.n_threads)
    put, lanes, windows, mult = _rma_stages_vec(cols, many)
    put_start = p.recv_overhead + barrier
    flushes = windows if many else 1
    post_work = (n * put.post + flushes * p.ctrl_overhead * mult) / lanes
    wire_work = n * put.wire + flushes * p.wire_time(0)
    rx_work = (n * put.rx + flushes * p.ctrl_overhead) / lanes
    serial = _chain_max(post_work, wire_work, rx_work)
    flush_handled = (
        put_start
        + np.maximum(serial - cols.delay, 0.0)
        + p.rma_sync_overhead
        + p.wire_time(0)
        + p.latency
        + p.ctrl_overhead
        + _rma_scan_vec(cols, windows)
    )
    ack = _ctrl_path(p)
    done = _token_path(p, p.post_overhead)
    return flush_handled + ack + done


def _vec_rma_active(cols: _BenchCols, many: bool) -> np.ndarray:
    p = cols.params
    n = cols.n_parts
    barrier = _barrier_vec(p, cols.n_threads)
    put, lanes, windows, _ = _rma_stages_vec(cols, many)
    tokens_avail = (
        p.rma_sync_overhead
        + p.ctrl_overhead
        + (windows - 1) * (p.rma_sync_overhead + p.ctrl_overhead)
    )
    open_epochs = windows * p.rma_sync_overhead
    put_start = np.maximum(tokens_avail, open_epochs) + barrier
    post_bn = put.post / lanes
    post_done = (
        put_start
        + np.maximum((n - 1) * post_bn - cols.delay, 0.0)
        + put.post
    )
    transfer_end = put_start + _pipeline_vec(n, put, lanes, lanes, cols.delay)
    complete_issued = (
        post_done + windows * (p.rma_sync_overhead + p.ctrl_overhead)
    )
    return (
        np.maximum(complete_issued + p.wire_time(0) + p.latency, transfer_end)
        + p.ctrl_overhead
    )


#: Registry: approach name -> vector predictor over a ``_BenchCols``.
_VECTOR_PREDICTORS = {
    "pt2pt_single": _vec_pt2pt_single,
    "pt2pt_many": _vec_pt2pt_many,
    "pt2pt_part": _vec_pt2pt_part,
    "pt2pt_part_old": _vec_pt2pt_part_old,
    "rma_single_passive": lambda c: _vec_rma_passive(c, many=False),
    "rma_many_passive": lambda c: _vec_rma_passive(c, many=True),
    "rma_single_active": lambda c: _vec_rma_active(c, many=False),
    "rma_many_active": lambda c: _vec_rma_active(c, many=True),
}

assert set(_VECTOR_PREDICTORS) == set(APPROACH_PREDICTORS), (
    "vector kernel out of sync with the scalar predictor registry"
)


# ---------------------------------------------------------------------------
# bench entry points
# ---------------------------------------------------------------------------

def _delay_columns(total_bytes, n_threads, theta, gamma, gaussian_mu):
    """Vector twin of ``predict_bench_time``'s delay/compute logic."""
    g = gamma * 1e-6 / 1e6
    raw_delay = g * (total_bytes // (n_threads * theta))
    gaussian = gaussian_mu > 0
    delay = np.where(gaussian, 0.0, raw_delay)
    compute_active = ~gaussian & (gamma > 0)
    return delay, compute_active


def _approach_codes(approach) -> Tuple[List[str], np.ndarray]:
    """Normalize a categorical column to ``(names, codes)``.

    Accepts a ready-made ``(names, codes)`` pair (a campaign chunk
    derives codes straight from the grid's axis digits — no string
    hashing over the batch), or any array of names (factorized here).
    Shared by every categorical pattern/bench column (approach,
    pattern, noise).
    """
    if isinstance(approach, tuple):
        names, codes = approach
        return list(names), np.asarray(codes, dtype=np.int64)
    approach = np.asarray(approach)
    names, codes = np.unique(approach.astype(str), return_inverse=True)
    return [str(name) for name in names], np.asarray(
        codes, dtype=np.int64
    ).reshape(-1)


def bench_times_from_columns(
    params: SystemParams,
    num_vcis: int,
    vci_method: str,
    part_aggr_size: int,
    columns: Mapping[str, Any],
    n_points: int,
) -> np.ndarray:
    """Predicted times for ``n_points`` bench points given bare columns.

    ``columns`` maps :data:`BENCH_COLUMN_FIELDS` to per-point arrays (or
    scalars, broadcast to the batch); absent fields take the
    ``BenchSpec`` defaults.  The approach column may also be a
    ``(names, codes)`` pair (see :func:`_approach_codes`).  ``params``
    and the three cvar knobs are batch constants — callers with
    heterogeneous machine models or cvars group first (as
    :func:`bench_batch_times` does).  No spec object is needed.
    """
    def col(name, dtype, default):
        value = columns.get(name, default)
        if np.isscalar(value):
            return np.full(n_points, value, dtype=dtype)
        return np.asarray(value, dtype=dtype)

    approach = columns["approach"]
    if isinstance(approach, str):
        approach = ([approach], np.zeros(n_points, dtype=np.int64))
    with span("kernel.eval", kind="bench"):
        names, codes = _approach_codes(approach)
        n_threads = col("n_threads", np.int64, 1)
        theta = col("theta", np.int64, 1)
        total_bytes = col("total_bytes", np.int64, 0)
        delay, compute_active = _delay_columns(
            total_bytes, n_threads, theta,
            col("gamma_us_per_mb", np.float64, 0.0),
            col("gaussian_mu_us_per_mb", np.float64, 0.0),
        )
        times = np.empty(n_points, dtype=np.float64)
        for code, name in enumerate(names):
            if name not in _VECTOR_PREDICTORS:
                raise KeyError(f"no analytic predictor for approach {name!r}")
            idx = np.nonzero(codes == code)[0]
            if not idx.size:
                continue
            times[idx] = _VECTOR_PREDICTORS[name](_BenchCols(
                params=params,
                vci_method=vci_method,
                n_threads=n_threads[idx],
                theta=theta[idx],
                total_bytes=total_bytes[idx],
                num_vcis=np.full(idx.size, num_vcis, dtype=np.int64),
                part_aggr_size=np.full(
                    idx.size, part_aggr_size, dtype=np.int64
                ),
                delay=delay[idx],
                compute_active=compute_active[idx],
            ))
        return times


def _spec_groups(
    specs: Sequence[Any], constants: Sequence[str], fields: Sequence[str]
) -> Iterator[Tuple[tuple, np.ndarray, Dict[str, list]]]:
    """Group spec dataclasses by the batch constants a column kernel
    takes: yields ``(constant values, point indices, {field: values})``
    per group, in first-appearance order."""
    key_of = attrgetter(*constants)
    groups: Dict[tuple, List[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault(key_of(spec), []).append(i)
    for key, indices in groups.items():
        group = [specs[i] for i in indices]
        yield key, np.array(indices), {
            field: [getattr(spec, field) for spec in group]
            for field in fields
        }


def bench_batch_times(specs: Sequence[Any]) -> np.ndarray:
    """Predicted times for a batch of ``BenchSpec``-shaped objects: one
    :func:`bench_times_from_columns` call per distinct (``params``,
    ``cvars.num_vcis``, ``cvars.vci_method``, ``cvars.part_aggr_size``).

    Point ``i`` of the result is bitwise-equal to
    ``predict_bench_time(specs[i]).time``.
    """
    times = np.empty(len(specs), dtype=np.float64)
    for (params, num_vcis, vci_method, aggr), idx, columns in _spec_groups(
        specs,
        ("params", "cvars.num_vcis", "cvars.vci_method",
         "cvars.part_aggr_size"),
        BENCH_COLUMN_FIELDS,
    ):
        times[idx] = bench_times_from_columns(
            params, num_vcis, vci_method, aggr, columns, len(idx)
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
    """The topology columns of :class:`_PatternCols` (a dict) and the
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
class _PatternCols:
    """Array twin of the scalar pattern predictor's inputs for one
    (approach, params) group — the :func:`_topology_columns` shape and
    payload columns, plus the per-point spec columns."""

    nbytes: np.ndarray
    max_out: np.ndarray
    max_in: np.ndarray
    max_pair_links: np.ndarray
    depth: np.ndarray
    n_links: np.ndarray
    n_threads: np.ndarray
    num_vcis: np.ndarray
    aggr: np.ndarray
    compute_rate: np.ndarray
    #: Expected slowest-thread injected delay per quantum (seconds) —
    #: ``patterns.noise_mean_quantum`` over the noise columns.
    noise_q: np.ndarray


def _pattern_times_cols(p, approach: str, cols: _PatternCols) -> np.ndarray:
    """Vector twin of ``patterns.predict_pattern_time`` for one
    (approach, params) group over bare columns."""
    n_threads = cols.n_threads
    nbytes = cols.nbytes
    max_out = cols.max_out
    max_in = cols.max_in

    n_msgs, msg_bytes = _pattern_link_messages(
        approach, nbytes, n_threads, cols.aggr
    )
    max_pair = cols.max_pair_links * n_msgs

    lanes = np.maximum(1, np.minimum(n_threads, cols.num_vcis))
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
        queue,
        np.maximum(
            contenders,
            np.minimum(
                _zcopy_queue_contenders(p), contenders + rank_msgs / 2.0
            ),
        ),
        contenders,
    )
    mult = _mult_vec(p, contenders)
    msg, per_link_sync = _pattern_per_message_vec(p, approach, msg_bytes, mult)
    sync_tail = max_out * per_link_sync

    mu = cols.compute_rate * 1e-6 / 1e6
    compute = max_out * mu * (nbytes / n_threads)
    noise_rank = max_out * cols.noise_q

    post_work = max_out * n_msgs * msg.post / lanes
    post_work = post_work + np.where(
        zcopy, max_in * n_msgs * p.ctrl_overhead * mult / lanes, 0.0
    )
    wire_work = np.maximum(
        max_pair * msg.wire, max_out * n_msgs * msg.wire / lanes
    )
    rx_work = max_in * n_msgs * msg.rx / lanes
    bottleneck = _chain_max(post_work, wire_work, rx_work)
    from .patterns import STREAMING_APPROACHES

    if approach == "pt2pt_single":
        hop = max_out * msg.path + sync_tail
        hop_noise = noise_rank
    elif approach in STREAMING_APPROACHES:
        floor = np.maximum(
            bottleneck / rank_msgs, bottleneck / max_out - noise_rank
        )
        hop = (
            np.maximum(bottleneck - (compute + noise_rank), floor)
            + msg.path
            + sync_tail
        )
        hop_noise = cols.noise_q
    else:
        hop = (
            np.maximum(bottleneck - compute, bottleneck / max_out)
            + msg.path
            + sync_tail
        )
        hop_noise = noise_rank
    hop = hop + _barrier_vec(p, n_threads)
    times = np.where(
        cols.depth > 1,
        hop + (cols.depth - 1) * (hop + compute + hop_noise),
        hop,
    )
    return np.where(cols.n_links == 0, 0.0, times)


def _noise_quantum_column(noise, noise_us, noise_sigma_us) -> np.ndarray:
    """``patterns.noise_mean_quantum`` over columns, through the
    *scalar* function once per exact (noise, amplitude, sigma) key —
    floats keyed by bit pattern, so it is bitwise-equal by construction.

    ``noise`` is either a ``(names, codes)`` pair (a campaign chunk)
    or an array of shape names.
    """
    from .patterns import noise_mean_quantum

    return _scalar_per_key(
        noise_mean_quantum, np.float64, _approach_codes(noise),
        np.asarray(noise_us, dtype=np.float64),
        np.asarray(noise_sigma_us, dtype=np.float64),
    )


def pattern_batch(configs: Sequence[Any]) -> PatternBatch:
    """Vectorized predictions for a batch of ``PatternConfig`` objects:
    one :func:`pattern_times_from_columns` call per distinct
    (``params``, ``cvars.num_vcis``, ``cvars.part_aggr_size``).

    Point ``i`` of ``times`` is bitwise-equal to
    ``predict_pattern_time(configs[i]).time``; ``bytes_per_iteration``
    and ``n_links`` match the pattern the scalar backend would build.
    """
    out = PatternBatch(
        times=np.empty(len(configs), dtype=np.float64),
        bytes_per_iteration=np.empty(len(configs), dtype=np.int64),
        n_links=np.empty(len(configs), dtype=np.int64),
    )
    for (params, num_vcis, aggr), idx, columns in _spec_groups(
        configs,
        ("params", "cvars.num_vcis", "cvars.part_aggr_size"),
        PATTERN_COLUMN_FIELDS,
    ):
        batch = pattern_times_from_columns(
            params, num_vcis, aggr, columns, len(idx)
        )
        out.times[idx] = batch.times
        out.bytes_per_iteration[idx] = batch.bytes_per_iteration
        out.n_links[idx] = batch.n_links
    return out


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
    :data:`PATTERN_COLUMN_FIELDS` to per-point arrays (or scalars,
    broadcast); absent fields take the ``PatternConfig`` defaults.  The
    categorical columns (``pattern``, ``approach``, ``noise``) may be
    ``(names, codes)`` pairs factorized straight from the grid digits
    (see :meth:`~repro.runner.scenario.ScenarioGrid.kernel_columns`), a
    bare name, or arrays of names.  ``params`` and the cvar knobs are
    batch constants, as in the bench twin (:func:`pattern_batch`
    groups by them).

    Link graphs are built once per unique ``(pattern, n_ranks)``
    (process-lifetime cache) and their shapes gathered to per-point
    columns; the payload sizes are computed as columns.  Every
    per-point value is bitwise-equal to the scalar
    ``predict_pattern_time`` path.
    """
    def col(name, dtype, default):
        value = columns.get(name, default)
        if np.isscalar(value):
            return np.full(n_points, value, dtype=dtype)
        return np.asarray(value, dtype=dtype)

    def categorical(name, default):
        value = columns.get(name, default)
        if isinstance(value, str):
            return [value], np.zeros(n_points, dtype=np.int64)
        return _approach_codes(value)

    if "pattern" not in columns:
        raise KeyError("pattern column is required")
    pattern_names, pattern_codes = categorical("pattern", None)
    approach_names, approach_codes = categorical("approach", "pt2pt_part")
    n_ranks = col("n_ranks", np.int64, 8)
    n_threads = col("n_threads", np.int64, 4)
    msg_bytes = col("msg_bytes", np.int64, 256 << 10)

    # One link-graph build per unique (pattern, n_ranks); the payload
    # is a column.
    with span("kernel.topology", kind="pattern"):
        topo, bytes_per_iteration = _topology_columns(
            (pattern_names, pattern_codes), n_ranks, n_threads, msg_bytes
        )

    # Column prep is model work too (the noise-quantum column calls the
    # scalar model once per exact noise triple): one kernel span covers
    # it and the approach loop, as in the bench twin.
    times = np.empty(n_points, dtype=np.float64)
    with span("kernel.eval", kind="pattern"):
        cols = dict(
            topo,
            n_threads=n_threads,
            num_vcis=np.full(n_points, num_vcis, dtype=np.int64),
            aggr=np.full(n_points, part_aggr_size, dtype=np.int64),
            compute_rate=col("compute_us_per_mb", np.float64, 0.0),
            noise_q=_noise_quantum_column(
                categorical("noise", "none"),
                col("noise_us", np.float64, 0.0),
                col("noise_sigma_us", np.float64, 0.0),
            ),
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
            times[idx] = _pattern_times_cols(params, name, _PatternCols(
                **{field: values[idx] for field, values in cols.items()}
            ))
    return PatternBatch(
        times=times,
        bytes_per_iteration=bytes_per_iteration,
        n_links=topo["n_links"],
    )
