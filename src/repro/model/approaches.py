"""Closed-form cost models for every benchmark approach (the analytic backend).

Models the full two-rank benchmark template of
:mod:`repro.bench.harness`: for each
of the eight registered approaches this module composes the simulator's
calibrated costs (:class:`~repro.net.params.SystemParams`, honoring the
:class:`~repro.mpi.cvars.Cvars` runtime knobs) into a first-order
prediction of the *measured communication time* — time-to-solution minus
compute removal, exactly the §2.1 metric the simulator reports.

The composition mirrors the simulated pipeline stage by stage:

* **sender injection** — per-message critical-section time under the VCI
  lock, inflated by :meth:`SystemParams.contention_multiplier` for the
  threads sharing each VCI (Fig. 5's congestion), over ``min(threads,
  vcis)`` parallel lanes;
* **wire serialization** — every forward packet (handshakes included)
  occupies the single directional wire for
  :meth:`SystemParams.wire_time` (Fig. 6's residual bound);
* **receiver processing** — per-message RX work serialized per VCI,
  plus the partitioned path's shared completion-counter atomics
  (Fig. 6's ≈×4 residual);
* **pipelining** — with ``n`` messages and a compute delay ``D`` on the
  last partition, the measured time is ``max((n-1)·bottleneck - D, 0)``
  plus one full message path (Eq. 3 generalized to per-stage
  bottlenecks).

Accuracy is first-order by design: the discrete-event simulator resolves
transient queueing, lock-handoff interleavings, and barrier skew that a
closed form cannot.  The per-approach agreement is measured — not
assumed — by ``python -m repro figures --backend both`` (the
cross-validation report); the enforced tolerances live in
:data:`repro.backends.crossval.TOLERANCES`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict

from ..net import Protocol, SystemParams

__all__ = [
    "BenchPrediction",
    "predict_bench_time",
    "APPROACH_PREDICTORS",
]

# ---------------------------------------------------------------------------
# hand-set corrections
# ---------------------------------------------------------------------------
#
# The closed form's calibrated shape factors, named once: the scalar
# predictors here and in :mod:`.patterns` and the vector twins in
# :mod:`.vector` all read them from this module (the vector code as
# ``approaches.NAME``, at call time), so one edit moves every evaluator.

#: Share of the RTS/CTS round trip that the saturated double post must
#: fill before the single-VCI rendezvous lock queue stops growing
#: (:func:`_zcopy_queue_contenders`); calibrates the partially
#: overlapped ramp-up.
ZCOPY_QUEUE_RTT_SHARE = 0.8
#: Messages per extra lock contender while a rendezvous pipeline ramps
#: its queue toward saturation (:func:`_saturated_contenders`): a short
#: pipeline reaches at most ``contenders + n_msgs / ZCOPY_RAMP_DIVISOR``.
ZCOPY_RAMP_DIVISOR = 2.0
#: Wire slot, in handshake RTTs, above which the escalated episode-peak
#: hump ignites (below it the base queue feedback keeps pace).
ZCOPY_HUMP_MIN_RTT = 1.15
#: Wire slot, in handshake RTTs, beyond which the CTS stream starves
#: and the hump resets (the plain wire bound is then exact).
ZCOPY_HUMP_MAX_RTT = 2.5
#: Messages per thread a pipeline must exceed before the hump builds.
ZCOPY_HUMP_ONSET = 2
#: Effective share of the ``N - 1`` other threads contending on a
#: ``comm``-method VCI for eager partitioned messages: the serialized
#: Pready chain staggers the threads' arrivals at the lock.
COMM_VCI_STAGGER = 0.8
#: Delivering lanes per contender on the receiver's shared completion
#: counter: its episode peak ramps with the lanes, averaging about half
#: their count over a figure-sized burst.
COMPLETION_PEAK_DIVISOR = 2.0


@dataclass(frozen=True)
class BenchPrediction:
    """Predicted measured communication time for one benchmark point."""

    approach: str
    time: float
    #: Named additive/bottleneck contributions (seconds) for reports.
    breakdown: Dict[str, float]


@dataclass(frozen=True)
class _Geometry:
    """Spec fields the predictors consume (decoupled from BenchSpec)."""

    params: SystemParams
    n_threads: int
    theta: int
    total_bytes: int
    num_vcis: int
    vci_method: str
    part_aggr_size: int
    #: Compute delay of the last partition (s); overlappable by pipelining.
    delay: float
    #: True when any compute model staggers the threads' posts (even a
    #: delay-free one): a busy producer never saturates the VCI lock.
    compute_active: bool = False

    @property
    def n_parts(self) -> int:
        return self.n_threads * self.theta

    @property
    def part_bytes(self) -> int:
        return self.total_bytes // self.n_parts


@dataclass(frozen=True)
class _MsgCost:
    """Per-message stage costs of one transfer protocol."""

    #: Sender critical-section time (VCI lock held), incl. eager pack.
    post: float
    #: Forward-wire occupancy (data + any forward handshake packets).
    wire: float
    #: Receiver-side processing (RX loop), incl. eager unpack.
    rx: float
    #: One-message end-to-end path, posting to receive completion.
    path: float


def _tag_msg_cost(p: SystemParams, nbytes: int, mult: float) -> _MsgCost:
    """Stage costs of one tag-matched message (short/bcopy/zcopy)."""
    proto = p.protocol_for(nbytes)
    if proto is Protocol.ZCOPY:
        # RTS -> (match) -> CTS -> data; the CTS crosses the reverse
        # wire, so only RTS + data load the forward direction.  The
        # progress engine's data injection contends on the same VCI
        # lock as the threads' RTS posts.
        post = p.post_overhead * mult * 2.0
        wire = p.wire_time(0) + p.wire_time(nbytes)
        rx = p.ctrl_overhead + p.put_handler_overhead
        path = (
            p.post_overhead * mult + p.wire_time(0) + p.latency
            + p.ctrl_overhead                      # RTS handled
            + p.ctrl_overhead + p.wire_time(0) + p.latency
            + p.ctrl_overhead                      # CTS answered + handled
            + p.post_overhead                      # data injected
            + p.wire_time(nbytes) + p.latency + p.put_handler_overhead
        )
        return _MsgCost(post=post, wire=wire, rx=rx, path=path)
    pack = p.copy_time(nbytes) if proto is Protocol.BCOPY else 0.0
    unpack = p.copy_time(nbytes) if proto is Protocol.BCOPY else 0.0
    post = p.post_overhead * mult + pack
    wire = p.wire_time(nbytes)
    rx = p.recv_overhead + unpack
    return _MsgCost(
        post=post, wire=wire, rx=rx, path=post + wire + p.latency + rx
    )


def _put_msg_cost(p: SystemParams, nbytes: int, mult: float) -> _MsgCost:
    """Stage costs of one RMA put (no matching at the target)."""
    post = p.put_overhead * mult
    wire = p.wire_time(nbytes)
    rx = p.put_handler_overhead
    return _MsgCost(
        post=post, wire=wire, rx=rx, path=post + wire + p.latency + rx
    )


def _token_path(p: SystemParams, send_overhead: float) -> float:
    """One 0-byte notification message end to end."""
    return send_overhead + p.wire_time(0) + p.latency + p.recv_overhead


def _ctrl_path(p: SystemParams) -> float:
    """One 0-byte control packet end to end (posted at ctrl cost)."""
    return p.ctrl_overhead + p.wire_time(0) + p.latency + p.ctrl_overhead


def _rendezvous_rtt(p: SystemParams) -> float:
    """The RTS→CTS handshake round trip that paces rendezvous data
    injections (RTS wire + handling, CTS answer + wire + handling)."""
    return 2.0 * (p.wire_time(0) + p.latency) + 3.0 * p.ctrl_overhead


def _lanes(geo: _Geometry, actors: int) -> int:
    """Parallel posting/processing lanes for ``actors`` concurrent
    contexts spread over the configured VCIs."""
    return max(1, min(actors, geo.num_vcis))


def _zcopy_queue_contenders(p: SystemParams) -> float:
    """Steady-state VCI-lock contender count of a saturated rendezvous
    pipeline on a single VCI.

    Each in-flight message spawns a progress-engine data injection that
    queues on the same lock as the threads' RTS posts; the queue (and
    with it the episode-peak contender count) grows until the two posts
    per message cost as much as the RTS/CTS round trip that feeds them.
    Solving ``2·post·M(c) = s·rtt`` for the quadratic multiplier
    ``M(c) = 1 + a·c + b·c²`` gives the saturation point, where ``s``
    is :data:`ZCOPY_QUEUE_RTT_SHARE` (it calibrates the partially
    overlapped ramp-up)."""
    if p.post_overhead <= 0:
        return 0.0  # free posts never saturate the lock
    rtt_share = ZCOPY_QUEUE_RTT_SHARE * _rendezvous_rtt(p)
    target = rtt_share / (2.0 * p.post_overhead)
    if target <= 1.0:
        return 0.0
    a, b = p.vci_contention_coeff, p.vci_contention_quad
    if b <= 0:
        return (target - 1.0) / a if a > 0 else 0.0
    return (-a + math.sqrt(a * a + 4.0 * b * (target - 1.0))) / (2.0 * b)


def _saturated_contenders(p: SystemParams, contenders, n_msgs):
    """Contender count of a single-VCI rendezvous pipeline of ``n_msgs``
    messages once its lock queue has built: the saturation point of
    :func:`_zcopy_queue_contenders`, but the queue can only build as far
    as the messages feeding it (:data:`ZCOPY_RAMP_DIVISOR` per extra
    contender), so short pipelines never reach it."""
    ramp = contenders + n_msgs / ZCOPY_RAMP_DIVISOR
    return max(contenders, min(_zcopy_queue_contenders(p), ramp))


def _tag_transfer(
    geo: _Geometry,
    n_msgs: int,
    nbytes: int,
    contenders: float,
    lanes: int,
    rx_lanes: int,
    rx_extra: float = 0.0,
    path_extra: float = 0.0,
    extra_serial: float = 0.0,
):
    """Last-message completion time of a tag-matched message pipeline,
    net of the overlappable compute delay, plus the per-message cost.

    Returns ``(transfer, msg)``.  Beyond the generic stage-bottleneck
    pipeline this captures the single-VCI rendezvous regime: every
    progress-engine data injection queues on the VCI lock *behind* the
    threads' already-enqueued RTS posts (the lock grants FIFO), so the
    RTS prefix serializes in front of the data drain instead of
    overlapping it — and the queue feedback saturates the contender
    count (see :func:`_zcopy_queue_contenders`).
    """
    p = geo.params
    zcopy_single_vci = (
        lanes == 1
        and n_msgs > 1
        and p.protocol_for(nbytes) is Protocol.ZCOPY
    )
    prefix_msgs = n_msgs
    hump_bn = 0.0
    if zcopy_single_vci:
        # The queue feedback only sustains itself while the saturated
        # double post still outpaces the wire and no compute delay
        # staggers the producers; otherwise the lock queue drains and
        # only the initial thread burst serializes ahead of the data.
        c_sat = _saturated_contenders(p, contenders, n_msgs)
        pair = 2.0 * p.post_overhead * p.contention_multiplier(c_sat)
        wire = p.wire_time(nbytes)
        rtt = _rendezvous_rtt(p)
        if not geo.compute_active and pair >= wire:
            contenders = c_sat
        else:
            prefix_msgs = min(n_msgs, geo.n_threads)
            if (
                not geo.compute_active
                and n_msgs > ZCOPY_HUMP_ONSET * geo.n_threads
                and ZCOPY_HUMP_MIN_RTT * rtt < wire < ZCOPY_HUMP_MAX_RTT * rtt
            ):
                # Escalated episode-peak regime: while one data packet
                # crosses the wire, ~wire/ctrl_overhead CTS-spawned
                # injections pile onto the never-idle lock, so its
                # sticky peak climbs to that count and later posts pay
                # the inflated multiplier — the run splits between the
                # base and the escalated plateau, inside the window of
                # wire slots the ZCOPY_HUMP_* constants bound.
                c2 = wire / p.ctrl_overhead
                pair2 = 2.0 * p.post_overhead * p.contention_multiplier(c2)
                if pair2 > wire:
                    hump_bn = (pair + pair2) / 2.0
    mult = p.contention_multiplier(contenders)
    msg = _tag_msg_cost(p, nbytes, mult)
    cost = replace(msg, rx=msg.rx + rx_extra, path=msg.path + path_extra)
    if not zcopy_single_vci:
        transfer = _pipeline(
            n_msgs, cost, lanes, rx_lanes, geo.delay, extra_serial
        )
        return transfer, msg
    post_half = p.post_overhead * mult
    prefix = prefix_msgs * post_half
    bn = max(post_half, cost.wire, cost.rx / rx_lanes, extra_serial, hump_bn)
    transfer = max(prefix + (n_msgs - 1) * bn - geo.delay, 0.0) + cost.path
    return transfer, msg


def _pipeline(
    n_msgs: int,
    cost: _MsgCost,
    post_lanes: int,
    rx_lanes: int,
    delay: float,
    extra_serial: float = 0.0,
) -> float:
    """Last-message completion time of an ``n_msgs`` pipeline.

    ``extra_serial`` is additional globally-serialized per-message work
    (e.g. the partitioned path's shared-counter atomics).  The delayed
    last partition overlaps the ``n_msgs - 1`` earlier transfers (Eq. 3
    generalized); one full message path closes the pipeline.
    """
    bottleneck = max(
        cost.post / post_lanes,
        cost.wire,
        cost.rx / rx_lanes,
        extra_serial,
    )
    return max((n_msgs - 1) * bottleneck - delay, 0.0) + cost.path


# ---------------------------------------------------------------------------
# per-approach predictors
# ---------------------------------------------------------------------------

def _predict_pt2pt_single(geo: _Geometry) -> BenchPrediction:
    p = geo.params
    barrier = p.barrier_time(geo.n_threads)
    msg = _tag_msg_cost(p, geo.total_bytes, 1.0)
    # Bulk semantics: both team barriers precede the single send, and
    # the compute delay is fully removed by the metric.
    time = 2.0 * barrier + msg.path
    return BenchPrediction(
        "pt2pt_single", time,
        {"barriers": 2.0 * barrier, "message": msg.path},
    )


def _predict_pt2pt_many(geo: _Geometry) -> BenchPrediction:
    p = geo.params
    n, s = geo.n_parts, geo.part_bytes
    barrier = p.barrier_time(geo.n_threads)
    # Each thread duplicates the communicator: one VCI per thread when
    # available, otherwise threads share and pay the lock contention.
    lanes = _lanes(geo, geo.n_threads)
    per_vci = math.ceil(geo.n_threads / lanes)
    transfer, msg = _tag_transfer(geo, n, s, per_vci - 1, lanes, lanes)
    # The receiver's master pre-posts all n receives before its team
    # barrier; a huge partition count can outlast the arrivals.
    prepost = n * p.recv_post_overhead + msg.rx
    time = barrier + max(transfer, prepost)
    return BenchPrediction(
        "pt2pt_many", time,
        {"barrier": barrier, "transfer": transfer, "prepost_bound": prepost},
    )


def _negotiated_msgs(geo: _Geometry) -> int:
    from ..mpi.partitioned import negotiate_message_count

    return negotiate_message_count(
        geo.n_parts, geo.n_parts, geo.total_bytes, geo.part_aggr_size
    )


def _part_post_geometry(geo: _Geometry, n_msgs: int, msg_bytes: int):
    """(lanes, base contenders, rx lanes) for partitioned messages."""
    if geo.vci_method == "comm":
        # Partitioned traffic follows its communicator's single VCI.
        # The serialized pready chain staggers the threads' arrivals at
        # the lock, so the episode peak ramps up instead of starting at
        # N - 1 (COMM_VCI_STAGGER) — except on the rendezvous path,
        # where the progress engine's data posts keep the queue
        # saturated at the full thread count.
        proto = geo.params.protocol_for(msg_bytes)
        stagger = 1.0 if proto is Protocol.ZCOPY else COMM_VCI_STAGGER
        return 1, stagger * (geo.n_threads - 1), 1
    # tag_rr / thread: messages spread round-robin over the VCIs.
    lanes = max(1, min(geo.n_threads, geo.num_vcis, n_msgs))
    per_vci = math.ceil(geo.n_threads / max(1, min(geo.num_vcis, geo.n_threads)))
    rx_lanes = max(1, min(n_msgs, geo.num_vcis))
    return lanes, per_vci - 1.0, rx_lanes


def _predict_pt2pt_part(geo: _Geometry) -> BenchPrediction:
    p = geo.params
    n_msgs = _negotiated_msgs(geo)
    msg_bytes = geo.total_bytes // n_msgs
    barrier = p.barrier_time(geo.n_threads)
    lanes, contenders, rx_lanes = _part_post_geometry(geo, n_msgs, msg_bytes)
    # Every Pready serializes on the request's shared counters; every
    # internal-message completion serializes on the receiver's shared
    # counter, whose episode peak ramps with the delivering contexts
    # (COMPLETION_PEAK_DIVISOR).
    pready = p.pready_atomic_time(geo.n_threads) + p.pready_overhead
    preadys_per_msg = geo.n_parts / n_msgs
    bounce = p.atomic_bounce_coeff * (rx_lanes - 1)
    completion_atomic = p.atomic_overhead + bounce / COMPLETION_PEAK_DIVISOR
    # A message leaves only after *all* its partitions' Pready calls
    # cleared the globally-serialized shared counter, so the closing
    # path carries its whole pready share.
    transfer, msg = _tag_transfer(
        geo, n_msgs, msg_bytes, contenders, lanes, rx_lanes,
        rx_extra=completion_atomic,
        path_extra=pready * preadys_per_msg + completion_atomic,
        extra_serial=max(pready * preadys_per_msg, completion_atomic),
    )
    prepost = n_msgs * p.recv_post_overhead + msg.rx + completion_atomic
    time = (
        barrier + max(transfer, prepost) + p.part_completion_overhead
    )
    return BenchPrediction(
        "pt2pt_part", time,
        {
            "barrier": barrier,
            "transfer": transfer,
            "prepost_bound": prepost,
            "completion": p.part_completion_overhead,
        },
    )


def _predict_pt2pt_part_old(geo: _Geometry) -> BenchPrediction:
    p = geo.params
    n = geo.n_parts
    barrier = p.barrier_time(geo.n_threads)
    # Every partition of every thread hammers one shared counter; the
    # final decrement injects the whole buffer as a single active
    # message (bounce copies on both sides, no early-bird overlap).
    pready = p.pready_atomic_time(geo.n_threads) + p.pready_overhead
    pready_chain = max((n - 1) * pready - geo.delay, 0.0) + pready
    # The single AM injection is the iteration's only VCI post — the
    # threads contend on the shared Pready counter, not the lock.
    am_path = (
        p.post_overhead
        + p.copy_time(geo.total_bytes)           # sender bounce copy
        + p.wire_time(geo.total_bytes)
        + p.latency
        + p.am_dispatch_overhead
        + p.copy_time(min(geo.total_bytes, p.am_chunk_bytes))
    )
    # The receiver exits the inter-rank barrier early (it was the
    # previous iteration's straggler), so its per-iteration CTS is
    # already in flight at t_start: only its RX handling is exposed.
    cts = p.ctrl_overhead
    time = (
        barrier
        + max(pready_chain, cts)
        + am_path
        + p.part_completion_overhead
    )
    return BenchPrediction(
        "pt2pt_part_old", time,
        {
            "barrier": barrier,
            "pready_chain": pready_chain,
            "am_path": am_path,
            "completion": p.part_completion_overhead,
        },
    )


def _rma_windows(geo: _Geometry, many: bool) -> int:
    return geo.n_threads if many else 1


def _rma_scan(geo: _Geometry, many: bool) -> float:
    """Progress-engine scan paid per flush ack: every extra window
    sharing the acking VCI is scanned (Fig. 5's RMA-many shift)."""
    windows = _rma_windows(geo, many)
    sharing = math.ceil(windows / min(windows, geo.num_vcis))
    return geo.params.rma_progress_scan * (sharing - 1)


def _rma_put_stages(geo: _Geometry, many: bool):
    """(put cost, lanes, windows) for the RMA approaches' data phase."""
    p = geo.params
    windows = _rma_windows(geo, many)
    lanes = _lanes(geo, windows)
    actors_per_lane = math.ceil(geo.n_threads / lanes)
    mult = p.contention_multiplier(actors_per_lane - 1)
    return _put_msg_cost(p, geo.part_bytes, mult), lanes, windows


def _predict_rma_passive(geo: _Geometry, many: bool) -> BenchPrediction:
    p = geo.params
    n = geo.n_parts
    barrier = p.barrier_time(geo.n_threads)
    put, lanes, windows = _rma_put_stages(geo, many)
    actors_per_lane = math.ceil(geo.n_threads / lanes)
    mult = p.contention_multiplier(actors_per_lane - 1)
    # The receiver exits the inter-rank barrier early, so its exposure
    # token is in flight at t_start: only its RX handling is exposed.
    put_start = p.recv_overhead + barrier
    # Total per-stage work of the puts *and* the flush request(s): with
    # thread-local flushes (RMA many) every flush's control post pays
    # the same contended lock as the puts.
    flushes = windows if many else 1
    post_work = (n * put.post + flushes * p.ctrl_overhead * mult) / lanes
    wire_work = n * put.wire + flushes * p.wire_time(0)
    rx_work = (n * put.rx + flushes * p.ctrl_overhead) / lanes
    serial = max(post_work, wire_work, rx_work)
    flush_handled = (
        put_start
        + max(serial - geo.delay, 0.0)
        + p.rma_sync_overhead
        + p.wire_time(0)
        + p.latency
        + p.ctrl_overhead
        + _rma_scan(geo, many)
    )
    ack = _ctrl_path(p)
    done = _token_path(p, p.post_overhead)
    time = flush_handled + ack + done
    name = "rma_many_passive" if many else "rma_single_passive"
    return BenchPrediction(
        name, time,
        {
            "put_start": put_start,
            "stage_work": serial,
            "flush_handled": flush_handled,
            "ack": ack,
            "completion_token": done,
        },
    )


def _predict_rma_active(geo: _Geometry, many: bool) -> BenchPrediction:
    p = geo.params
    n = geo.n_parts
    barrier = p.barrier_time(geo.n_threads)
    put, lanes, windows = _rma_put_stages(geo, many)
    # PSCW: the receiver's exposure epochs (one per window, master
    # serial) start ahead of t_start thanks to the barrier skew; the
    # sender's own per-window Start sync runs concurrently.
    tokens_avail = (
        p.rma_sync_overhead
        + p.ctrl_overhead
        + (windows - 1) * (p.rma_sync_overhead + p.ctrl_overhead)
    )
    open_epochs = windows * p.rma_sync_overhead
    put_start = max(tokens_avail, open_epochs) + barrier
    post_bn = put.post / lanes
    post_done = put_start + max((n - 1) * post_bn - geo.delay, 0.0) + put.post
    transfer_end = put_start + _pipeline(n, put, lanes, lanes, geo.delay)
    # Completion tokens (one per window, each with its own epoch-close
    # sync) trail the puts; the last one's arrival ends the iteration.
    complete_issued = (
        post_done + windows * (p.rma_sync_overhead + p.ctrl_overhead)
    )
    time = (
        max(complete_issued + p.wire_time(0) + p.latency, transfer_end)
        + p.ctrl_overhead
    )
    name = "rma_many_active" if many else "rma_single_active"
    return BenchPrediction(
        name, time,
        {
            "put_start": put_start,
            "transfer_end": transfer_end,
            "complete_issued": complete_issued,
        },
    )


#: Registry: approach name -> predictor over a :class:`_Geometry`.
APPROACH_PREDICTORS = {
    "pt2pt_single": _predict_pt2pt_single,
    "pt2pt_many": _predict_pt2pt_many,
    "pt2pt_part": _predict_pt2pt_part,
    "pt2pt_part_old": _predict_pt2pt_part_old,
    "rma_single_passive": lambda g: _predict_rma_passive(g, many=False),
    "rma_many_passive": lambda g: _predict_rma_passive(g, many=True),
    "rma_single_active": lambda g: _predict_rma_active(g, many=False),
    "rma_many_active": lambda g: _predict_rma_active(g, many=True),
}


def predict_bench_time(spec) -> BenchPrediction:
    """Predict the measured communication time of one ``BenchSpec``.

    Accepts any object with the ``BenchSpec`` fields (the model layer
    stays import-independent of the bench layer).
    """
    if spec.approach not in APPROACH_PREDICTORS:
        raise KeyError(f"no analytic predictor for approach {spec.approach!r}")
    params = spec.params
    # The delay of the last partition (FixedDelayModel); the Gaussian
    # model contributes its mean total per-thread compute instead.
    if getattr(spec, "gaussian_mu_us_per_mb", 0.0) > 0:
        # The harness computes *all* of a thread's partitions before
        # marking any ready, and the mean-rate Gaussian model keeps the
        # threads in lockstep — every message becomes ready in one burst
        # exactly when the compute removal ends, so the measured time
        # matches the compute-free transfer.
        delay = 0.0
        compute_active = False
    else:
        gamma = getattr(spec, "gamma_us_per_mb", 0.0) * 1e-6 / 1e6
        delay = gamma * (spec.total_bytes // (spec.n_threads * spec.theta))
        compute_active = gamma > 0
    geo = _Geometry(
        params=params,
        n_threads=spec.n_threads,
        theta=spec.theta,
        total_bytes=spec.total_bytes,
        num_vcis=spec.cvars.num_vcis,
        vci_method=spec.cvars.vci_method,
        part_aggr_size=spec.cvars.part_aggr_size,
        delay=delay,
        compute_active=compute_active,
    )
    return APPROACH_PREDICTORS[spec.approach](geo)
