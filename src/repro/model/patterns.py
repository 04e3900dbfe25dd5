"""First-order analytic predictor for N-rank application patterns.

Extends the per-approach two-rank models of
:mod:`repro.model.approaches` to the :mod:`repro.apps` pattern harness:
a pattern is a directed link graph, and the predicted iteration time
composes per-link message predictions with the pattern's topology —

* **per-rank injection** — every rank posts one message per thread per
  outgoing link, serialized over its VCIs with the same contention
  multiplier as the two-rank model;
* **per-pair wire serialization** — each ordered rank pair owns one
  directional wire; all messages between the pair share it;
* **per-rank receive processing** — incoming messages serialize on the
  destination's VCIs;
* **compute overlap** — the per-partition useful work
  (``compute_us_per_mb``) is interleaved with the ready calls in the
  apps harness, so it overlaps the injection bottleneck before being
  removed by the §2.1 metric;
* **wavefront depth** — patterns with blocking receives (Sweep3D)
  serialize along the dependency DAG's longest chain: one hop's
  receive must complete before the next rank's compute phase starts.

This is deliberately coarser than the two-rank model (the simulator
resolves per-link transients the closed form cannot), which is why the
pattern tolerance in :data:`repro.backends.crossval.TOLERANCES` is wider
than any bench tolerance.

**Injected noise** (``noise != "none"``) enters as a first-order mean
shift calibrated against the simulator:

* the expected slowest-thread delay per compute quantum
  (:func:`noise_mean_quantum`: the Single victim's amplitude, the
  Uniform mean, the truncated-Gaussian mean) accumulates to
  ``max_out`` quanta per rank per iteration;
* **streaming approaches** (partitioned, per-partition sends, the AM
  fallback) absorb that budget like extra overlappable compute — the
  staggered ready calls de-contend injection, down to a per-message
  drain floor — and wavefront hops are gated per *link* (one quantum);
* **bulk-gated approaches** (``pt2pt_single``, RMA epochs: nothing
  completes before the noisy compute phase ends) see the §2.1 metric
  remove the whole shift at depth 1, while every extra wavefront hop
  accumulates one full un-removed rank budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..net import Protocol
from .approaches import (
    _MsgCost,
    _ctrl_path,
    _put_msg_cost,
    _saturated_contenders,
    _tag_msg_cost,
    _token_path,
)

__all__ = [
    "PatternPrediction",
    "STREAMING_APPROACHES",
    "noise_mean_quantum",
    "predict_pattern_time",
]

#: Approaches whose partitions leave as each ``ready`` lands, so
#: injected noise staggers (and thereby overlaps) the injection instead
#: of gating it: partitioned sends, one-send-per-thread, and the AM
#: single-active-message fallback.  Everything else — the bulk-
#: synchronous baseline and the RMA epochs, whose completion waits for
#: the noisy compute phase end — is bulk-gated.
STREAMING_APPROACHES = ("pt2pt_part", "pt2pt_many", "pt2pt_part_old")


def noise_mean_quantum(
    noise: str, noise_us: float, noise_sigma_us: float
) -> float:
    """Expected slowest-thread injected delay (seconds) per compute
    quantum, per noise shape (:mod:`repro.apps.noise`).

    Single puts its whole amplitude on one victim thread — which is
    then the slowest — so the quantum is the amplitude itself; Uniform
    draws from ``U(0, 2a)`` with mean ``a``; Gaussian draws from
    ``N(a, σ)`` truncated at zero, whose mean is
    ``a·Φ(a/σ) + σ·φ(a/σ)``.
    """
    amplitude = noise_us * 1e-6
    sigma = noise_sigma_us * 1e-6
    if noise == "none" or (amplitude <= 0 and sigma <= 0):
        return 0.0
    if noise in ("single", "uniform"):
        return amplitude
    if noise == "gaussian":
        if sigma == 0:
            return amplitude
        z = amplitude / sigma
        phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        cdf = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
        return amplitude * cdf + sigma * phi
    raise KeyError(f"unknown noise model {noise!r}")


@dataclass(frozen=True)
class PatternPrediction:
    """Predicted per-iteration communication time for one pattern."""

    pattern: str
    approach: str
    time: float
    breakdown: Dict[str, float]


def _link_messages(config, nbytes: int) -> Tuple[int, int]:
    """(messages, bytes per message) one link contributes per iteration."""
    if config.approach == "pt2pt_single":
        return 1, nbytes
    if config.approach in ("pt2pt_part", "pt2pt_part_old"):
        if config.approach == "pt2pt_part_old":
            return 1, nbytes  # single active message
        from ..mpi.partitioned import negotiate_message_count

        n = negotiate_message_count(
            config.n_threads, config.n_threads, nbytes,
            config.cvars.part_aggr_size,
        )
        return n, nbytes // n
    # pt2pt_many and every RMA approach: one message per thread.
    return config.n_threads, nbytes // config.n_threads


def _per_message_costs(config, msg_bytes: int, mult: float):
    """(cost, per_link_sync) of one link message under the approach.

    ``per_link_sync`` is serialized master-thread work *per link* — the
    blocking synchronization round trips the apps harness issues
    link-by-link in its start/wait loops.
    """
    p = config.params
    if config.approach.startswith("rma"):
        put = _put_msg_cost(p, msg_bytes, mult)
        if "passive" in config.approach:
            # Per link: exposure-token wait, a blocking flush round
            # trip, and the completion token.
            per_link = (
                _token_path(p, p.post_overhead)
                + p.rma_sync_overhead
                + 2.0 * _ctrl_path(p)
            )
        else:
            # Per link: the PSCW epoch-open sync plus one token round;
            # the close-side tokens overlap the next link's epoch.
            per_link = p.rma_sync_overhead + _ctrl_path(p)
        return put, per_link
    if config.approach == "pt2pt_part_old":
        # One active message per link: bounce copies on both sides, AM
        # dispatch at the target, a per-iteration CTS.
        post = p.post_overhead * mult + p.copy_time(msg_bytes)
        wire = p.wire_time(msg_bytes)
        rx = p.am_dispatch_overhead + p.copy_time(
            min(msg_bytes, p.am_chunk_bytes)
        )
        msg = _MsgCost(
            post=post, wire=wire, rx=rx,
            path=post + wire + p.latency + rx,
        )
        return msg, p.ctrl_overhead + 2.0 * p.part_completion_overhead
    msg = _tag_msg_cost(p, msg_bytes, mult)
    per_link = 0.0
    if config.approach == "pt2pt_part":
        per_link = 2.0 * p.part_completion_overhead
    return msg, per_link


def _dependency_depth(pattern, n_ranks: int) -> int:
    """Longest chain (in hops) of the pattern's blocking-receive DAG."""
    if not pattern.has_dependencies:
        return 0
    upstream: Dict[int, List[int]] = {}
    link_src = {link.key: link.src for link in pattern.links()}
    for rank in range(n_ranks):
        upstream[rank] = [
            link_src[key]
            for key in pattern.blocking_recvs(rank)
            if key in link_src
        ]
    depth: Dict[int, int] = {}

    def visit(rank: int) -> int:
        if rank in depth:
            return depth[rank]
        depth[rank] = 0  # cycle guard; the DAGs here are acyclic
        ups = upstream.get(rank, [])
        depth[rank] = 1 + max((visit(u) for u in ups), default=-1)
        return depth[rank]

    return max((visit(r) for r in range(n_ranks)), default=0)


def predict_pattern_time(config, pattern=None) -> PatternPrediction:
    """Predict the measured per-iteration time of one ``PatternConfig``.

    Accepts any object with the ``PatternConfig`` fields; the pattern
    topology is built through the apps registry (imported lazily — the
    model layer has no import-time dependency on it) unless the caller
    passes a prebuilt ``pattern`` (the analytic backend does, to avoid
    enumerating an O(ranks²) link graph twice per grid point).
    """
    p = config.params
    if pattern is None:
        from ..apps.base import build_pattern

        pattern = build_pattern(config)
    links = pattern.links()
    if not links:
        return PatternPrediction(
            config.pattern, config.approach, 0.0, {"links": 0.0}
        )
    nbytes = links[0].nbytes  # patterns use one aligned size per link
    n_msgs, msg_bytes = _link_messages(config, nbytes)

    out_deg: Dict[int, int] = {}
    in_deg: Dict[int, int] = {}
    pair_msgs: Dict[Tuple[int, int], int] = {}
    for link in links:
        out_deg[link.src] = out_deg.get(link.src, 0) + 1
        in_deg[link.dst] = in_deg.get(link.dst, 0) + 1
        key = (link.src, link.dst)
        pair_msgs[key] = pair_msgs.get(key, 0) + n_msgs
    max_out = max(out_deg.values())
    max_in = max(in_deg.values())
    max_pair = max(pair_msgs.values())

    # Every link has its own context, so messages spread over the VCIs
    # context-wise; the threads contend per VCI exactly as in the
    # two-rank model, with the spawned progress agents (rendezvous data
    # injections, CTS answers for the incoming links) inflating the
    # episode peak toward the saturated queue count.
    lanes = max(1, min(config.n_threads, config.cvars.num_vcis))
    per_vci = math.ceil(config.n_threads / lanes)
    contenders = float(per_vci - 1)
    rank_msgs = max_out * n_msgs
    zcopy = (
        not config.approach.startswith("rma")
        and config.approach != "pt2pt_part_old"
        and p.protocol_for(msg_bytes) is Protocol.ZCOPY
    )
    if zcopy and lanes == 1 and rank_msgs > 1:
        contenders = _saturated_contenders(p, contenders, rank_msgs)
    mult = p.contention_multiplier(contenders)
    msg, per_link_sync = _per_message_costs(config, msg_bytes, mult)
    sync_tail = max_out * per_link_sync

    # Per-iteration useful work of one thread (overlappable with the
    # transfers, and removed by the metric): one partition per outgoing
    # link, computed immediately before that link's ready call.
    mu = config.compute_us_per_mb * 1e-6 / 1e6
    compute = max_out * mu * (nbytes / config.n_threads)

    # Injected-noise budget: the slowest thread's expected extra delay
    # over its max_out quanta (see the module docstring).
    noise_q = noise_mean_quantum(
        getattr(config, "noise", "none"),
        getattr(config, "noise_us", 0.0),
        getattr(config, "noise_sigma_us", 0.0),
    )
    noise_rank = max_out * noise_q

    post_work = max_out * n_msgs * msg.post / lanes
    if zcopy:
        # Incoming rendezvous traffic posts its CTS answers on the same
        # contended lock as the outgoing RTS/data injections.
        post_work += max_in * n_msgs * p.ctrl_overhead * mult / lanes
    # The per-VCI TX loop blocks while each packet crosses its wire, so
    # a rank's whole outgoing traffic serializes over its lanes even
    # when it targets distinct pair wires.
    wire_work = max(max_pair * msg.wire, max_out * n_msgs * msg.wire / lanes)
    rx_work = max_in * n_msgs * msg.rx / lanes
    bottleneck = max(post_work, wire_work, rx_work)
    if config.approach == "pt2pt_single":
        # Bulk semantics: the master starts and *blocks on* each link's
        # send in turn after the compute phase — nothing overlaps, and
        # the metric's removal cancels the noisy phase at depth 1.  An
        # extra wavefront hop re-pays the full un-removed rank budget.
        hop = max_out * msg.path + sync_tail
        hop_noise = noise_rank
    elif config.approach in STREAMING_APPROACHES:
        # The compute phase *and the staggered noise* hide the
        # bottleneck work, down to the stagger-limited drain floor
        # (one message's share once the readies spread out, but never
        # more than the noise budget below the lockstep floor).
        # Downstream hops are gated per link: only the last quantum
        # before that link's ready survives the overlap.
        floor = max(
            bottleneck / rank_msgs, bottleneck / max_out - noise_rank
        )
        hop = (
            max(bottleneck - (compute + noise_rank), floor)
            + msg.path
            + sync_tail
        )
        hop_noise = noise_q
    else:
        # RMA: the puts stream, but the epoch close (and thereby the
        # receiver's wait) is gated by the noisy phase end — absorbed
        # at depth 1 by the removal, re-paid per extra hop.
        hop = (
            max(bottleneck - compute, bottleneck / max_out)
            + msg.path
            + sync_tail
        )
        hop_noise = noise_rank
    hop += p.barrier_time(config.n_threads)

    depth = _dependency_depth(pattern, config.n_ranks)
    if depth > 1:
        # Wavefront: each hop's blocking receive gates the next rank's
        # compute phase, whose useful work and injected noise are *not*
        # removed for the downstream ranks (only one thread's total is
        # subtracted by the metric).
        time = hop + (depth - 1) * (hop + compute + hop_noise)
    else:
        time = hop
    return PatternPrediction(
        config.pattern, config.approach, time,
        {
            "post_work": post_work,
            "wire_work": wire_work,
            "rx_work": rx_work,
            "compute_overlap": compute,
            "noise_shift": noise_rank,
            "sync_tail": sync_tail,
            "depth": float(max(depth, 1)),
        },
    )
