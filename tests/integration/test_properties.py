"""Property-based tests (hypothesis) on core invariants."""

import math
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import BenchSpec, run_benchmark, simulation_key
from repro.bench.stats import summarize
from repro.figures import fig7_aggregation as fig7
from repro.figures.common import paper_sizes
from repro.model import eta_large, gamma_theta, t_bulk, t_pipelined
from repro.mpi import ANY_SOURCE, ANY_TAG, Cvars, MatchKey, MatchingEngine
from repro.mpi.partitioned import negotiate_message_count
from repro.mpi.matching import PostedRecv, UnexpectedMsg
from repro.net import MELUXINA
from repro.runner.scenario import scenario_for
from repro.sim import Environment


# ---------------------------------------------------------------------------
# message-count negotiation (§3.2.1)
# ---------------------------------------------------------------------------
@given(
    n_send=st.integers(1, 512),
    n_recv=st.integers(1, 512),
    scale=st.integers(1, 1 << 14),
    aggr=st.integers(0, 1 << 20),
)
def test_negotiation_invariants(n_send, n_recv, scale, aggr):
    total = n_send * n_recv * scale  # divisible by both counts
    n_msgs = negotiate_message_count(n_send, n_recv, total, aggr)
    g = math.gcd(n_send, n_recv)
    # 1. at least one message, never more than the gcd
    assert 1 <= n_msgs <= g
    # 2. the count divides the gcd: messages stay uniform and every
    #    partition of either side maps to exactly one message
    assert g % n_msgs == 0
    assert n_send % n_msgs == 0 and n_recv % n_msgs == 0
    # 3. aggregation never yields messages above the bound unless a
    #    single gcd-message already exceeds it
    if aggr > 0 and total // g <= aggr:
        assert total // n_msgs <= aggr


@given(
    n_send=st.integers(1, 256),
    n_recv=st.integers(1, 256),
    scale=st.integers(1, 1024),
)
def test_negotiation_no_aggregation_is_gcd(n_send, n_recv, scale):
    total = n_send * n_recv * scale
    assert negotiate_message_count(n_send, n_recv, total, 0) == math.gcd(
        n_send, n_recv
    )


@given(
    n_parts=st.integers(1, 256),
    scale=st.integers(1, 1024),
    aggr_a=st.integers(1, 1 << 16),
    aggr_b=st.integers(1, 1 << 16),
)
def test_negotiation_monotone_in_bound(n_parts, scale, aggr_a, aggr_b):
    """A larger aggregation bound never increases the message count."""
    total = n_parts * scale
    lo, hi = sorted((aggr_a, aggr_b))
    assert negotiate_message_count(
        n_parts, n_parts, total, hi
    ) <= negotiate_message_count(n_parts, n_parts, total, lo)


# ---------------------------------------------------------------------------
# analytic model (§2.2)
# ---------------------------------------------------------------------------
@given(
    n=st.integers(1, 64),
    theta=st.integers(1, 64),
    gamma_us=st.floats(0, 1e5, allow_nan=False),
)
def test_eta_bounds(n, theta, gamma_us):
    """1 <= η <= N·θ for any delay rate."""
    eta = eta_large(n, theta, 25e9, gamma_us * 1e-12)
    assert 1.0 - 1e-12 <= eta <= n * theta + 1e-9


@given(
    n=st.integers(1, 32),
    theta=st.integers(1, 32),
    part_kb=st.integers(1, 1 << 14),
    gamma_us=st.floats(0, 1e4, allow_nan=False),
)
def test_pipelined_never_slower_than_bulk(n, theta, part_kb, gamma_us):
    beta = 25e9
    part = part_kb * 1024.0
    tb = t_bulk(n, theta, part, beta)
    tp = t_pipelined(n, theta, part, beta, gamma_us * 1e-12)
    assert tp <= tb + 1e-15
    # and never faster than a single partition transfer
    assert tp >= part / beta - 1e-15


@given(
    mu=st.floats(0, 1e-6, allow_nan=False),
    theta=st.integers(1, 128),
    eps=st.floats(0, 1.0, allow_nan=False),
    delta=st.floats(0, 1.0, allow_nan=False),
)
def test_gamma_theta_nonnegative_and_monotone(mu, theta, eps, delta):
    g1 = gamma_theta(mu, theta, eps, delta)
    g2 = gamma_theta(mu, theta + 1, eps, delta)
    assert g1 >= 0
    assert g2 >= g1


# ---------------------------------------------------------------------------
# protocol ladder
# ---------------------------------------------------------------------------
@given(nbytes=st.integers(0, 1 << 28))
def test_wire_time_monotone(nbytes):
    assert MELUXINA.wire_time(nbytes + 1) >= MELUXINA.wire_time(nbytes)


@given(a=st.integers(1, 1 << 26), b=st.integers(1, 1 << 26))
def test_protocol_ladder_ordered(a, b):
    """A larger payload never selects an 'earlier' protocol."""
    order = {"short": 0, "bcopy": 1, "zcopy": 2}
    lo, hi = sorted((a, b))
    assert (
        order[MELUXINA.protocol_for(lo).value]
        <= order[MELUXINA.protocol_for(hi).value]
    )


# ---------------------------------------------------------------------------
# matching engine
# ---------------------------------------------------------------------------
_key = st.tuples(
    st.integers(0, 3),  # ctx
    st.integers(0, 3),  # src
    st.integers(0, 7),  # tag
)


@given(arrivals=st.lists(_key, max_size=40), recv=_key)
@settings(max_examples=200)
def test_matching_takes_earliest_matching_unexpected(arrivals, recv):
    eng = MatchingEngine()
    for i, (ctx, src, tag) in enumerate(arrivals):
        eng.add_unexpected(
            UnexpectedMsg(key=MatchKey(ctx, src, tag), packet=i)
        )
    ctx, src, tag = recv
    got = eng.post_recv(PostedRecv(key=MatchKey(ctx, src, tag), request="r"))
    matching = [i for i, k in enumerate(arrivals) if k == recv]
    if matching:
        assert got is not None and got.packet == matching[0]
    else:
        assert got is None


@given(recvs=st.lists(_key, max_size=40), arrival=_key)
@settings(max_examples=200)
def test_matching_takes_earliest_matching_posted(recvs, arrival):
    eng = MatchingEngine()
    for i, (ctx, src, tag) in enumerate(recvs):
        eng.post_recv(PostedRecv(key=MatchKey(ctx, src, tag), request=i))
    ctx, src, tag = arrival
    got = eng.match_arrival(MatchKey(ctx, src, tag))
    matching = [i for i, k in enumerate(recvs) if k == arrival]
    if matching:
        assert got is not None and got.request == matching[0]
    else:
        assert got is None


@given(
    n_msgs=st.integers(1, 30),
    wildcard_src=st.booleans(),
    wildcard_tag=st.booleans(),
)
def test_wildcards_preserve_fifo(n_msgs, wildcard_src, wildcard_tag):
    eng = MatchingEngine()
    for i in range(n_msgs):
        eng.add_unexpected(
            UnexpectedMsg(key=MatchKey(0, i % 3, i % 5), packet=i)
        )
    src = ANY_SOURCE if wildcard_src else 0
    tag = ANY_TAG if wildcard_tag else 0
    got = eng.post_recv(PostedRecv(key=MatchKey(0, src, tag), request="r"))
    expect = [
        i
        for i in range(n_msgs)
        if (wildcard_src or i % 3 == 0) and (wildcard_tag or i % 5 == 0)
    ]
    if expect:
        assert got.packet == expect[0]
    else:
        assert got is None


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
@given(
    samples=st.lists(
        st.floats(1e-9, 1e3, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=100,
    )
)
def test_summary_bounds(samples):
    s = summarize(samples)
    # Tolerate float summation rounding at the boundaries.
    assert s.minimum * (1 - 1e-12) <= s.mean <= s.maximum * (1 + 1e-12)
    assert s.ci_half >= 0
    assert s.n == len(samples)


# ---------------------------------------------------------------------------
# simulation engine
# ---------------------------------------------------------------------------
@given(delays=st.lists(st.floats(0, 1e3, allow_nan=False), max_size=30))
def test_clock_monotone_through_arbitrary_timeouts(delays):
    env = Environment()
    seen = []

    def proc(env):
        for d in delays:
            yield env.timeout(d)
            seen.append(env.now)

    env.process(proc(env))
    env.run()
    assert seen == sorted(seen)
    if delays:
        assert seen[-1] <= sum(delays) * (1 + 1e-9) + 1e-12


# ---------------------------------------------------------------------------
# simulation key: equal keys, bitwise-equal simulations
# ---------------------------------------------------------------------------
AGGR_BOUNDS = (0, 16, 512, 1024, 4096, 16384, 1 << 20)


def _bench_key(spec):
    return simulation_key(scenario_for(spec))


@given(
    approach=st.sampled_from(["pt2pt_part", "pt2pt_part_old", "pt2pt_single"]),
    n_threads=st.sampled_from([1, 2, 4]),
    theta=st.sampled_from([1, 2, 8, 32]),
    part_bytes=st.sampled_from([8, 64, 512, 4096, 16384]),
    skip_first_cts=st.booleans(),
    aggr_a=st.sampled_from(AGGR_BOUNDS),
    aggr_b=st.sampled_from(AGGR_BOUNDS),
)
@settings(max_examples=40, deadline=None)
def test_equal_simulation_keys_simulate_identically(
    approach, n_threads, theta, part_bytes, skip_first_cts, aggr_a, aggr_b
):
    def spec(aggr):
        return BenchSpec(
            approach=approach,
            total_bytes=n_threads * theta * part_bytes,
            n_threads=n_threads,
            theta=theta,
            iterations=2,
            cvars=Cvars(
                part_aggr_size=aggr, part_skip_first_cts=skip_first_cts
            ),
        )

    a, b = spec(aggr_a), spec(aggr_b)
    if _bench_key(a) != _bench_key(b):
        return
    ra, rb = run_benchmark(a), run_benchmark(b)
    assert list(map(float.hex, ra.times)) == list(map(float.hex, rb.times))
    assert (ra.verified, ra.retries) == (rb.verified, rb.retries)


def test_simulation_key_merges_fig7_where_aggregation_cannot():
    """fig7.run's full grid: 27 points where aggregation cannot merge,
    plus 2 sizes where 4096 and 16384 both merge to one message."""
    base = BenchSpec(
        approach="pt2pt_single",
        total_bytes=1,
        n_threads=fig7.N_THREADS,
        theta=fig7.THETA,
        iterations=3,
    )
    variants = [replace(base, approach=a) for a in ("pt2pt_single", "pt2pt_many")]
    variants += [
        replace(base, approach="pt2pt_part", cvars=Cvars(part_aggr_size=aggr))
        for aggr in fig7.AGGR_SIZES
    ]
    sizes = paper_sizes(fig7.MIN_BYTES, fig7.MAX_BYTES, n_parts=fig7.N_PARTS)
    specs = [replace(v, total_bytes=size) for v in variants for size in sizes]
    assert len(specs) == 98
    assert len(specs) - len({_bench_key(s) for s in specs}) == 29


def test_simulation_key_keeps_signed_zeros_apart():
    spec = BenchSpec(approach="pt2pt_part", total_bytes=4096, n_threads=4)
    negative = BenchSpec(
        approach="pt2pt_part", total_bytes=4096, n_threads=4,
        gamma_us_per_mb=-0.0,
    )
    assert spec == negative  # dataclass equality cannot tell them apart
    assert _bench_key(spec) != _bench_key(negative)
