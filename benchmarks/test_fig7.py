"""Figure 7 regeneration: message aggregation, 4 threads x 32 partitions.

Paper headline: aggregation collapses the small-message overhead from
~x10 (the per-message cost, matching Pt2Pt many) to a x3.13 floor of
atomic updates; the benefit ends at N_part x aggr_size.
"""

from repro.figures import fig7_aggregation


def test_fig7_regeneration(benchmark, report_sink, bench_iters):
    data = benchmark.pedantic(
        fig7_aggregation.run,
        kwargs=dict(iterations=bench_iters, quick=True),
        rounds=1,
        iterations=1,
    )
    h = data.headline
    assert h["noaggr_penalty"] > 8.0  # [~10]
    assert 2.0 < h["aggr512_penalty"] < 5.0  # [3.13]
    assert abs(h["noaggr_penalty"] - h["many_penalty"]) < 0.3 * h["many_penalty"]
    report_sink.append(fig7_aggregation.report(data))
