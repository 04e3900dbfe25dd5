"""Figure 6 regeneration: 32 VCIs relieve the congestion.

Paper headline: many matches single; partitioned keeps a x4.04
residual; the RMA single/many ordering flips.
"""

from repro.figures import fig6_vcis


def test_fig6_regeneration(benchmark, report_sink, bench_iters):
    data = benchmark.pedantic(
        fig6_vcis.run,
        kwargs=dict(iterations=bench_iters, quick=True),
        rounds=1,
        iterations=1,
    )
    h = data.headline
    assert 2.0 < h["part_penalty_small"] < 7.0  # [4.04]
    assert 0.7 < h["many_penalty_small"] < 1.3  # [~1]
    assert h["rma_many_over_single_win"] < 1.0  # [flips]
    report_sink.append(fig6_vcis.report(data))
