"""Figure 5 regeneration: thread congestion, 32 threads on one VCI.

Paper headline: partitioned/many pay ~x29.76 over the single message at
the smallest size; RMA many-passive shifted above single-passive.
"""

from repro.figures import fig5_congestion


def test_fig5_regeneration(benchmark, report_sink, bench_iters):
    data = benchmark.pedantic(
        fig5_congestion.run,
        kwargs=dict(iterations=bench_iters, quick=True),
        rounds=1,
        iterations=1,
    )
    h = data.headline
    assert 15 < h["part_penalty_small"] < 45  # [29.76]
    assert 15 < h["many_penalty_small"] < 45  # [~part]
    assert h["rma_many_over_single_win"] > 1.0  # [shifted up]
    assert h["part_penalty_large"] < 1.3  # [converged]
    report_sink.append(fig5_congestion.report(data))
