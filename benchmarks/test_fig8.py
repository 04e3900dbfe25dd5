"""Figure 8 regeneration: the early-bird effect for large messages.

Paper headline: gain ~x2.5417 at large sizes (theory 2.67), independent
of the approach; pipelining loses below the ~100 kB crossover.
"""

from repro.figures import fig8_earlybird


def test_fig8_regeneration(benchmark, report_sink, bench_iters):
    data = benchmark.pedantic(
        fig8_earlybird.run,
        kwargs=dict(iterations=bench_iters, quick=True),
        rounds=1,
        iterations=1,
    )
    h = data.headline
    assert 2.3 < h["gain_part"] < 2.67  # [2.5417]
    assert abs(h["gain_many"] - h["gain_part"]) < 0.1 * h["gain_part"]
    assert abs(h["gain_rma"] - h["gain_part"]) < 0.1 * h["gain_part"]
    assert abs(h["gain_theory"] - 8 / 3) < 1e-6  # [2.67]
    report_sink.append(fig8_earlybird.report(data))
