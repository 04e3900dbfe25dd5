"""Figure 4 regeneration: improved vs existing implementation (§4.1).

Paper headline numbers:
* old AM path ÷3.18 slower than the improved tag-matched path;
* improved path matches ``Pt2Pt single``;
* protocol jumps at 1–2 KiB and 8–16 KiB;
* RMA band above point-to-point at small sizes, converging at large.
"""

from repro.figures import fig4_improvement


def test_fig4_regeneration(benchmark, report_sink, bench_iters):
    data = benchmark.pedantic(
        fig4_improvement.run,
        kwargs=dict(iterations=bench_iters, quick=True),
        rounds=1,
        iterations=1,
    )
    h = data.headline
    # Shape assertions (paper values in brackets).
    assert 2.0 < h["old_over_new_large"] < 4.5  # [3.18]
    assert 0.8 < h["part_over_single_small"] < 1.4  # [~1]
    assert h["rma_over_pt2pt_small"] > 1.5  # [>2]
    assert 0.95 < h["rma_over_pt2pt_large"] < 1.1  # [~1]
    report_sink.append(fig4_improvement.report(data))
