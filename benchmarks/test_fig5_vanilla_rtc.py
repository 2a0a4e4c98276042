"""Figure 5: realfeel interrupt response on kernel.org 2.4.21.

Paper result (12.8M samples over a truncated 8-hour run): max latency
92.3 ms; 99.140% < 0.1 ms, 99.843% < 1 ms, and a tail spread up to
100 ms.  "At 92 milliseconds, the worst-case interrupt response is
completely unacceptable for the vast majority of real-time
applications."

The reproduction runs fewer samples (scale with REPRO_BENCH_SCALE);
the tail maximum grows with sample count, so we assert the
multi-millisecond regime rather than the exact 92 ms quantile.
"""

from conftest import note, print_report, scaled

from repro.experiments.scenario import run_named
from repro.metrics.histogram import LogHistogram
from repro.metrics.report import FIG5_THRESHOLDS_MS, bucket_table

PAPER = {"max_ms": 92.3, "below_0p1ms": 99.140, "below_1ms": 99.843}


def test_fig5_vanilla_rtc_latency(benchmark):
    result = benchmark.pedantic(
        lambda: run_named("fig5", samples=scaled(25_000, minimum=4_000)),
        rounds=1, iterations=1)
    rec = result.recorder

    print_report(result.report("buckets"))
    hist = LogHistogram(10_000.0, 100_000_000.0)  # 10 us .. 100 ms
    hist.add_many([max(s, 10_001) for s in rec.samples])
    note(hist.render_ascii(unit="ms", scale=1e6))
    note(f"paper: max {PAPER['max_ms']}ms, "
          f"<0.1ms {PAPER['below_0p1ms']}%, <1ms {PAPER['below_1ms']}%")

    # Shape: the vast majority fast, the worst case catastrophic.
    assert rec.fraction_below(100_000) > 0.90
    assert rec.fraction_below(1_000_000) > 0.98
    assert rec.max() > 2_000_000  # multi-ms tail: no sub-ms guarantee
