"""Figure 1: execution determinism, kernel.org 2.4.21, hyperthreading on.

Paper result: ideal 1.147225 s, max 1.447509 s, jitter 0.300284 s
(26.17%).  The reproduction must show jitter of the same order, and
the per-iteration variance histogram spanning hundreds of ms.
"""

from conftest import note, print_report, scaled

from repro.experiments.scenario import run_named
from repro.metrics.histogram import Histogram

PAPER_JITTER_PCT = 26.17


def test_fig1_vanilla_ht_determinism(benchmark):
    result = benchmark.pedantic(
        lambda: run_named("fig1", iterations=scaled(15, minimum=6)),
        rounds=1, iterations=1)

    hist = Histogram(0, 500.0, 50)  # variance from ideal, ms
    hist.add_many(result.recorder.variances_ms())
    print_report(result.report())
    note(f"paper jitter: {PAPER_JITTER_PCT}%  "
          f"measured: {result.jitter_percent():.2f}%")

    # Shape assertions: same order of magnitude, clearly bad.
    assert 10.0 < result.jitter_percent() < 60.0
    assert result.max_ns() > result.ideal_ns * 1.10
