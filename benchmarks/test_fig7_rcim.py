"""Figure 7: RCIM interrupt response on RedHawk 1.4, shielded CPU.

Paper result: minimum 11 us, maximum 27 us, average 11.3 us over 15.8M
interrupts -- under stress-kernel plus X11perf plus ttcp-over-Ethernet
load.  "A shielded processor is able to provide an absolute guarantee
on worst-case interrupt response time of less than 30 microseconds."
"""

from conftest import note, print_report, scaled

from repro.experiments.scenario import run_named

PAPER = {"min_us": 11, "max_us": 27, "avg_us": 11.3}


def test_fig7_rcim_latency(benchmark):
    result = benchmark.pedantic(
        lambda: run_named("fig7", samples=scaled(25_000, minimum=4_000)),
        rounds=1, iterations=1)
    rec = result.recorder

    print_report(result.report("summary"))
    note(f"paper: min {PAPER['min_us']}us avg {PAPER['avg_us']}us "
          f"max {PAPER['max_us']}us")

    # Tens-of-microseconds guarantee, an order of magnitude below the
    # RTC path and three below the millisecond bound.
    assert rec.max() < 40_000
    assert 3_000 < rec.min() < 20_000
    assert rec.mean() < 25_000
