"""Figure 6: realfeel interrupt response on RedHawk 1.4, shielded CPU.

Paper result (12.8M samples over 8 hours): max latency 0.565 ms;
99.99986% of samples < 0.1 ms, with 17 samples between 0.1 and 0.6 ms.
The tail is caused by file-layer spinlock holders preempted by
bottom-half bursts -- the /dev/rtc read() exit path is "not ideal for
achieving a guaranteed interrupt response".

The tail events are rare (the paper needed hours to see 17 of them);
at bench scale we assert the guarantee (sub-millisecond worst case)
and the overwhelming sub-0.1 ms mass, and report any tail samples
observed.
"""

from conftest import note, print_report, scaled

from repro.experiments.scenario import run_named
from repro.metrics.report import FIG6_THRESHOLDS_MS

PAPER = {"max_ms": 0.565, "below_0p1ms": 99.99986}


def test_fig6_redhawk_shielded_rtc_latency(benchmark):
    result = benchmark.pedantic(
        lambda: run_named("fig6", samples=scaled(60_000, minimum=8_000),
                          seed=2),
        rounds=1, iterations=1)
    rec = result.recorder

    print_report(result.report("fine-buckets"))
    tail = [s for s in rec.samples if s >= 100_000]
    note(f"tail samples (>=0.1ms): {len(tail)} of {rec.count}: "
          f"{[round(s / 1e6, 3) for s in sorted(tail)]} ms")
    note(f"paper: max {PAPER['max_ms']}ms, 17 tail samples in 12.8M")

    # The title claim: guaranteed sub-millisecond response.
    assert rec.max() < 1_000_000
    # The overwhelming majority is far below 0.1 ms.
    assert rec.fraction_below(100_000) > 0.999
