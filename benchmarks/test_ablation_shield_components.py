"""Ablation A1: which shield component buys what.

The paper exposes three independent /proc/shield masks; this ablation
applies them cumulatively to the Figure 6 setup and reports the
latency profile of each step.  Expected shape: interrupt shielding is
the big win for interrupt response; process shielding removes
scheduling interference; the local-timer shield trims the residual
tick theft.
"""

from conftest import family, print_report, scaled

from repro.metrics.report import comparison_table


def test_ablation_shield_components(benchmark):
    results = benchmark.pedantic(
        lambda: family("a1", samples=scaled(8_000, minimum=2_000)),
        rounds=1, iterations=1)

    rows = []
    for name, result in results.items():
        rec = result.recorder
        rows.append((name, f"{rec.max() / 1e3:.1f}",
                     f"{rec.mean() / 1e3:.2f}",
                     f"{100 * rec.fraction_below(100_000):.3f}"))
    print_report(comparison_table(
        rows, ["shield", "max(us)", "mean(us)", "<0.1ms(%)"]))

    full = results["full"].recorder
    none = results["none"].recorder
    # The full shield must dominate no-shield on the fast-response
    # fraction (worst cases at this scale are rare-event noisy).
    assert (full.fraction_below(100_000)
            >= none.fraction_below(100_000))
    # And guarantee sub-millisecond response.
    assert full.max() < 1_000_000
    # Adding the interrupt shield must not make the mean worse than
    # process-shielding alone.
    assert (results["procs+irqs"].recorder.mean()
            <= results["procs"].recorder.mean() * 1.5)
