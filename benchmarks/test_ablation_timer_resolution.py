"""Ablation A5: the POSIX high-res timers patch.

A cyclictest-style 1 ms periodic thread on each kernel.  Vanilla 2.4
rounds every nanosleep up to jiffies (HZ=100: 10-20 ms!), so its timer
latency is dominated by the clock, not the scheduler; RedHawk's
high-res timers expose the actual scheduling latency, which shielding
then bounds.

The three variants are the registered scenarios ``a5-vanilla``,
``a5-highres`` and ``a5-highres-shield``.
"""

from conftest import family, print_report, scaled

from repro.metrics.report import comparison_table

LABELS = {
    "vanilla": "vanilla (jiffies timers)",
    "highres": "redhawk (high-res)",
    "highres-shield": "redhawk (high-res, shield)",
}


def test_ablation_timer_resolution(benchmark):
    cycles = scaled(3_000, minimum=800)

    results = benchmark.pedantic(
        lambda: family("a5", samples=cycles, seed=5),
        rounds=1, iterations=1)

    rows = [(LABELS[name], f"{r.recorder.min() / 1e3:.1f}",
             f"{r.recorder.mean() / 1e3:.1f}",
             f"{r.recorder.max() / 1e3:.1f}")
            for name, r in results.items()]
    print_report(comparison_table(
        rows, ["kernel", "min(us)", "mean(us)", "max(us)"]))

    vanilla = results["vanilla"].recorder
    highres = results["highres"].recorder
    shielded = results["highres-shield"].recorder
    # Jiffy rounding dominates: every vanilla wakeup is >= ~10 ms late.
    assert vanilla.min() > 5_000_000
    # High-res timers bring latency down by orders of magnitude.
    assert highres.mean() < vanilla.mean() / 50
    # Shielding then bounds the worst case.
    assert shielded.max() <= highres.max()
    assert shielded.max() < 1_000_000
