"""Ablation A6: the uniprocessor case.

Section 2: "The shielded CPU model ... does not apply to uniprocessor
systems", and section 1: RedHawk's other modifications "allow RedHawk
to attain real-time performance guarantees even when shielded CPUs are
not utilized, for example on a uni-processor system."

This ablation runs realfeel on a single-CPU machine under a scaled
stress load: the vanilla kernel shows the unbounded tail, RedHawk's
preemption + low-latency + bounded-softirq machinery bounds it to the
low-millisecond class -- without any shield to hide behind.

The two variants are the registered scenarios ``a6-vanilla-up`` and
``a6-redhawk-up``.
"""

from conftest import family, print_report, scaled

from repro.metrics.report import comparison_table

LABELS = {"vanilla-up": "vanilla-UP", "redhawk-up": "redhawk-UP"}


def test_ablation_uniprocessor(benchmark):
    samples = scaled(6_000, minimum=2_000)

    results = benchmark.pedantic(
        lambda: family("a6", samples=samples, seed=9),
        rounds=1, iterations=1)

    rows = [(LABELS[name], f"{r.recorder.max() / 1e6:.3f}",
             f"{100 * r.recorder.fraction_below(100_000):.2f}",
             f"{100 * r.recorder.fraction_below(1_000_000):.2f}")
            for name, r in results.items()]
    print_report(comparison_table(
        rows, ["kernel", "max(ms)", "<0.1ms(%)", "<1ms(%)"]))

    vanilla = results["vanilla-up"].recorder
    redhawk = results["redhawk-up"].recorder
    # No shield is possible on UP; the patches alone must carry it.
    assert redhawk.max() < vanilla.max()
    assert vanilla.max() > 2_000_000      # unbounded-tail class
    assert redhawk.max() < 3_000_000      # low-ms class (not sub-ms:
    #                                       that needs the shield + SMP)
