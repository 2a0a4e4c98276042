"""Ablation A4: hyperthreading under RedHawk.

"Note that hyperthreading is disabled by default in RedHawk."  This
ablation quantifies that default: the same RedHawk determinism run
with the execution units shared vs dedicated.
"""

from conftest import family, print_report, scaled

from repro.metrics.report import comparison_table


def test_ablation_hyperthreading(benchmark):
    results = benchmark.pedantic(
        lambda: family("a4", iterations=scaled(10, minimum=5)),
        rounds=1, iterations=1)

    rows = [(name, f"{r.ideal_ns / 1e9:.4f}", f"{r.max_ns() / 1e9:.4f}",
             f"{r.jitter_percent():.2f}")
            for name, r in results.items()]
    print_report(comparison_table(
        rows, ["variant", "ideal(s)", "max(s)", "jitter(%)"]))

    # Sharing the execution unit visibly degrades determinism.
    assert (results["ht-on"].jitter_percent()
            > results["ht-off"].jitter_percent() * 1.3)
