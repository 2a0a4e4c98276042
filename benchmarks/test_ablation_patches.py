"""Ablation A2: the open-source patch lineage.

The paper's introduction: "The combination of the preemption patch and
the low-latency patch sets was used ... to demonstrate a worst-case
interrupt response time of 1.2 milliseconds."  This ablation runs the
Figure 5 setup across all four patch combinations on the 2.4 baseline
(no shield) and reports worst-case latency per variant.
"""

from conftest import family, print_report, scaled

from repro.metrics.report import comparison_table


def test_ablation_preempt_lowlat_patches(benchmark):
    results = benchmark.pedantic(
        lambda: family("a2", samples=scaled(8_000, minimum=2_000)),
        rounds=1, iterations=1)

    rows = []
    for name, result in results.items():
        rec = result.recorder
        rows.append((name, f"{rec.max() / 1e6:.3f}",
                     f"{100 * rec.fraction_below(100_000):.2f}",
                     f"{100 * rec.fraction_below(1_000_000):.2f}"))
    print_report(comparison_table(
        rows, ["kernel", "max(ms)", "<0.1ms(%)", "<1ms(%)"]))

    stock = results["stock"].recorder.max()
    both = results["preempt+lowlat"].recorder.max()
    # Each patch family helps; the combination dominates stock by a
    # large factor (paper: 92 ms -> ~1.2 ms class).
    assert both < stock
    assert both < 5_000_000  # low single-digit ms worst case
    assert stock > 2_000_000  # stock has a multi-ms tail
    # Low-latency alone already bounds the huge fs sections.
    assert results["low-latency"].recorder.max() < stock
