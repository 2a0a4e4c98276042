"""Figure 4: execution determinism, kernel.org 2.4.21, hyperthreading off.

Paper result: ideal 1.147227 s, max 1.298122 s, jitter ~0.151 s
(13.15%).  Comparing with Figure 1 isolates hyperthreading as the
cause of the extra indeterminism.
"""

from conftest import note, print_report, scaled

from repro.experiments.scenario import run_named

PAPER_JITTER_PCT = 13.15


def test_fig4_vanilla_noht_determinism(benchmark):
    result = benchmark.pedantic(
        lambda: run_named("fig4", iterations=scaled(15, minimum=6)),
        rounds=1, iterations=1)

    print_report(result.report())
    note(f"paper jitter: {PAPER_JITTER_PCT}%  "
          f"measured: {result.jitter_percent():.2f}%")

    assert 5.0 < result.jitter_percent() < 35.0


def test_fig4_vs_fig1_identifies_hyperthreading(benchmark):
    """'This test clearly identifies hyperthreading as the culprit for
    even greater non-deterministic execution.'"""
    def run_pair():
        return (run_named("fig1", iterations=scaled(8, minimum=5)),
                run_named("fig4", iterations=scaled(8, minimum=5)))

    with_ht, without_ht = benchmark.pedantic(run_pair, rounds=1,
                                             iterations=1)
    print_report(
        f"with HT jitter:    {with_ht.jitter_percent():.2f}%\n"
        f"without HT jitter: {without_ht.jitter_percent():.2f}%")
    assert with_ht.jitter_percent() > without_ht.jitter_percent() * 1.3
