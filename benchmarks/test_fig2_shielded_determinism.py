"""Figure 2: execution determinism, RedHawk 1.4, shielded CPU.

Paper result: ideal 1.147223 s, max 1.168712 s, jitter 0.021489 s
(1.87%) -- attributed to SMP memory contention.
"""

from conftest import note, print_report, scaled

from repro.experiments.scenario import run_named

PAPER_JITTER_PCT = 1.87


def test_fig2_redhawk_shielded_determinism(benchmark):
    result = benchmark.pedantic(
        lambda: run_named("fig2", iterations=scaled(15, minimum=6)),
        rounds=1, iterations=1)

    print_report(result.report())
    note(f"paper jitter: {PAPER_JITTER_PCT}%  "
          f"measured: {result.jitter_percent():.2f}%")

    # A shielded CPU is deterministic to a few percent.
    assert result.jitter_percent() < 5.0
    # But not perfectly: the memory-contention residual exists.
    assert result.jitter_ns() > 0
