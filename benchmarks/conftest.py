"""Benchmark configuration.

Every benchmark regenerates one of the paper's figures/tables at a
scale controlled by ``REPRO_BENCH_SCALE`` (default 1.0): sample counts
and iteration counts are multiplied by it.  Each benchmark prints the
same rows the paper's figure legend shows, then asserts the
qualitative shape (orderings and bounds), so a benchmark run doubles
as a reproduction report.

Run with::

    pytest benchmarks/ --benchmark-only

Set ``REPRO_BENCH_SCALE=5`` for publication-scale runs (slower).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.scenario import run_named, scenario_names

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(value: int, minimum: int = 1) -> int:
    return max(minimum, int(value * SCALE))


def family(group: str, **knobs):
    """Run every scenario of ablation *group*, keyed by variant name
    (the scenario name without its ``<group>-`` prefix)."""
    prefix = f"{group}-"
    return {name[len(prefix):]: run_named(name, **knobs)
            for name in scenario_names(group=group)}


@pytest.fixture(scope="session")
def bench_scale() -> float:
    return SCALE


def print_report(text: str) -> None:
    """Print a paper-format table, bypassing pytest's capture.

    Benchmark runs double as reproduction reports; the tables must
    land in the terminal / tee'd log even without ``-s``.
    """
    import sys

    out = getattr(sys, "__stdout__", sys.stdout)
    print(file=out)
    print("=" * 70, file=out)
    print(text, file=out)
    print("=" * 70, file=out)
    out.flush()


def note(text: str) -> None:
    """One-line annotation that also bypasses pytest capture."""
    import sys

    out = getattr(sys, "__stdout__", sys.stdout)
    print(text, file=out)
    out.flush()
