#!/usr/bin/env python
"""Reproduce the execution-determinism experiment: Figures 1-4.

Times the sine-wave computation loop (section 5.1) under the scp +
disknoise load on all four configurations and prints the paper-style
legends plus a variance histogram per run.  Each figure is a
registered scenario (``fig1`` .. ``fig4``) run through the declarative
scenario layer.

Run:  python examples/determinism_comparison.py  [iterations]
"""

import sys

from repro.experiments.scenario import run_named
from repro.metrics.histogram import Histogram

PAPER = {
    "fig1": 26.17,
    "fig2": 1.87,
    "fig3": 14.82,
    "fig4": 13.15,
}


def render_variances(result, width=56):
    hist = Histogram(0.0, max(1.0, max(result.recorder.variances_ms()) * 1.1),
                     12)
    hist.add_many(result.recorder.variances_ms())
    lines = []
    peak = max((b.count for b in hist.bins()), default=1)
    for b in hist.bins():
        if b.count:
            bar = "#" * max(1, int(width * b.count / peak))
            lines.append(f"  {b.lo:8.1f}-{b.hi:<8.1f}ms |{bar} {b.count}")
    return "\n".join(lines)


def main():
    iterations = int(sys.argv[1]) if len(sys.argv) > 1 else 10

    for name, paper_pct in PAPER.items():
        result = run_named(name, iterations=iterations)
        print(result.report())
        print(render_variances(result))
        print(f"  paper jitter: {paper_pct}%   "
              f"measured: {result.jitter_percent():.2f}%")
        print()


if __name__ == "__main__":
    main()
