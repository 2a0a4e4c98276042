"""Static determinism linter for the simulation sources.

The whole repository rests on runs being reproducible: the golden
tests assert byte-identical exports, the campaign runner asserts
worker-count independence, and every figure is keyed by seed.  That
property is easy to break with one innocent-looking line -- a
``time.time()`` timestamp, a draw from the global ``random`` module, a
``for cpu in {…}`` whose order feeds the event queue.  This package is
an AST pass that catches those classes of bug before they run:

* ``wall-clock`` -- importing ``time``/``datetime`` (use
  :mod:`repro.sim.simtime` and the simulator clock);
* ``global-random`` -- the global ``random`` module or NumPy's global
  random state (use named :mod:`repro.sim.rng` substreams);
* ``unordered-iter`` -- loops or comprehensions over ``set`` /
  ``frozenset`` expressions (sort first -- set order is hash-seed
  dependent);
* ``no-slots-dataclass`` -- hot-path dataclasses in ``repro/sim`` /
  ``repro/kernel`` without ``slots=True``;
* ``ungated-label`` -- f-string ``label=`` arguments in the sim /
  kernel / hw layers; use a static label (an f-string burns time in
  the hot loop, and the typed tracepoints already carry the names).

Findings can be suppressed per line with ``# lint: ok(rule-name)`` or
per file via :data:`repro.analysis.lint.rules.ALLOW`.  Run it with
``python -m repro.analysis.lint [paths...] [--json]``; it exits
non-zero when findings remain, which is how CI enforces it.
"""

from repro.analysis.lint.engine import Finding, lint_file, lint_paths
from repro.analysis.lint.rules import ALL_RULES, ALLOW

__all__ = ["ALL_RULES", "ALLOW", "Finding", "lint_file", "lint_paths"]
