"""Lockdep across the whole catalog: observation is invisible and
every registered scenario is violation-free.

Two guarantees per registered scenario, over the shared composed run
of the golden sweep (:func:`tests.experiments.test_golden_outputs.composed_run`):

* **Byte identity** -- the run under the validator exports exactly the
  golden JSON captured from uninstrumented runs, proving the
  observational contract (no simulated-time or RNG perturbation) over
  every code path the catalog exercises.
* **Invariant cleanliness** -- the simulated kernels themselves break
  none of the lockdep invariants in any scenario: no inversions, no
  sleep-in-atomic, no unbalanced exits, no shield-affinity leaks.
"""

from __future__ import annotations

import pytest

from tests.experiments.test_golden_outputs import GOLDEN_NAMES, composed_run


@pytest.mark.slow
@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_lockdep_observed_run_matches_golden_and_is_clean(name: str
                                                          ) -> None:
    result, _report = composed_run(name)
    assert result.lockdep == [], (
        f"scenario {name!r} violated kernel invariants: {result.lockdep}")
