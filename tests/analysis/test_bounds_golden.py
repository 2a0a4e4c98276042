"""simbound across the whole catalog: the cross-check is invisible
and every observed maximum sits under its static bound.

Two things per registered scenario, over the shared composed run of
the golden sweep (:func:`tests.experiments.test_golden_outputs.composed_run`,
which carries typed tracing for the accounting maxima):

* **Byte identity** -- the cross-checked run exports exactly the golden
  JSON captured from uninstrumented runs: the cross-check draws no
  random numbers and shifts no simulated time.
* **Soundness** -- the runtime accounting maxima (irq-off,
  preempt-off, BKL hold, per-CPU) and the measured response never
  exceed what the static model certified.  A violation here is a bug
  in :mod:`repro.analysis.bounds.model`, not in the kernel under test.
"""

from __future__ import annotations

import pytest

from tests.experiments.test_golden_outputs import GOLDEN_NAMES, composed_run


@pytest.mark.slow
@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_crosschecked_run_matches_golden_and_stays_bounded(name: str
                                                           ) -> None:
    _result, report = composed_run(name)
    report.raise_if_failed()
