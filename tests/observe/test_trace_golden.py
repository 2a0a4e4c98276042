"""Tracing across the whole catalog: observation is invisible.

Over the shared composed run of the golden sweep
(:func:`tests.experiments.test_golden_outputs.composed_run`), which
installs full typed tracing (tracepoints, per-CPU accounting, lock
hooks, attribution), every registered scenario must export exactly the
golden JSON captured from uninstrumented runs.  Any divergence means a
tracepoint perturbed simulated time, randomness or kernel state.

The sweep also enforces the CI criterion on every latency scenario:
per-sample attribution buckets sum to the recorded latency within 1%.
"""

from __future__ import annotations

import pytest

from tests.experiments.test_golden_outputs import GOLDEN_NAMES, composed_run


@pytest.mark.slow
@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_traced_run_matches_golden_and_sums_close(name: str) -> None:
    result, _report = composed_run(name)
    assert result.trace is not None
    check = result.trace["attribution"]["sum_check"]
    assert check["ok"], (
        f"scenario {name!r}: attribution buckets missed the recorded "
        f"latency by {check['max_rel_err']:.3%} "
        f"(max {check['max_abs_err_ns']} ns)")
