"""Disabled simfault is invisible: the golden byte-identity sweep.

The fault subsystem's contract is that *importable-but-disabled*
means untouched simulation: the shared composed run of the golden
sweep (:func:`tests.experiments.test_golden_outputs.composed_run`)
installs a zero-intensity fault controller in every scenario without
a plan of its own, and must still export exactly the golden JSON
captured without simfault in the process at all.  Any divergence
means constructing or installing the controller consumed randomness,
scheduled an event, or left a hook behind.

Storm scenarios are excluded: their goldens were (deliberately)
captured *with* their plans enabled, so a disabled run diverges by
design there.
"""

from __future__ import annotations

import pytest

from repro.experiments.scenario import scenario, scenario_names

from tests.experiments.test_golden_outputs import GOLDEN_NAMES, composed_run


def _faultless_names():
    registered = set(scenario_names())
    return [name for name in GOLDEN_NAMES
            if name in registered and not scenario(name).fault_plan]


@pytest.mark.slow
@pytest.mark.parametrize("name",
                         _faultless_names() or ["<missing goldens>"])
def test_disabled_faults_leave_exports_byte_identical(name: str) -> None:
    result, _report = composed_run(name)
    assert result.faults is not None
    assert result.faults["enabled"] is False
    assert result.faults["injections"] == 0


def test_goldens_cover_the_storm_scenarios() -> None:
    """Storm reruns are golden-pinned like everything else."""
    for name in ("storm-fig5", "storm-fig6", "storm-fig7"):
        assert name in GOLDEN_NAMES
