"""Byte-identity goldens for every registered scenario, plain and observed.

The fast-path event core (packed-key heap, batched recorders)
is required to be a pure performance change: every scenario must
export byte-identical JSON before and after.  This module pins that
down by comparing each scenario's exported JSON -- at reduced but
non-trivial sizes -- against goldens captured from the pre-optimization
engine.

Every scenario runs twice:

* **plain** -- no observer installed; the export equals the golden.
* **composed** -- every observer installed at once: lockdep, typed
  tracing with attribution, the static-bounds cross-check and a fault
  controller (the scenario's own plan, else a disabled one).  Its
  export must still equal the golden, which proves the observers leave
  the simulation alone even in combination; when it diverges, the
  scenario re-runs under each observer alone to name the ones that
  diverge.

:func:`composed_run` caches the composed run, so each observer's own
contract is a test over that one run in the observer's own suite:
``tests/analysis/test_lockdep_golden.py`` (no lockdep violation),
``tests/observe/test_trace_golden.py`` (attribution buckets that sum
to every recorded latency), ``tests/analysis/test_bounds_golden.py``
(observed maxima under their certified bounds) and
``tests/faults/test_disabled_identity.py`` (a disabled controller that
injects nothing).

Regenerate (only when a change is *meant* to alter simulation
behaviour, e.g. a new timing model -- never to paper over an
accidental divergence)::

    PYTHONPATH=src python tests/experiments/test_golden_outputs.py --regen
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from repro.analysis.bounds import compare_result, compute_bounds
from repro.analysis.lockdep import LockdepConfig
from repro.experiments.export import scenario_to_dict, to_json
from repro.experiments.scenario import run_scenario, scenario, scenario_names
from repro.faults import fault_plan
from repro.observe.tracer import TraceConfig

GOLDEN_PATH = Path(__file__).parent / "golden" / "scenario_outputs.json"

#: Reduced run sizes: large enough to exercise every code path
#: (devices, shields, FBS frames, ideal-baseline runs), small enough
#: that the whole sweep stays in tens of seconds.
GOLDEN_KNOBS = dict(samples=300, iterations=3, duration_ns=150_000_000)


def _export(name: str, **observers) -> str:
    spec = scenario(name).configured(**GOLDEN_KNOBS)
    return to_json(scenario_to_dict(run_scenario(spec, **observers)))


def _load_goldens() -> dict:
    with GOLDEN_PATH.open("r", encoding="utf-8") as fh:
        return json.load(fh)


_GOLDEN = _load_goldens() if GOLDEN_PATH.exists() else {}
#: Parametrisation of every sweep over the golden-pinned scenarios.
GOLDEN_NAMES = sorted(_GOLDEN) or ["<missing goldens>"]


def _observers(spec) -> dict:
    """Every observer, keyed by its ``run_scenario`` argument."""
    # Storm goldens were captured with their plans enabled; every other
    # scenario carries a controller that must stay a complete no-op.
    faults = (None if spec.fault_plan
              else fault_plan("storm-fig6").scaled(0.0))
    return {"lockdep": LockdepConfig(), "trace": TraceConfig(),
            "faults": faults}


@functools.lru_cache(maxsize=None)
def composed_run(name: str) -> tuple:
    """Run *name* once with every observer composed; returns
    ``(result, bounds report)``.

    Fails unless the export equals the golden, naming the observers
    that diverge alone.  Cached, so the per-observer contract tests
    share one run per scenario.
    """
    if not _GOLDEN:
        pytest.fail(f"golden file missing: {GOLDEN_PATH}")
    spec = scenario(name).configured(**GOLDEN_KNOBS)
    bounds = compute_bounds(spec)
    observers = _observers(spec)
    result = run_scenario(spec, **observers)
    golden = to_json(_GOLDEN[name])
    if to_json(scenario_to_dict(result)) != golden:
        alone = [key for key, value in observers.items()
                 if value is not None
                 and _export(name, **{key: value}) != golden]
        pytest.fail(
            f"scenario {name!r} diverged with every observer composed; "
            f"alone, {', '.join(alone) or 'none'} diverged.  Observers "
            "must not perturb the simulation")
    return result, compare_result(bounds, result)


@pytest.mark.slow
@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_scenario_output_is_byte_identical(name: str) -> None:
    if not _GOLDEN:
        pytest.fail(f"golden file missing: {GOLDEN_PATH} "
                    "(regenerate with --regen, see module docstring)")
    assert _export(name) == to_json(_GOLDEN[name]), (
        f"scenario {name!r} diverged from its golden output; the event-"
        "core contract requires optimizations to be byte-identical")


def test_goldens_cover_every_registered_scenario() -> None:
    """A newly registered scenario must get a golden entry."""
    if not _GOLDEN:
        pytest.fail(f"golden file missing: {GOLDEN_PATH}")
    assert sorted(_GOLDEN) == scenario_names()


def regenerate() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    goldens = {}
    for name in scenario_names():
        print(f"  running {name} ...", flush=True)
        goldens[name] = json.loads(_export(name))
    with GOLDEN_PATH.open("w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH} ({len(goldens)} scenarios)")


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("refusing to run without --regen (see module docstring)")
    regenerate()
