"""Byte-identity goldens for every registered scenario.

The fast-path event core (packed-key heap, batched recorders)
is required to be a pure performance change: every scenario must
export byte-identical JSON before and after.  This test pins that down
by comparing each scenario's exported JSON -- at reduced but
non-trivial sizes -- against goldens captured from the pre-optimization
engine.

Regenerate (only when a change is *meant* to alter simulation
behaviour, e.g. a new timing model -- never to paper over an
accidental divergence)::

    PYTHONPATH=src python tests/experiments/test_golden_outputs.py --regen
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.export import scenario_to_dict, to_json
from repro.experiments.scenario import run_scenario, scenario, scenario_names

GOLDEN_PATH = Path(__file__).parent / "golden" / "scenario_outputs.json"

#: Reduced run sizes: large enough to exercise every code path
#: (devices, shields, FBS frames, ideal-baseline runs), small enough
#: that the whole sweep stays in tens of seconds.
GOLDEN_KNOBS = dict(samples=300, iterations=3, duration_ns=150_000_000)


def _export(name: str) -> str:
    spec = scenario(name).configured(**GOLDEN_KNOBS)
    return to_json(scenario_to_dict(run_scenario(spec)))


def _load_goldens() -> dict:
    with GOLDEN_PATH.open("r", encoding="utf-8") as fh:
        return json.load(fh)


_GOLDEN = _load_goldens() if GOLDEN_PATH.exists() else {}


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(_GOLDEN) or ["<missing goldens>"])
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
