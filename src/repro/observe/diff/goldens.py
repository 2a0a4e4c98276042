"""Semantic goldens: committed baseline recordings, checked by diff.

The byte-golden suites pin exports bit-for-bit; when they break, CI
shows a CRC/byte mismatch with no explanation.  Semantic goldens are
the forensic layer above them: a small committed
:class:`~repro.observe.diff.recording.TraceRecording` per headline
scenario (fig5-7 plus the storm-fig6 shielded/unshielded twin pair),
re-recorded under the current tree and *diffed* -- an intentional
behaviour change fails with the simdiff report (which bucket moved,
which span appeared, at what simulated time) instead of a checksum.

The committed knobs keep recordings small (hundreds of samples, a
modest ring); each baseline embeds its own knobs, so
:func:`check_golden` needs nothing but the file.  Regenerate with
``tools/record_goldens.py`` after an intentional behaviour change.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Tuple

from repro.observe.diff.engine import TraceDiff, diff_recordings
from repro.observe.diff.recording import (
    TraceRecording,
    record_scenario,
    rerecord,
    spec_for_recording,
)

#: Golden catalog: name -> record knobs.  ``unshielded`` selects the
#: storm twin (shield components stripped, same shield CPU).
GOLDEN_SPECS: Dict[str, Dict[str, Any]] = {
    "fig5": {"scenario": "fig5", "samples": 400, "seed": 1,
             "capacity": 16384},
    "fig6": {"scenario": "fig6", "samples": 400, "seed": 1,
             "capacity": 16384},
    "fig7": {"scenario": "fig7", "samples": 400, "seed": 1,
             "capacity": 16384},
    "storm-fig6": {"scenario": "storm-fig6", "samples": 300, "seed": 1,
                   "capacity": 16384},
    "storm-fig6-unshielded": {"scenario": "storm-fig6", "samples": 300,
                              "seed": 1, "capacity": 16384,
                              "unshielded": True},
}

#: File suffix for committed recordings.
GOLDEN_SUFFIX = ".rtrace"


def golden_dir() -> str:
    """The committed recordings directory (repo-root/goldens)."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(here))))            # diff -> observe -> repro -> src
    return os.path.join(root, "goldens", "recordings")


def golden_names() -> List[str]:
    return sorted(GOLDEN_SPECS)


def golden_path(name: str, directory: str = "") -> str:
    return os.path.join(directory or golden_dir(),
                        f"{name}{GOLDEN_SUFFIX}")


def record_golden(name: str) -> TraceRecording:
    """Record one golden per its catalog knobs (current code tree)."""
    from repro.experiments.scenario import scenario

    knobs = GOLDEN_SPECS[name]
    spec = scenario(knobs["scenario"]).configured(
        samples=knobs["samples"], seed=knobs["seed"])
    if knobs.get("unshielded"):
        spec = spec.unshielded()
    rec, _result = record_scenario(spec, capacity=knobs["capacity"])
    return rec


def check_golden(name: str, directory: str = "") -> TraceDiff:
    """Re-record one golden's run and diff it against the baseline.

    The baseline file embeds its own knobs (via
    :func:`spec_for_recording`), so drift in the *catalog* -- a
    scenario whose registered knobs changed -- surfaces as a diff,
    not a silent re-baseline.
    """
    baseline = TraceRecording.load(golden_path(name, directory))
    fresh = rerecord(baseline)
    return diff_recordings(baseline, fresh,
                           a_label="baseline", b_label="current")


__all__ = [
    "GOLDEN_SPECS",
    "GOLDEN_SUFFIX",
    "check_golden",
    "golden_dir",
    "golden_names",
    "golden_path",
    "record_golden",
    "spec_for_recording",
]
