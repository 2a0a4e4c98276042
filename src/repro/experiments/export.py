"""Result export: figure data as plain dictionaries / JSON.

:func:`run_scenario <repro.experiments.scenario.run_scenario>` returns
a rich :class:`ScenarioResult`; downstream users plotting with their
own tooling want flat, stable data.  These exporters produce
JSON-serialisable dictionaries carrying everything a figure needs: the
summary statistics, the histogram series, and the provenance (kernel
description, sample count, seed-independent identity of the
experiment).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, TYPE_CHECKING

import numpy as np

from repro.metrics.histogram import Histogram, LogHistogram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.campaign import CampaignResult
    from repro.experiments.scenario import ScenarioResult

#: Bins of the determinism variance histogram (ms from ideal).
VARIANCE_BINS = 50
#: Range of the latency log histogram, in ns.
LATENCY_HIST_LO_NS = 1_000.0
LATENCY_HIST_HI_NS = 100_000_000.0


def determinism_to_dict(result: "ScenarioResult") -> Dict[str, Any]:
    """Flatten a determinism result (Figures 1-4 style)."""
    rec = result.recorder
    variances = rec.variances_ms()
    hi = max(1.0, float(variances.max()) * 1.05) if len(variances) else 1.0
    hist = Histogram(0.0, hi, VARIANCE_BINS)
    hist.add_many(variances)
    return {
        "figure": result.title,
        "kernel": result.kernel_name,
        "seed": result.seed,
        "iterations": rec.count,
        "ideal_s": result.ideal_ns / 1e9,
        "max_s": result.max_ns() / 1e9,
        "jitter_s": result.jitter_ns() / 1e9,
        "jitter_percent": result.jitter_percent(),
        "variance_ms_series": variances.tolist(),
        "histogram": {
            "unit": "ms-from-ideal",
            "bins": [{"lo": b.lo, "hi": b.hi, "count": b.count}
                     for b in hist.bins()],
        },
    }


def latency_to_dict(result: "ScenarioResult") -> Dict[str, Any]:
    """Flatten a latency result (Figures 5-7 style)."""
    rec = result.recorder
    hist = LogHistogram(LATENCY_HIST_LO_NS, LATENCY_HIST_HI_NS)
    hist.add_many(np.maximum(rec.as_array(), LATENCY_HIST_LO_NS + 1))
    return {
        "figure": result.title,
        "kernel": result.kernel_name,
        "seed": result.seed,
        "samples": rec.count,
        "min_us": rec.min() / 1e3,
        "mean_us": rec.mean() / 1e3,
        "max_us": rec.max() / 1e3,
        "histogram": {
            "unit": "ns",
            "log_bins": [{"lo": b.lo, "hi": b.hi, "count": b.count}
                         for b in hist.bins() if b.count],
        },
    }


def scenario_to_dict(result: "ScenarioResult") -> Dict[str, Any]:
    """Flatten a scenario-layer result, whatever its kind."""
    if result.kind == "determinism":
        out = determinism_to_dict(result)
    else:
        out = latency_to_dict(result)
    out["scenario"] = result.scenario
    out["kind"] = result.kind
    if result.details:
        out["details"] = dict(result.details)
    return out


def campaign_to_dict(result: "CampaignResult") -> Dict[str, Any]:
    """Flatten a whole campaign: every run plus per-scenario merges.

    The output is deterministic for a given campaign matrix (runs in
    job-expansion order, merges folded in that same order), which is
    what the worker-count-independence guarantee is asserted against.
    """
    runs = []
    for job, run in zip(result.jobs, result.runs):
        data = scenario_to_dict(run)
        if job.override_tag:
            data["override"] = job.override_tag
        runs.append(data)
    merged = {}
    for name in sorted(result.merged):
        rec = result.merged[name]
        merged[name] = {
            "count": rec.count,
            "max_ns": rec.max(),
            "samples_or_durations": list(
                getattr(rec, "samples", None)
                or getattr(rec, "durations", [])),
        }
    return {
        "campaign": {
            "scenarios": list(result.campaign.scenarios),
            "seeds": list(result.campaign.seeds),
            "overrides": [tag for tag, _ in result.campaign.config_overrides
                          if tag],
        },
        "runs": runs,
        "merged": merged,
    }


def to_json(data: Dict[str, Any], path: Optional[str] = None) -> str:
    """Serialise an exported dictionary (optionally writing a file).

    The text is exactly ``json.dumps(data, indent=2, sort_keys=True)``
    -- every served artifact, ``--json`` file and golden depends on
    those bytes -- from a join-based writer, because before Python
    3.13 json's indenting encoder is a token-per-value Python
    generator.  A self-referencing container raises ``RecursionError``
    where json raises ``ValueError``.
    """
    text = _encode(data, "\n")
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text


_INT_REPR = int.__repr__
_FLOAT_REPR = float.__repr__
_ESCAPE = json.encoder.encode_basestring_ascii
#: json's spellings of the non-finite floats, keyed by ``float.__repr__``.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_ONLY_INT = {int}


def _float_text(value: float) -> str:
    text = _FLOAT_REPR(value)
    return _NON_FINITE.get(text, text)


def _key_text(key: Any) -> str:
    """A dict key as json coerces it, before quoting."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _encode(key, "")  # bool is an int: true / false
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _encode(value: Any, newline: str) -> str:
    """*value* as json's indent=2 text; *newline* is its line's break."""
    # The order of the checks is json's, so subclasses (IntEnum,
    # np.float64, str enums) take the branch json gives them.
    if isinstance(value, str):
        return _ESCAPE(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return _INT_REPR(value)
    if isinstance(value, float):
        return _float_text(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        if set(map(type, value)) == _ONLY_INT:
            body = ("," + inner).join(map(_INT_REPR, value))
        else:
            body = ("," + inner).join([_encode(item, inner)
                                       for item in value])
        return "[" + inner + body + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        body = ("," + inner).join([
            _ESCAPE(_key_text(key)) + ": " + _encode(item, inner)
            for key, item in sorted(value.items())])
        return "{" + inner + body + newline + "}"
    raise TypeError(f"Object of type {value.__class__.__name__} "
                    f"is not JSON serializable")
