"""On-disk entry format: one scenario run, binary + JSON, checksummed.

Layout (little-endian)::

    offset  size      field
    0       8         magic  b"RRSTORE1"
    8       4         u32    meta_len
    12      meta_len  utf-8  canonical JSON metadata (sort_keys)
    ...     8*count   i64[]  recorder samples / durations
    end-4   4         u32    CRC-32 of everything before it

The metadata carries everything a :class:`~repro.experiments.scenario.
ScenarioResult` export needs except the sample array itself: scenario
identity, kernel description, recorder reconstruction parameters
(type, name, period, forced ideal), the details dict, and the fault
summary (injection counts + CRC timeline digest -- the margin ladder's
cell inputs).  Observational attachments (``lockdep``, ``trace``) are
deliberately **not** stored: exports must stay byte-identical with and
without observation, so a cache hit reproduces the unobserved result.

A *stalled* entry (``meta["stalled"]`` true, zero-length array) records
a run that raised :class:`~repro.sim.errors.SimulationStalledError`;
the margin ladder caches those as unbounded cells instead of re-running
interference heavy enough to stall the simulation.

A second entry kind shares the frame: **trace recordings** (magic
``b"RTRACE1\\0"``, suffix ``.rts``) persist a traced run's typed
tracepoint stream, per-CPU accounting snapshot and attribution
timeline for ``repro.observe.diff`` (simdiff).  The payload is the
zlib-compressed canonical-JSON recording body; the metadata carries
``entry_kind: "rtrace"`` plus the identity fields (scenario, seed,
knobs, code digest) and the exact compressed/raw byte counts, so a
flipped bit anywhere fails either the CRC or the length checks.

Any mismatch -- bad magic, short file, trailing garbage, CRC failure,
meta/payload length disagreement -- raises :class:`StoreCorruptError`;
callers treat corrupt entries as cache misses.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.metrics.recorder import JitterRecorder, LatencyRecorder

MAGIC = b"RRSTORE1"
TRACE_MAGIC = b"RTRACE1\x00"
FORMAT_VERSION = 1


class StoreCorruptError(ValueError):
    """An entry failed validation (truncated, flipped bits, bad magic)."""


def _meta_for(result: Any, key: str, code: str) -> Dict[str, Any]:
    recorder = result.recorder
    if isinstance(recorder, JitterRecorder):
        rec_meta: Dict[str, Any] = {
            "type": "jitter",
            "name": recorder.name,
            "forced_ideal": recorder._forced_ideal,
        }
    elif isinstance(recorder, LatencyRecorder):
        rec_meta = {
            "type": "latency",
            "name": recorder.name,
            "period_ns": recorder.period_ns,
        }
    else:
        raise TypeError(f"unstorable recorder {type(recorder).__name__}")
    faults: Optional[Dict[str, Any]] = None
    if result.faults is not None:
        # The timeline is O(injections) and only the digest is ever
        # compared downstream; store the summary, not the event list.
        faults = {k: result.faults[k]
                  for k in ("plan", "intensity", "enabled",
                            "lockdep_composed", "injections",
                            "by_injector", "digest")
                  if k in result.faults}
    return {
        "format": FORMAT_VERSION,
        "key": key,
        "code": code,
        "stalled": False,
        "error": None,
        "scenario": result.scenario,
        "title": result.title,
        "kind": result.kind,
        "kernel_name": result.kernel_name,
        "seed": result.seed,
        "report_style": result.report_style,
        "ideal_ns": result.ideal_ns,
        "details": dict(result.details),
        "recorder": rec_meta,
        "faults": faults,
    }


def _frame(meta: Dict[str, Any], payload: bytes,
           magic: bytes = MAGIC) -> bytes:
    meta_bytes = json.dumps(meta, sort_keys=True,
                            separators=(",", ":")).encode("utf-8")
    body = b"".join((magic, struct.pack("<I", len(meta_bytes)),
                     meta_bytes, payload))
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def _unframe(blob: bytes,
             magic: bytes = MAGIC) -> Tuple[Dict[str, Any], bytes]:
    """Validate the shared frame; returns (meta, payload bytes)."""
    if len(blob) < len(magic) + 8:
        raise StoreCorruptError("entry truncated (shorter than header)")
    if blob[:len(magic)] != magic:
        raise StoreCorruptError("bad magic (not a store entry)")
    body, (crc,) = blob[:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise StoreCorruptError("CRC mismatch (corrupted entry)")
    (meta_len,) = struct.unpack_from("<I", blob, len(magic))
    meta_start = len(magic) + 4
    meta_end = meta_start + meta_len
    if meta_end > len(body):
        raise StoreCorruptError("meta length exceeds entry size")
    try:
        meta = json.loads(body[meta_start:meta_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreCorruptError(f"unreadable metadata: {exc}") from None
    if not isinstance(meta, dict) or meta.get("format") != FORMAT_VERSION:
        raise StoreCorruptError("unknown entry format")
    return meta, body[meta_end:]


def encode_result(result: Any, key: str, code: str) -> bytes:
    """Serialise a ScenarioResult into one checksummed entry."""
    arr = np.ascontiguousarray(result.recorder.as_array(),
                               dtype="<i8")
    meta = _meta_for(result, key, code)
    meta["count"] = int(arr.size)
    return _frame(meta, arr.tobytes())


def encode_stalled(scenario: str, error: str, key: str,
                   code: str) -> bytes:
    """Serialise a stalled-run marker (no samples, just the error)."""
    meta = {
        "format": FORMAT_VERSION,
        "key": key,
        "code": code,
        "stalled": True,
        "error": error,
        "scenario": scenario,
        "count": 0,
    }
    return _frame(meta, b"")


def decode(blob: bytes) -> Tuple[Dict[str, Any], np.ndarray]:
    """Validate and split a result entry into (meta, samples array).

    Raises :class:`StoreCorruptError` on any inconsistency.
    """
    meta, payload = _unframe(blob, MAGIC)
    count = meta.get("count", 0)
    if len(payload) != 8 * count:
        raise StoreCorruptError(
            f"payload holds {len(payload) // 8} samples, "
            f"meta promises {count}")
    arr = np.frombuffer(payload, dtype="<i8").astype(np.int64)
    return meta, arr


#: Recording body fields lifted into the entry metadata so ``store
#: ls``/``gc`` can identify a recording without decompressing it.
_RECORDING_META_FIELDS = ("scenario", "kind", "kernel_name", "seed",
                         "samples_target", "iterations", "capacity",
                         "shielded", "fault_plan", "fault_intensity")


def encode_recording(body: Dict[str, Any], key: str,
                     code: str) -> bytes:
    """Serialise a trace-recording body into one RTRACE1 entry.

    *body* is the plain-dict recording produced by
    :mod:`repro.observe.diff.recording`; it is stored as
    zlib-compressed canonical JSON so an entry stays a few hundred KB
    even with tens of thousands of tracepoint events.  zlib's default
    level 6 runs 4-5x faster than level 9; sizes differ by about 1%.
    The encoder keeps no table of the containers it is inside (the
    text is the same), so a self-referencing body raises
    ``RecursionError`` where json raises ``ValueError``.
    """
    raw = json.dumps(body, sort_keys=True, separators=(",", ":"),
                     check_circular=False).encode("utf-8")
    payload = zlib.compress(raw, 6)
    meta: Dict[str, Any] = {
        "format": FORMAT_VERSION,
        "entry_kind": "rtrace",
        "key": key,
        "code": code,
        "payload_bytes": len(payload),
        "raw_bytes": len(raw),
    }
    for field in _RECORDING_META_FIELDS:
        if field in body:
            meta[field] = body[field]
    return _frame(meta, payload, magic=TRACE_MAGIC)


def decode_recording(blob: bytes) -> Tuple[Dict[str, Any],
                                           Dict[str, Any]]:
    """Validate and split an RTRACE1 entry into (meta, body dict)."""
    meta, payload = _unframe(blob, TRACE_MAGIC)
    if meta.get("entry_kind") != "rtrace":
        raise StoreCorruptError("RTRACE1 frame without rtrace meta")
    if len(payload) != meta.get("payload_bytes"):
        raise StoreCorruptError(
            f"payload holds {len(payload)} bytes, "
            f"meta promises {meta.get('payload_bytes')}")
    try:
        raw = zlib.decompress(payload)
    except zlib.error as exc:
        raise StoreCorruptError(
            f"undecompressable recording: {exc}") from None
    if len(raw) != meta.get("raw_bytes"):
        raise StoreCorruptError(
            f"recording inflates to {len(raw)} bytes, "
            f"meta promises {meta.get('raw_bytes')}")
    try:
        body = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreCorruptError(
            f"unreadable recording body: {exc}") from None
    if not isinstance(body, dict):
        raise StoreCorruptError("recording body is not an object")
    return meta, body


def entry_kind_of(meta: Dict[str, Any]) -> str:
    """Classify an entry's metadata: result | stalled | rtrace."""
    if meta.get("entry_kind") == "rtrace":
        return "rtrace"
    if meta.get("stalled"):
        return "stalled"
    return "result"


def result_from_entry(meta: Dict[str, Any], arr: np.ndarray) -> Any:
    """Rebuild the ScenarioResult a non-stalled entry describes."""
    from repro.experiments.scenario import ScenarioResult

    rec_meta = meta["recorder"]
    if rec_meta["type"] == "jitter":
        recorder: Any = JitterRecorder(rec_meta["name"],
                                       ideal_ns=rec_meta["forced_ideal"],
                                       capacity=int(arr.size))
    else:
        recorder = LatencyRecorder(rec_meta["name"],
                                   period_ns=rec_meta["period_ns"],
                                   capacity=int(arr.size))
    if arr.size:
        recorder._data.extend_array(arr)
    return ScenarioResult(
        scenario=meta["scenario"],
        title=meta["title"],
        kind=meta["kind"],
        kernel_name=meta["kernel_name"],
        seed=meta["seed"],
        recorder=recorder,
        report_style=meta["report_style"],
        ideal_ns=meta["ideal_ns"],
        details=dict(meta["details"]),
        faults=dict(meta["faults"]) if meta["faults"] is not None
        else None,
    )
