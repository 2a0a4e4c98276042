"""Stable content-addressed keys for scenario runs.

A run's identity is the pair *(what would execute, what code would
execute it)*:

* **what** -- every field of the :class:`~repro.experiments.scenario.
  ScenarioSpec`, encoded by :func:`canonical_json`: dataclasses become
  ``{"__dataclass__": name, fields...}`` maps, mappings are sorted by
  key, and the ``config_overrides`` pair-tuple is order-insensitive
  (two specs differing only in override insertion order share a key);
* **code** -- a digest of every ``*.py`` file under the installed
  ``repro`` package, so *any* source edit invalidates every cached
  run cleanly.  Byte-identity across refactors is exactly what the
  golden suites prove, but the store never assumes it: a changed tree
  is a changed key, and re-running repopulates the store.

Keys are hex SHA-256 digests of :func:`canonical_json`, the store's one
encoder: a single ``json.dumps`` call, so a plain-JSON body (a trace
recording) encodes entirely in C.  Keys are stable across processes,
platforms and Python versions (the encoding uses ``sort_keys`` and no
floats-from-repr ambiguity beyond what JSON itself defines).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Any, Dict, Optional

#: Cache of tree digests, keyed by resolved root directory: hashing
#: ~180 source files once per process is cheap, once per job is not.
_CODE_VERSIONS: Dict[str, str] = {}


def _non_json(value: Any) -> Any:
    """``json.dumps`` hook for values JSON cannot encode natively."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out: Dict[str, Any] = {"__dataclass__": type(value).__name__}
        for field in dataclasses.fields(value):
            out[field.name] = getattr(value, field.name)
        return out
    # Last resort for exotic override values: a typed repr is stable
    # enough to key on and never silently collides with JSON scalars.
    return {"__repr__": f"{type(value).__name__}:{value!r}"}


def canonical_json(value: Any) -> str:
    """The canonical JSON text of *value*: what every store key hashes.

    Mapping keys must be strings: ``sort_keys`` would order int keys
    numerically and reject a mix of key types.  The encoder keeps no
    table of the containers it is inside (the text is the same), so a
    self-referencing container raises ``RecursionError`` where json
    raises ``ValueError``.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=_non_json, check_circular=False)


def digest_of(value: Any) -> str:
    """Hex SHA-256 of :func:`canonical_json` of *value*."""
    return hashlib.sha256(
        canonical_json(value).encode("utf-8")).hexdigest()


def _package_root() -> str:
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def code_version(root: Optional[str] = None) -> str:
    """Digest of the ``repro`` source tree (or an explicit *root*).

    Every ``*.py`` file under the tree contributes its relative path
    and raw bytes, in sorted path order; ``__pycache__`` is skipped.
    The result is cached per root for the life of the process.
    """
    base = os.path.abspath(root) if root is not None else _package_root()
    cached = _CODE_VERSIONS.get(base)
    if cached is not None:
        return cached
    hasher = hashlib.sha256()
    paths = []
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in filenames:
            if name.endswith(".py"):
                paths.append(os.path.join(dirpath, name))
    for path in sorted(paths):
        rel = os.path.relpath(path, base).replace(os.sep, "/")
        hasher.update(rel.encode("utf-8"))
        hasher.update(b"\0")
        with open(path, "rb") as fh:
            hasher.update(fh.read())
        hasher.update(b"\0")
    digest = hasher.hexdigest()
    _CODE_VERSIONS[base] = digest
    return digest


def _canonical_spec(spec: Any) -> Any:
    """*spec* with its config overrides in a canonical order."""
    return dataclasses.replace(spec, config_overrides=tuple(sorted(
        spec.config_overrides,
        key=lambda pair: json.dumps(pair, sort_keys=True,
                                    default=_non_json))))


def job_key(spec: Any, code: Optional[str] = None) -> str:
    """The store key for one scenario run.

    *spec* is a :class:`~repro.experiments.scenario.ScenarioSpec`; it
    already carries the seed, config overrides, fault plan and fault
    intensity, so the key covers the full (scenario, seed, overrides,
    faults, code version) identity the store is contracted to.
    """
    return digest_of({
        "spec": _canonical_spec(spec),
        "code": code if code is not None else code_version(),
    })


def recording_key(spec: Any, capacity: int,
                  code: Optional[str] = None) -> str:
    """The store key for one trace recording (RTRACE1 entry).

    Recordings key on the same (spec, code) identity as results plus
    the ring *capacity* (a wrapped ring records a different event
    window) and a kind marker so a recording can never collide with
    the result of the same run.
    """
    return digest_of({
        "kind": "rtrace",
        "spec": _canonical_spec(spec),
        "capacity": int(capacity),
        "code": code if code is not None else code_version(),
    })
