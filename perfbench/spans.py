"""Spans and counters recorded around the calls into ``repro``'s layers.

Traced runs only.  :func:`instrument` wraps public functions of the
program -- scenario bench construction, store keys, gets and puts, the
export functions and the HTTP client -- and records one span per call:
its name, start, end, the service job it belongs to and, for store puts,
the bytes written.  Nothing under ``src/`` changes; the wrappers replace
module and class attributes for the life of the run and
:meth:`Instrumentation.undo` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

#: Spans kept individually for the ledger; the rest only aggregate.
MAX_KEPT_SPANS = 400


class Spans:
    """In-memory spans plus per-name totals, safe across threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.origin = time.perf_counter()
        self.totals: Dict[str, Dict[str, float]] = {}
        self.kept: List[Dict[str, Any]] = []
        #: Simulators of every bench built through the wrapper.
        self.sims: List[Any] = []

    def reset(self) -> None:
        with self._lock:
            self.origin = time.perf_counter()
            self.totals.clear()
            self.kept.clear()
            self.sims.clear()

    # -- context ---------------------------------------------------------
    @property
    def job(self) -> Optional[str]:
        return getattr(self._local, "job", None)

    @job.setter
    def job(self, job_id: Optional[str]) -> None:
        self._local.job = job_id

    def _depth(self, name: str, delta: int) -> int:
        depths = self._local.__dict__.setdefault("depths", {})
        depths[name] = depths.get(name, 0) + delta
        return depths[name]

    # -- recording ---------------------------------------------------------
    def record(self, name: str, start: float, end: float,
               nbytes: int = 0, hit: bool = False) -> None:
        with self._lock:
            total = self.totals.setdefault(
                name, {"count": 0, "seconds": 0.0, "bytes": 0, "hits": 0})
            total["count"] += 1
            total["seconds"] += end - start
            total["bytes"] += nbytes
            total["hits"] += int(hit)
            if len(self.kept) < MAX_KEPT_SPANS:
                span = {"name": name,
                        "start_s": round(start - self.origin, 6),
                        "end_s": round(end - self.origin, 6)}
                if self.job is not None:
                    span["job"] = self.job
                self.kept.append(span)

    def count(self, name: str) -> int:
        return int(self.totals.get(name, {}).get("count", 0))

    def seconds(self, name: str) -> float:
        return float(self.totals.get(name, {}).get("seconds", 0.0))

    def field(self, name: str, key: str) -> float:
        return self.totals.get(name, {}).get(key, 0)

    def timed(self, name: str, fn: Callable, outermost: bool = False,
              nbytes: Optional[Callable[[Any], int]] = None,
              hit: Optional[Callable[[Any], bool]] = None) -> Callable:
        """*fn* wrapped to record a span per call.

        With *outermost*, calls made from inside another span of the
        same name are not recorded again (export functions nest).
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost and self._depth(name, +1) > 1:
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._depth(name, -1)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if outermost:
                    self._depth(name, -1)
            self.record(name, start, end,
                        nbytes=nbytes(result) if nbytes else 0,
                        hit=hit(result) if hit else False)
            return result

        return wrapper


def _file_size(path: Any) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Instrumentation:
    """Installed wrappers; :meth:`undo` restores the originals."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def everywhere(self, original: Callable, wrapper: Callable) -> None:
        """Rebind *original* in every loaded ``repro`` module."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, wrapper)

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


def instrument(spans: Spans) -> Instrumentation:
    """Wrap the layer entry points the ledger reports on."""
    export = importlib.import_module("repro.experiments.export")
    scenario_mod = importlib.import_module("repro.experiments.scenario")
    margin = importlib.import_module("repro.faults.margin")
    twindiff = importlib.import_module("repro.faults.twindiff")
    client = importlib.import_module("repro.service.client")
    keys = importlib.import_module("repro.store.keys")
    from repro.store.store import ResultStore

    inst = Instrumentation()

    build = scenario_mod.build_scenario_bench

    @functools.wraps(build)
    def build_and_keep(*args, **kwargs):
        start = time.perf_counter()
        bench = build(*args, **kwargs)
        spans.record("scenario.build", start, time.perf_counter())
        with spans._lock:
            spans.sims.append(bench.sim)
        return bench

    inst.everywhere(build, build_and_keep)

    for fn in (keys.job_key, keys.recording_key):
        inst.everywhere(fn, spans.timed("store.key", fn))

    def found(result: Any) -> bool:
        return result is not None

    for attr in ("get", "get_recording"):
        inst.set(ResultStore, attr, spans.timed(
            "store.get", getattr(ResultStore, attr), hit=found))
    for attr in ("put", "put_stalled", "put_recording"):
        inst.set(ResultStore, attr, spans.timed(
            "store.put", getattr(ResultStore, attr), nbytes=_file_size))

    for fn in (export.scenario_to_dict, export.campaign_to_dict,
               export.to_json):
        inst.everywhere(fn, spans.timed("export", fn, outermost=True))
    for cls in (margin.MarginResult, twindiff.TwinDiffResult):
        inst.set(cls, "to_dict",
                 spans.timed("export", cls.to_dict, outermost=True))

    cls = client.ServiceClient
    inst.set(cls, "submit", spans.timed("http.submit", cls.submit))
    inst.set(cls, "artifact", spans.timed("http.artifact", cls.artifact))
    inst.set(cls, "_request", spans.timed("http.request", cls._request))
    inst.set(cls, "stream", spans.timed("http.request", cls.stream))
    return inst
