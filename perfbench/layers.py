"""The module -> layer map, and cProfile statistics grouped by it.

The map is data: each layer names the modules of ``src/repro`` it owns,
as paths relative to the package root.  ``dir/*`` owns the files directly
in ``dir``; ``dir/**`` owns everything below it.  Every module must
belong to exactly one layer (``test_perfbench.py`` checks this); code
outside the package -- numpy, the standard library, builtins and this
benchmark's own harness -- is the ``external`` layer, except builtins
that block waiting (``idle``).
"""

from __future__ import annotations

import cProfile
import math
import os
import pstats
import threading
from typing import Dict, Iterable, List, Optional, Tuple

LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim.engine": ("sim/__init__.py", "sim/engine.py", "sim/backends/*",
                   "sim/wheel.py", "sim/events.py", "sim/trace.py",
                   "sim/simtime.py", "sim/errors.py"),
    "sim.rng": ("sim/rng.py",),
    "kernel.kernel": ("kernel/__init__.py", "kernel/kernel.py",
                      "kernel/ops.py", "kernel/task.py"),
    "kernel.syscalls": ("kernel/syscalls.py",),
    "kernel.sched": ("kernel/sched/*",),
    "kernel.timing": ("kernel/timing.py", "kernel/timekeeping.py"),
    "kernel.irqflow": ("kernel/irqflow/*",),
    "kernel.drivers": ("kernel/drivers/*",),
    "kernel.sync": ("kernel/sync/*",),
    "kernel.other": ("kernel/mm.py", "kernel/procfs.py", "kernel/config.py",
                     "core/*", "configs/*"),
    "hw.cpu": ("hw/cpu.py", "hw/core.py"),
    "hw.devices": ("hw/devices/*",),
    "hw.machine": ("hw/__init__.py", "hw/machine.py", "hw/apic.py",
                   "hw/memory.py", "hw/tsc.py"),
    "workloads": ("workloads/**", "fbs/*"),
    "metrics": ("metrics/*",),
    "observe": ("observe/**",),
    "analysis": ("analysis/**",),
    "faults": ("faults/*",),
    "experiments": ("__init__.py", "experiments/*"),
    "store": ("store/*",),
    "service": ("service/*",),
}
EXTERNAL = "external"
#: Builtins that block on another thread, process or socket.  cProfile
#: counts their wall time as self time; it is waiting, not work, so it
#: gets a layer of its own instead of swelling ``external``.
IDLE = "idle"
IDLE_BUILTINS = ("select.epoll", "select.poll", "select.select",
                 "of '_thread.lock' objects", "of '_thread.RLock' objects",
                 "time.sleep", "posix.waitpid", "'recv_into' of",
                 "'recv' of", "'accept' of", "'readline' of '_io.TextIO",
                 "'readline' of '_io.BufferedReader'",
                 "'read1' of '_io.BufferedReader'",
                 "'get' of '_queue.SimpleQueue'")
LAYER_NAMES: Tuple[str, ...] = tuple(LAYERS) + (EXTERNAL, IDLE)


def _owns(pattern: str, rel: str) -> bool:
    if pattern.endswith("/**"):
        return rel.startswith(pattern[:-2])
    if pattern.endswith("/*"):
        return os.path.dirname(rel) == pattern[:-2]
    return rel == pattern


def layers_of(rel: str) -> List[str]:
    """Every layer owning the package-relative module path *rel*."""
    return [layer for layer, patterns in LAYERS.items()
            if any(_owns(p, rel) for p in patterns)]


class LayerMap:
    """Resolve profiler file names (absolute paths) to layers."""

    def __init__(self, package_dir: str) -> None:
        self.package_dir = os.path.realpath(package_dir) + os.sep
        self._cache: Dict[str, str] = {}

    def layer_of_file(self, filename: str) -> str:
        layer = self._cache.get(filename)
        if layer is None:
            layer = EXTERNAL
            path = os.path.realpath(filename) if filename[:1] != "~" else ""
            if path.startswith(self.package_dir):
                rel = path[len(self.package_dir):].replace(os.sep, "/")
                owners = layers_of(rel)
                if len(owners) != 1:
                    raise ValueError(f"module {rel} maps to layers {owners}")
                layer = owners[0]
            self._cache[filename] = layer
        return layer

    def group(self, stats: Dict) -> Dict[str, Dict[str, float]]:
        """Self seconds and call counts per layer of raw pstats data."""
        self_s = {name: [] for name in LAYER_NAMES}
        calls = dict.fromkeys(LAYER_NAMES, 0)
        for (filename, _line, func), (_cc, nc, tt, _ct, _callers) \
                in stats.items():
            layer = self.layer_of_file(filename)
            if filename == "~" and any(name in func
                                       for name in IDLE_BUILTINS):
                layer = IDLE
            self_s[layer].append(tt)
            calls[layer] += nc
        return {name: {"self_s": math.fsum(self_s[name]),
                       "calls": calls[name]} for name in LAYER_NAMES}


def profile_total(stats: Dict) -> float:
    """The profiled total: self time summed over every function."""
    return math.fsum(entry[2] for entry in stats.values())


def merge_stats(parts: Iterable[Dict]) -> Dict:
    """Merge raw pstats dictionaries (one per thread or process)."""
    merged: Dict = {}
    for part in parts:
        for key, (cc, nc, tt, ct, callers) in part.items():
            if key not in merged:
                merged[key] = (cc, nc, tt, ct, dict(callers))
                continue
            occ, onc, ott, oct_, ocallers = merged[key]
            for caller, value in callers.items():
                old = ocallers.get(caller)
                ocallers[caller] = (value if old is None else
                                    tuple(a + b for a, b in zip(old, value)))
            merged[key] = (occ + cc, onc + nc, ott + tt, oct_ + ct, ocallers)
    return merged


def load_stats(path: str) -> Dict:
    """Raw statistics from a ``.pstats`` file another process wrote."""
    return dict(pstats.Stats(path).stats)


def span_cumulative(stats: Dict, funcs: Iterable[Tuple[str, str]]
                    ) -> Tuple[float, int]:
    """Cumulative seconds and calls entering a group of functions.

    *funcs* names ``(path suffix, function name)`` pairs.  Time is taken
    from each caller outside the group, so a group member called by
    another member is not counted twice.
    """
    wanted = tuple(funcs)

    def member(key: Tuple[str, int, str]) -> bool:
        filename, _line, func = key
        return any(func == name and filename.replace(os.sep, "/")
                   .endswith(suffix) for suffix, name in wanted)

    seconds: List[float] = []
    calls = 0
    for key, (_cc, _nc, _tt, _ct, callers) in stats.items():
        if not member(key):
            continue
        for caller, (_ccc, cnc, _ctt, cct) in callers.items():
            if not member(caller):
                seconds.append(cct)
                calls += cnc
    return math.fsum(seconds), calls


class ThreadProfilers:
    """cProfile in the calling thread and in every thread started later.

    ``cProfile`` profiles only the thread that enables it; the service
    folds artifacts in executor threads and the benchmark drives its
    client connections from threads, so each new thread gets its own
    profiler, merged when the run ends.
    """

    def __init__(self) -> None:
        self._profilers: List[cProfile.Profile] = []
        self._lock = threading.Lock()
        self._main: Optional[cProfile.Profile] = None

    def _start_in_thread(self, *_args) -> None:
        profiler = cProfile.Profile()
        with self._lock:
            self._profilers.append(profiler)
        profiler.enable()

    def start(self) -> None:
        self._main = cProfile.Profile()
        threading.setprofile(self._start_in_thread)
        self._main.enable()

    def stop(self) -> Dict:
        """Stop profiling; the merged raw statistics of every thread."""
        threading.setprofile(None)
        if self._main is not None:
            self._main.disable()
        with self._lock:
            profilers = [self._main] + self._profilers
        parts = []
        for profiler in profilers:
            if profiler is None:
                continue
            profiler.create_stats()
            parts.append(profiler.stats)
        return merge_stats(parts)
