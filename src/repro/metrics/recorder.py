"""Sample recorders for the two measurement styles the paper uses.

:class:`LatencyRecorder` implements the realfeel methodology: the test
reads the TSC after every blocking wait; the time beyond the expected
period between consecutive returns is latency.  A response that sleeps
through N periods therefore books ``N*period + delay`` of latency into
one sample, exactly as realfeel's histogram does.

:class:`JitterRecorder` implements the determinism-test methodology:
each iteration of a fixed CPU-bound loop is timed; the excess over the
best (ideal) iteration is jitter.

Ingestion is batched: samples land in a small Python staging list (one
``list.append`` on the hot path, nothing else) and are flushed into a
preallocated ``int64`` array in one vectorised copy the next time any
statistic or array view is requested.  Summary statistics (min, max,
mean) are computed in a single pass and cached, keyed by the sample
count -- recorders are append-only, so a count match proves the cache
is current.  The old implementation rebuilt a fresh ndarray from the
sample list on *every* ``min()``/``max()``/``percentile()`` call, which
made exporting a figure O(samples * statistics).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

#: Smallest backing-array allocation; tiny recorders (unit tests,
#: diagnostics) shouldn't pay for regrowth churn either.
_MIN_CAPACITY = 256


class _Int64Buffer:
    """Append-only int64 storage: staging list + preallocated array."""

    __slots__ = ("_buf", "_n", "_pending")

    def __init__(self, capacity: Optional[int] = None) -> None:
        self._buf = np.empty(max(capacity or 0, _MIN_CAPACITY),
                             dtype=np.int64)
        self._n = 0
        self._pending: List[int] = []

    def __len__(self) -> int:
        return self._n + len(self._pending)

    def append(self, value: int) -> None:
        self._pending.append(value)

    def view(self) -> np.ndarray:
        """All samples as one int64 array view (flushes staging)."""
        if self._pending:
            self._flush()
        return self._buf[:self._n]

    def tolist(self) -> List[int]:
        """All samples as a list of Python ints (JSON-safe)."""
        return self.view().tolist()

    def extend_array(self, arr: np.ndarray) -> None:
        """Bulk-append another buffer's view (merge support)."""
        if self._pending:
            self._flush()
        n = self._n
        need = n + arr.size
        if need > self._buf.size:
            self._grow(need)
        self._buf[n:need] = arr
        self._n = need

    def _flush(self) -> None:
        pending = np.asarray(self._pending, dtype=np.int64)
        self._pending.clear()
        n = self._n
        need = n + pending.size
        if need > self._buf.size:
            self._grow(need)
        self._buf[n:need] = pending
        self._n = need

    def _grow(self, need: int) -> None:
        grown = np.empty(max(need, 2 * self._buf.size), dtype=np.int64)
        grown[:self._n] = self._buf[:self._n]
        self._buf = grown


class LatencyRecorder:
    """Interrupt-response samples (realfeel / RCIM style).

    ``capacity`` is an optional preallocation hint -- measurement
    programs that know their sample budget pass it so the backing
    array never regrows mid-run.
    """

    def __init__(self, name: str, period_ns: Optional[int] = None,
                 capacity: Optional[int] = None) -> None:
        self.name = name
        self.period_ns = period_ns
        self._data = _Int64Buffer(capacity)
        self._last_return: Optional[int] = None
        self._summary: Optional[Tuple[int, int, int, float]] = None

    # -- realfeel style: consecutive return timestamps ------------------
    def record_return(self, tsc_now: int) -> Optional[int]:
        """Feed one post-read TSC value; returns the computed latency.

        The first call only arms the recorder (returns None).
        """
        if self.period_ns is None:
            raise ValueError(f"{self.name}: record_return needs a period")
        if self._last_return is None:
            self._last_return = tsc_now
            return None
        delta = tsc_now - self._last_return
        self._last_return = tsc_now
        latency = delta - self.period_ns
        if latency < 0:
            latency = 0
        self._data.append(latency)
        return latency

    # -- RCIM style: direct count-register read --------------------------
    def record_latency(self, latency_ns: int) -> None:
        """Feed a directly measured latency (count-register method)."""
        self._data.append(latency_ns if latency_ns > 0 else 0)

    # -- statistics ------------------------------------------------------
    @property
    def samples(self) -> List[int]:
        """The samples as a list of Python ints (JSON-safe, read-only)."""
        return self._data.tolist()

    def as_array(self) -> np.ndarray:
        return self._data.view()

    @property
    def count(self) -> int:
        return len(self._data)

    def _stats(self) -> Tuple[int, int, int, float]:
        """(count, min, max, mean), one pass, cached by count."""
        n = len(self._data)
        cached = self._summary
        if cached is not None and cached[0] == n:
            return cached
        if n:
            arr = self._data.view()
            stats = (n, int(arr.min()), int(arr.max()), float(arr.mean()))
        else:
            stats = (0, 0, 0, 0.0)
        self._summary = stats
        return stats

    def min(self) -> int:
        return self._stats()[1]

    def max(self) -> int:
        return self._stats()[2]

    def mean(self) -> float:
        return self._stats()[3]

    def percentile(self, q: float) -> float:
        if not len(self._data):
            return 0.0
        return float(np.percentile(self._data.view(), q))

    def fraction_below(self, threshold_ns: int) -> float:
        """Fraction of samples strictly below *threshold_ns*."""
        if not len(self._data):
            return 0.0
        return float((self._data.view() < threshold_ns).mean())

    def count_in(self, lo_ns: int, hi_ns: int) -> int:
        """Samples with lo <= latency < hi."""
        arr = self._data.view()
        return int(((arr >= lo_ns) & (arr < hi_ns)).sum())

    # -- merging (campaign support) --------------------------------------
    def merge_from(self, other: "LatencyRecorder") -> None:
        """Append *other*'s samples (order-preserving, deterministic)."""
        self._data.extend_array(other._data.view())


class JitterRecorder:
    """Execution-determinism samples (section 5 style)."""

    def __init__(self, name: str, ideal_ns: Optional[int] = None,
                 capacity: Optional[int] = None) -> None:
        self.name = name
        self._data = _Int64Buffer(capacity)
        self._forced_ideal = ideal_ns
        self._summary: Optional[Tuple[int, int, int, float]] = None

    def record_duration(self, duration_ns: int) -> None:
        """Feed one timed iteration of the computational loop."""
        self._data.append(duration_ns)

    @property
    def durations(self) -> List[int]:
        """The durations as a list of Python ints (JSON-safe, read-only)."""
        return self._data.tolist()

    def as_array(self) -> np.ndarray:
        return self._data.view()

    @property
    def count(self) -> int:
        return len(self._data)

    def _stats(self) -> Tuple[int, int, int, float]:
        """(count, min, max, mean), one pass, cached by count."""
        n = len(self._data)
        cached = self._summary
        if cached is not None and cached[0] == n:
            return cached
        if n:
            arr = self._data.view()
            stats = (n, int(arr.min()), int(arr.max()), float(arr.mean()))
        else:
            stats = (0, 0, 0, 0.0)
        self._summary = stats
        return stats

    def ideal(self) -> int:
        """The best-case duration.

        The paper determines the ideal on an unloaded system; when a
        forced value is not supplied we use the minimum observation,
        which the unloaded run is designed to produce.
        """
        if self._forced_ideal is not None:
            return self._forced_ideal
        return self._stats()[1]

    def set_ideal(self, ideal_ns: int) -> None:
        self._forced_ideal = ideal_ns

    def max(self) -> int:
        return self._stats()[2]

    def jitter_ns(self) -> int:
        """Worst-case excess over ideal."""
        return self.max() - self.ideal() if len(self._data) else 0

    def jitter_fraction(self) -> float:
        """Jitter as a fraction of the ideal (the paper's percentage)."""
        ideal = self.ideal()
        if ideal <= 0:
            return 0.0
        return self.jitter_ns() / ideal

    def variances_ms(self) -> np.ndarray:
        """Per-iteration excess in ms (the figures' x axis)."""
        return (self._data.view() - self.ideal()) / 1e6

    # -- merging (campaign support) --------------------------------------
    def merge_from(self, other: "JitterRecorder") -> None:
        """Append *other*'s iterations; the ideal becomes the best one."""
        self._data.extend_array(other._data.view())
        if other._forced_ideal is not None:
            if self._forced_ideal is None:
                self._forced_ideal = other._forced_ideal
            else:
                self._forced_ideal = min(self._forced_ideal,
                                         other._forced_ideal)
