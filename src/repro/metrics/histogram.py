"""Histograms matching the paper's figure style.

The interrupt-response figures are log-y histograms of sample counts
per latency bin; the summaries under them are cumulative bucket
tables.  :class:`Histogram` bins linearly (the determinism figures);
:class:`LogHistogram` uses logarithmic bin edges suited to latency
distributions spanning 10 us .. 100 ms.

Binning is one vectorised pass: ``add_many`` classifies a whole
sample array at once, applying the scalar rule to every element --
``< lo`` is underflow, ``>= hi`` is overflow, anything else lands in
the bin the subclass's ``_index`` picks -- and counts the result with
one ``np.bincount``.  ``add`` is ``add_many`` of one value, so there is
a single binning rule.  Samples are converted to float64, which is
exact for the integer nanosecond latencies the exporters feed (all
below 2**53).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np


@dataclass
class BinCount:
    lo: float
    hi: float
    count: int


class _Binned:
    """Shared counting over ``nbins`` bins plus under/overflow slots.

    Subclasses set ``lo``, ``hi``, ``nbins``, the ``nbins + 1`` bin
    ``edges`` and ``counts`` (``nbins + 2`` slots: underflow, the bins,
    overflow), and map in-range values to bin indices in
    :meth:`_index`.
    """

    lo: float
    hi: float
    nbins: int
    edges: np.ndarray
    counts: np.ndarray

    def _index(self, inside: np.ndarray) -> np.ndarray:
        """Bin index (``0 .. nbins``) of each value in ``[lo, hi)``.

        Index ``nbins`` counts as overflow: float rounding can put a
        value just below ``hi`` there.
        """
        raise NotImplementedError

    def add(self, value: float) -> None:
        self.add_many((value,))

    def add_many(self, values: Sequence[float]) -> None:
        v = np.asarray(values, dtype=np.float64)
        if np.isnan(v).any():
            raise ValueError("cannot bin a NaN sample")
        under = v < self.lo
        over = v >= self.hi
        idx = self._index(v[~(under | over)])
        self.counts[0] += np.count_nonzero(under)
        self.counts[-1] += np.count_nonzero(over)
        self.counts[1:] += np.bincount(idx, minlength=self.nbins + 1)

    def bins(self) -> List[BinCount]:
        edges = self.edges.tolist()
        counts = self.counts[1:-1].tolist()
        return [BinCount(lo, hi, count)
                for lo, hi, count in zip(edges, edges[1:], counts)]

    def total(self) -> int:
        return int(self.counts.sum())


class Histogram(_Binned):
    """Fixed-width linear histogram."""

    def __init__(self, lo: float, hi: float, nbins: int) -> None:
        if hi <= lo or nbins <= 0:
            raise ValueError("bad histogram parameters")
        self.lo = lo
        self.hi = hi
        self.nbins = nbins
        width = (hi - lo) / nbins
        self.edges = lo + np.arange(nbins + 1) * width
        self.counts = np.zeros(nbins + 2, dtype=np.int64)  # +under/overflow

    def _index(self, inside: np.ndarray) -> np.ndarray:
        return ((inside - self.lo) / (self.hi - self.lo)
                * self.nbins).astype(np.int64)

    @property
    def underflow(self) -> int:
        return int(self.counts[0])

    @property
    def overflow(self) -> int:
        return int(self.counts[-1])


class LogHistogram(_Binned):
    """Histogram with logarithmically spaced bin edges."""

    def __init__(self, lo: float, hi: float, bins_per_decade: int = 10) -> None:
        if lo <= 0 or hi <= lo:
            raise ValueError("log histogram needs 0 < lo < hi")
        self.lo = lo
        self.hi = hi
        decades = math.log10(hi / lo)
        self.nbins = max(1, int(math.ceil(decades * bins_per_decade)))
        self.edges = np.logspace(math.log10(lo), math.log10(hi),
                                 self.nbins + 1)
        self.counts = np.zeros(self.nbins + 2, dtype=np.int64)

    def _index(self, inside: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.edges, inside, side="right") - 1
        return np.clip(idx, 0, self.nbins - 1)

    def render_ascii(self, width: int = 60, unit: str = "ms",
                     scale: float = 1e6) -> str:
        """Log-count bar chart, one line per occupied bin.

        *scale* divides raw (ns) bin edges into *unit*.
        """
        lines = []
        occupied = [(b.lo / scale, b.hi / scale, b.count)
                    for b in self.bins() if b.count > 0]
        if not occupied:
            return "(empty histogram)"
        max_log = max(math.log10(c + 1) for _lo, _hi, c in occupied)
        for lo, hi, count in occupied:
            bar = "#" * max(1, int(width * math.log10(count + 1) / max_log))
            lines.append(f"{lo:>10.3f}-{hi:<10.3f}{unit} |{bar} {count}")
        return "\n".join(lines)
