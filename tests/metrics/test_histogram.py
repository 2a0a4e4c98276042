"""Unit and property tests for the histograms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics.histogram import BinCount, Histogram, LogHistogram


# -- per-value reference rules (the loops add_many replaced) -------------
def loop_linear_counts(h, values):
    counts = [0] * (h.nbins + 2)
    for v in values:
        if v < h.lo:
            counts[0] += 1
        elif v >= h.hi:
            counts[-1] += 1
        else:
            idx = int((v - h.lo) / (h.hi - h.lo) * h.nbins)
            counts[1 + idx] += 1
    return counts


def loop_log_counts(h, values):
    counts = [0] * (h.nbins + 2)
    for v in values:
        if v < h.lo:
            counts[0] += 1
        elif v >= h.hi:
            counts[-1] += 1
        else:
            idx = int(np.searchsorted(h.edges, v, side="right")) - 1
            idx = min(max(idx, 0), h.nbins - 1)
            counts[1 + idx] += 1
    return counts


def loop_linear_bins(h):
    width = (h.hi - h.lo) / h.nbins
    return [BinCount(h.lo + i * width, h.lo + (i + 1) * width,
                     int(h.counts[1 + i]))
            for i in range(h.nbins)]


def loop_log_bins(h):
    return [BinCount(float(h.edges[i]), float(h.edges[i + 1]),
                     int(h.counts[1 + i]))
            for i in range(h.nbins)]


def typed(bins):
    """Bins as reprs, so an int/float or last-bit difference shows."""
    return [(repr(b.lo), repr(b.hi), repr(b.count)) for b in bins]


#: Integer ns samples the exporters feed stay below 2**53 (exact in
#: float64); floats include infinities and subnormals.
ANY_SAMPLE = st.one_of(st.integers(-2**53 + 1, 2**53 - 1),
                       st.floats(allow_nan=False))


def samples_around(lo, hi, edges):
    """Hypothesis lists mixing arbitrary samples with the boundaries."""
    special = [lo, hi, math.nextafter(hi, -math.inf),
               math.nextafter(lo, -math.inf),
               math.nextafter(lo, math.inf)] + list(edges)
    return st.lists(st.one_of(ANY_SAMPLE,
                              st.floats(float(lo), float(hi)),
                              st.sampled_from(special)),
                    max_size=200)


class TestLinearHistogram:
    def test_basic_binning(self):
        h = Histogram(0, 10, 10)
        for v in (0.5, 1.5, 1.7, 9.9):
            h.add(v)
        bins = h.bins()
        assert bins[0].count == 1
        assert bins[1].count == 2
        assert bins[9].count == 1

    def test_under_overflow(self):
        h = Histogram(0, 10, 5)
        h.add(-1)
        h.add(10)
        h.add(100)
        assert h.underflow == 1
        assert h.overflow == 2

    def test_total(self):
        h = Histogram(0, 10, 5)
        h.add_many([1, 2, 3, -5, 50])
        assert h.total() == 5

    def test_bad_params(self):
        with pytest.raises(ValueError):
            Histogram(10, 0, 5)
        with pytest.raises(ValueError):
            Histogram(0, 10, 0)

    @given(values=st.lists(st.floats(-100, 100, allow_nan=False),
                           max_size=200))
    def test_counts_conserved(self, values):
        h = Histogram(0, 50, 7)
        h.add_many(values)
        assert h.total() == len(values)


class TestLinearMatchesLoop:
    @settings(max_examples=500, deadline=None)
    @given(lo=st.one_of(st.integers(-10**6, 10**6),
                        st.floats(-1e6, 1e6)),
           span=st.one_of(st.integers(1, 10**7), st.floats(1e-3, 1e7)),
           nbins=st.integers(1, 64), data=st.data())
    def test_counts_and_bins_match_loop(self, lo, span, nbins, data):
        h = Histogram(lo, lo + span, nbins)
        width = (h.hi - lo) / nbins
        edges = [lo + i * width for i in range(nbins + 1)]
        values = data.draw(samples_around(lo, h.hi, edges))
        h.add_many(values)
        assert h.counts.tolist() == loop_linear_counts(h, values)
        assert typed(h.bins()) == typed(loop_linear_bins(h))

    def test_empty_input(self):
        h = Histogram(0.0, 1.0, 4)
        h.add_many([])
        assert h.counts.tolist() == [0] * 6
        assert typed(h.bins()) == typed(loop_linear_bins(h))

    def test_index_rounding_to_nbins_is_overflow(self):
        # (v - lo) rounds up to (hi - lo) for the float just below hi,
        # so the scalar rule's index is nbins: that sample overflows.
        h = Histogram(-1.0, 1.0, 4)
        v = math.nextafter(1.0, -math.inf)
        assert int((v - h.lo) / (h.hi - h.lo) * h.nbins) == h.nbins
        h.add_many([v])
        assert h.overflow == 1 and h.total() == 1
        assert h.counts.tolist() == loop_linear_counts(h, [v])

    def test_nan_rejected_without_counting(self):
        h = Histogram(0.0, 10.0, 5)
        with pytest.raises(ValueError, match="NaN"):
            h.add_many([1.0, math.nan])
        assert h.total() == 0


class TestLogMatchesLoop:
    @settings(max_examples=500, deadline=None)
    @given(lo=st.floats(1e-3, 1e9), decades=st.floats(0.01, 8.0),
           per_decade=st.integers(1, 20), data=st.data())
    def test_counts_and_bins_match_loop(self, lo, decades, per_decade,
                                        data):
        h = LogHistogram(lo, lo * 10 ** decades,
                         bins_per_decade=per_decade)
        values = data.draw(samples_around(lo, h.hi, h.edges.tolist()))
        h.add_many(values)
        assert h.counts.tolist() == loop_log_counts(h, values)
        assert typed(h.bins()) == typed(loop_log_bins(h))

    def test_empty_input(self):
        h = LogHistogram(1_000.0, 100_000_000.0)
        h.add_many(np.array([], dtype=np.int64))
        assert h.total() == 0
        assert typed(h.bins()) == typed(loop_log_bins(h))

    def test_ns_int_array_matches_loop(self):
        # The exporter's own input: an int64 sample array clamped
        # above lo, binned without a Python-level loop.
        samples = np.array([0, 999, 1_000, 1_001, 15_000, 99_999_999,
                            100_000_000, 2**52], dtype=np.int64)
        clamped = np.maximum(samples, 1_001.0)
        h = LogHistogram(1_000.0, 100_000_000.0)
        h.add_many(clamped)
        assert h.counts.tolist() == loop_log_counts(
            h, [max(int(s), 1_001.0) for s in samples])


class TestLogHistogram:
    def test_bins_span_range(self):
        h = LogHistogram(1.0, 1000.0, bins_per_decade=10)
        assert h.nbins == 30
        assert h.edges[0] == pytest.approx(1.0)
        assert h.edges[-1] == pytest.approx(1000.0)

    def test_values_land_in_bracketing_bin(self):
        h = LogHistogram(1.0, 1000.0)
        h.add(50.0)
        occupied = [b for b in h.bins() if b.count]
        assert len(occupied) == 1
        assert occupied[0].lo <= 50.0 < occupied[0].hi

    def test_under_overflow(self):
        h = LogHistogram(10.0, 100.0)
        h.add(5.0)
        h.add(100.0)
        assert h.counts[0] == 1
        assert h.counts[-1] == 1

    def test_requires_positive_range(self):
        with pytest.raises(ValueError):
            LogHistogram(0.0, 10.0)
        with pytest.raises(ValueError):
            LogHistogram(10.0, 10.0)

    def test_render_ascii(self):
        h = LogHistogram(1_000.0, 100_000_000.0)  # 1 us .. 100 ms in ns
        h.add_many([15_000.0] * 100 + [50_000_000.0])
        art = h.render_ascii(unit="ms", scale=1e6)
        lines = art.splitlines()
        assert len(lines) == 2
        assert "100" in art

    def test_render_empty(self):
        h = LogHistogram(1.0, 10.0)
        assert h.render_ascii() == "(empty histogram)"

    @given(values=st.lists(st.floats(0.1, 10**6, allow_nan=False),
                           max_size=300))
    def test_counts_conserved(self, values):
        h = LogHistogram(1.0, 10**5, bins_per_decade=5)
        h.add_many(values)
        assert h.total() == len(values)

    @given(value=st.floats(1.0, 9.99e4, allow_nan=False))
    def test_single_value_bracketing(self, value):
        h = LogHistogram(1.0, 1e5)
        h.add(value)
        occupied = [b for b in h.bins() if b.count]
        assert len(occupied) == 1
        assert occupied[0].lo <= value
        assert value < occupied[0].hi or value == pytest.approx(occupied[0].hi)
