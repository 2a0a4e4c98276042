"""Timing distributions: the cost model of the simulated kernel.

Every duration in the simulation -- interrupt handler run time,
critical-section length, syscall entry overhead, context-switch cost --
is described by a :class:`Dist` and sampled through a
:class:`TimingModel`.  Kernel flavours (vanilla 2.4.21, RedHawk 1.4)
differ almost entirely in this table plus a handful of boolean feature
flags; see :mod:`repro.configs.calibration` for the calibrated values.

Distributions are specified as small immutable objects rather than
bare callables so they can be printed, compared and perturbed by
ablation benchmarks.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional, Sequence, Tuple

import numpy as np


class UnboundedDistributionError(ValueError):
    """A support upper bound was requested from an unbounded
    distribution (e.g. an uncapped :class:`Exponential`).

    The static bound analyzer (:mod:`repro.analysis.bounds`) treats
    this as a hard error when the duration feeds a critical section:
    a window whose length has no finite support cannot be certified.
    """


def bounded_int(rng: np.random.Generator, lo: int, hi: int) -> int:
    """A uniform integer in ``[lo, hi]``: exactly ``int(rng.integers(lo,
    hi + 1))``, at about half its cost.

    Bit-for-bit what ``Generator.integers`` does for one int64:

    * a zero span returns *lo* and draws nothing;
    * a span below ``0xFFFFFFFF`` runs Lemire's nearly divisionless
      method over the bit generator's ``next_uint32``, with numpy's
      rejection threshold (``buffered_bounded_lemire_uint32``);
    * any other span (or ``lo > hi``) calls ``rng.integers`` itself.

    ``next_uint32`` is the bit generator's own entry point, so it
    consumes PCG64's buffered half word (``has_uint32``/``uinteger`` in
    ``bit_generator.state``) exactly as ``rng.integers`` does: the two
    interleave on one stream, with every other draw, and leave the
    generator in the same state.

    Threads: numpy's ctypes entry points are ``CFUNCTYPE`` functions,
    which release the GIL on every call and take no bit-generator lock.
    That is safe because every simulation runs on one thread of its
    process (simserve simulates only in its pool workers); never draw
    from one generator on two threads through this helper.
    """
    span = hi - lo
    if 0 < span < 0xFFFFFFFF:
        bits = rng.bit_generator.ctypes
        next_uint32 = bits.next_uint32
        state = bits.state_address
        excl = span + 1
        m = next_uint32(state) * excl
        if m & 0xFFFFFFFF < excl:
            threshold = (0xFFFFFFFF - span) % excl
            while m & 0xFFFFFFFF < threshold:
                m = next_uint32(state) * excl
        return lo + (m >> 32)
    if span == 0:
        return lo
    return int(rng.integers(lo, hi + 1))


class Dist:
    """Base class: a distribution over non-negative integer nanoseconds."""

    def sample(self, rng: np.random.Generator) -> int:
        raise NotImplementedError

    def mean(self) -> float:
        """Approximate mean (used by sanity checks and reports)."""
        raise NotImplementedError

    def support_upper_ns(self) -> int:
        """The largest value :meth:`sample` can ever return.

        Raises :class:`UnboundedDistributionError` when the support
        has no finite upper end; the bound analyzer turns that into a
        certification failure rather than guessing a percentile.
        """
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class Const(Dist):
    """A fixed duration."""

    value: int

    def sample(self, rng: np.random.Generator) -> int:
        return self.value

    def mean(self) -> float:
        return float(self.value)

    def support_upper_ns(self) -> int:
        return self.value


@dataclass(frozen=True, slots=True)
class Uniform(Dist):
    """Uniform over [lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"uniform lo {self.lo} > hi {self.hi}")

    def sample(self, rng: np.random.Generator) -> int:
        return bounded_int(rng, self.lo, self.hi)

    def mean(self) -> float:
        return (self.lo + self.hi) / 2.0

    def support_upper_ns(self) -> int:
        return self.hi


@dataclass(frozen=True, slots=True)
class Exponential(Dist):
    """Exponential with the given mean, optionally truncated at *cap*."""

    mean_ns: int
    cap: Optional[int] = None

    def sample(self, rng: np.random.Generator) -> int:
        value = int(rng.exponential(self.mean_ns))
        if self.cap is not None:
            value = min(value, self.cap)
        return value

    def mean(self) -> float:
        return float(self.mean_ns)

    def support_upper_ns(self) -> int:
        if self.cap is None:
            raise UnboundedDistributionError(
                f"Exponential(mean_ns={self.mean_ns}) has no cap")
        return self.cap


@dataclass(frozen=True, slots=True)
class LogNormal(Dist):
    """Lognormal parameterised by its median, truncated at *cap*.

    Heavy-tailed durations (disk seeks, 2.4 filesystem critical
    sections) are lognormal-ish in practice: most instances short, a
    long multiplicative tail.
    """

    median_ns: int
    sigma: float
    cap: Optional[int] = None

    def sample(self, rng: np.random.Generator) -> int:
        value = int(rng.lognormal(math.log(self.median_ns), self.sigma))
        if self.cap is not None:
            value = min(value, self.cap)
        return value

    def mean(self) -> float:
        raw = self.median_ns * math.exp(self.sigma ** 2 / 2.0)
        if self.cap is not None:
            raw = min(raw, float(self.cap))
        return raw

    def support_upper_ns(self) -> int:
        if self.cap is None:
            raise UnboundedDistributionError(
                f"LogNormal(median_ns={self.median_ns}) has no cap")
        return self.cap


# cached_property needs __dict__, so Choice cannot be slotted.
@dataclass(frozen=True)
class Choice(Dist):  # lint: ok(no-slots-dataclass)
    """A weighted mixture of other distributions."""

    options: Tuple[Tuple[float, Dist], ...]

    def __post_init__(self) -> None:
        if not self.options:
            raise ValueError("Choice needs at least one option")
        for weight, _ in self.options:
            if not (math.isfinite(weight) and weight >= 0):
                raise ValueError(
                    f"Choice weight must be finite and >= 0, got {weight!r}")
        total = sum(w for w, _ in self.options)
        if total <= 0:
            raise ValueError("Choice weights must sum to a positive value")

    # A cached_property, not a dataclass field: store keys encode a
    # dataclass through dataclasses.fields(), so a field would change
    # every key built from a value that carries a Choice.
    @cached_property
    def _cdf(self) -> Tuple[float, ...]:
        """Normalised weight CDF, built once per (frozen) instance.

        The double normalisation (weights, then the cumsum) replicates
        ``np.random.Generator.choice`` bit-for-bit; ``sample`` below
        must keep drawing exactly the numbers ``rng.choice`` would, or
        every downstream RNG stream shifts and figure outputs change.
        A tuple of the same floats, because ``bisect`` on a tuple
        costs a fraction of ``ndarray.searchsorted`` on one scalar.
        """
        weights = np.array([w for w, _ in self.options], dtype=float)
        weights /= weights.sum()
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        return tuple(cdf.tolist())

    def sample(self, rng: np.random.Generator) -> int:
        # Stream-identical inline of rng.choice(len(options), p=weights):
        # one uniform draw searched against the cached CDF, which is
        # sorted (weights are >= 0), so bisect_right finds the index
        # ndarray.searchsorted(side="right") does.  rng.choice itself
        # revalidates and re-accumulates p on every call.
        idx = bisect_right(self._cdf, rng.random())
        return self.options[idx][1].sample(rng)

    def mean(self) -> float:
        total = sum(w for w, _ in self.options)
        return sum(w * d.mean() for w, d in self.options) / total

    def support_upper_ns(self) -> int:
        return max(d.support_upper_ns() for _, d in self.options)


@dataclass(frozen=True, slots=True)
class Scaled(Dist):
    """Another distribution scaled by a constant factor."""

    base: Dist
    factor: float

    def sample(self, rng: np.random.Generator) -> int:
        return int(self.base.sample(rng) * self.factor)

    def mean(self) -> float:
        return self.base.mean() * self.factor

    def support_upper_ns(self) -> int:
        return int(self.base.support_upper_ns() * self.factor)


@dataclass(slots=True)
class TimingModel:
    """Named table of :class:`Dist` objects.

    Unknown keys raise ``KeyError`` loudly: a kernel path asking for a
    cost that was never calibrated is a bug, not a default.
    """

    table: Dict[str, Dist] = field(default_factory=dict)

    def sample(self, key: str, rng: np.random.Generator) -> int:
        return self.table[key].sample(rng)

    def dist(self, key: str) -> Dist:
        return self.table[key]

    def support_upper_ns(self, key: str) -> int:
        """Worst-case duration of *key* (static-analysis entry point)."""
        return self.table[key].support_upper_ns()

    def has(self, key: str) -> bool:
        return key in self.table

    def override(self, **entries: Dist) -> "TimingModel":
        """Copy with some entries replaced (ablation support)."""
        merged = dict(self.table)
        merged.update(entries)
        return TimingModel(merged)

    def keys(self) -> Sequence[str]:
        return sorted(self.table)
