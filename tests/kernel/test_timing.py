"""Unit and property tests for the timing-distribution mini-language."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.configs.calibration import all_keys, base_timing_table
from repro.kernel.timing import (
    Choice,
    Const,
    Exponential,
    LogNormal,
    Scaled,
    TimingModel,
    Uniform,
    bounded_int,
)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestDistributions:
    def test_const(self, rng):
        d = Const(500)
        assert d.sample(rng) == 500
        assert d.mean() == 500.0

    def test_const_dists_draw_nothing(self):
        stream = np.random.default_rng(41)
        mirror = np.random.default_rng(41)
        c = Const(123)
        for _ in range(10):
            assert c.sample(stream) == 123
        assert stream.integers(0, 10 ** 9) == mirror.integers(0, 10 ** 9)

    def test_uniform_bounds(self, rng):
        d = Uniform(10, 20)
        samples = [d.sample(rng) for _ in range(200)]
        assert all(10 <= s <= 20 for s in samples)
        assert d.mean() == 15.0

    def test_uniform_bad_bounds(self):
        with pytest.raises(ValueError):
            Uniform(20, 10)

    def test_exponential_cap(self, rng):
        d = Exponential(mean_ns=1000, cap=1500)
        samples = [d.sample(rng) for _ in range(500)]
        assert max(samples) <= 1500
        assert min(samples) >= 0

    def test_lognormal_median_and_cap(self, rng):
        d = LogNormal(median_ns=1000, sigma=1.0, cap=100_000)
        samples = np.array([d.sample(rng) for _ in range(4000)])
        assert samples.max() <= 100_000
        assert 800 < np.median(samples) < 1250

    def test_lognormal_mean_formula(self):
        d = LogNormal(median_ns=1000, sigma=0.5)
        assert d.mean() == pytest.approx(1000 * np.exp(0.125), rel=1e-6)

    def test_choice_mixture(self, rng):
        d = Choice(((0.5, Const(1)), (0.5, Const(100))))
        samples = [d.sample(rng) for _ in range(1000)]
        assert set(samples) == {1, 100}
        assert d.mean() == pytest.approx(50.5)

    def test_choice_unnormalised_weights(self, rng):
        d = Choice(((3.0, Const(1)), (1.0, Const(5))))
        assert d.mean() == pytest.approx(2.0)

    def test_choice_empty_rejected(self):
        with pytest.raises(ValueError):
            Choice(())

    @pytest.mark.parametrize("weight", [-1.0, float("nan"), float("inf")])
    def test_choice_bad_weight_rejected(self, weight):
        # A negative weight builds a non-monotone CDF and a NaN one an
        # all-NaN CDF; either would make the index search meaningless.
        with pytest.raises(ValueError, match=re.escape(repr(weight))):
            Choice(((2.0, Const(1)), (weight, Const(2))))

    def test_choice_cdf_is_not_a_field(self, rng):
        # Store keys encode a dataclass through dataclasses.fields(); the
        # cached CDF must stay out of them.
        d = Choice(((1.0, Const(1)), (3.0, Const(2))))
        d.sample(rng)
        assert [f.name for f in dataclasses.fields(d)] == ["options"]

    def test_scaled(self, rng):
        d = Scaled(Const(1000), 0.5)
        assert d.sample(rng) == 500
        assert d.mean() == 500.0

    @given(lo=st.integers(0, 10**6), width=st.integers(0, 10**6))
    def test_uniform_property(self, lo, width):
        rng = np.random.default_rng(0)
        d = Uniform(lo, lo + width)
        s = d.sample(rng)
        assert lo <= s <= lo + width


def _reference_cdf(weights):
    """The CDF ``Generator.choice`` builds, as the old sampler kept it."""
    p = np.array(weights, dtype=float)
    p /= p.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


class TestStreamIdentity:
    """``bounded_int`` and ``Choice`` draw exactly what numpy draws.

    Two generators on one seed: one goes through the fast paths, the
    other through ``rng.integers`` and ``ndarray.searchsorted``, with
    the same other draws interleaved on both.  Every value and the
    final generator state must agree.
    """

    #: Spans hi - lo: no draw (0), the Lemire path (1 .. 0xFFFFFFFE;
    #: 0x55555555 and 2**31 reject about a third and a half of their
    #: draws), and numpy's own full-word and 64-bit paths.
    SPANS = (0, 1, 2, 999, 2**31, 0x55555555, 0xFFFFFFFE, 0xFFFFFFFF,
             2**32, 2**40)

    def _interleave(self, plan, ours, ref):
        other = int(plan.integers(0, 4))
        if other == 1:
            assert ours.random() == ref.random()
        elif other == 2:
            assert int(ours.integers(0, 1000)) == int(ref.integers(0, 1000))
        elif other == 3:
            assert ours.exponential(5.0) == ref.exponential(5.0)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bounded_int_matches_integers(self, seed):
        plan = np.random.default_rng(1000 + seed)
        ours = np.random.default_rng(seed)
        ref = np.random.default_rng(seed)
        for _ in range(3000):
            if plan.random() < 0.5:
                span = self.SPANS[int(plan.integers(0, len(self.SPANS)))]
            else:
                span = int(plan.integers(0, 2**33))
            lo = int(plan.integers(-10**9, 10**9))
            got = bounded_int(ours, lo, lo + span)
            assert got == int(ref.integers(lo, lo + span + 1)), (lo, span)
            self._interleave(plan, ours, ref)
        assert ours.bit_generator.state == ref.bit_generator.state

    def test_bounded_int_refuses_an_empty_range(self):
        with pytest.raises(ValueError):
            bounded_int(np.random.default_rng(0), 10, 9)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_choice_matches_searchsorted(self, seed):
        plan = np.random.default_rng(2000 + seed)
        ours = np.random.default_rng(seed)
        ref = np.random.default_rng(seed)
        mixes = []
        for n in (1, 2, 3, 5, 9):
            weights = plan.random(n) * 10.0 ** plan.integers(-6, 7, n)
            weights[plan.random(n) < 0.3] = 0.0   # repeated CDF values
            weights[0] += 1e-3
            weights = [float(w) for w in weights]
            mixes.append((Choice(tuple((w, Const(i))
                                       for i, w in enumerate(weights))),
                          _reference_cdf(weights)))
        for _ in range(3000):
            choice, cdf = mixes[int(plan.integers(0, len(mixes)))]
            want = int(cdf.searchsorted(ref.random(), side="right"))
            assert choice.sample(ours) == want
            self._interleave(plan, ours, ref)
        assert ours.bit_generator.state == ref.bit_generator.state

    def test_uniform_and_fault_cost_use_the_identity(self):
        from repro.kernel.mm import FaultModel

        ours = np.random.default_rng(11)
        ref = np.random.default_rng(11)
        model = FaultModel()
        for _ in range(200):
            assert Uniform(400, 900).sample(ours) == int(ref.integers(400, 901))
            assert model.sample_fault_cost(ours) == int(ref.integers(
                model.minor_cost_lo, model.minor_cost_hi + 1))
        assert ours.bit_generator.state == ref.bit_generator.state


class TestTimingModel:
    def test_unknown_key_raises(self, rng):
        model = TimingModel({"a": Const(1)})
        with pytest.raises(KeyError):
            model.sample("missing", rng)

    def test_sample_and_has(self, rng):
        model = TimingModel({"a": Const(7)})
        assert model.has("a") and not model.has("b")
        assert model.sample("a", rng) == 7

    def test_override_copies(self, rng):
        model = TimingModel({"a": Const(1), "b": Const(2)})
        patched = model.override(a=Const(99))
        assert patched.sample("a", rng) == 99
        assert model.sample("a", rng) == 1
        assert patched.sample("b", rng) == 2


class TestCalibrationTable:
    """The calibrated table must cover every key kernel code asks for."""

    REQUIRED = [
        "irq.entry", "irq.ipi", "irq.handler.default", "irq.handler.rtc",
        "irq.handler.rcim", "irq.handler.net", "irq.handler.disk",
        "irq.handler.gfx", "tick.cost", "tick.timer_softirq",
        "sched.switch", "sched.goodness_scan", "syscall.entry",
        "syscall.exit", "fs.file_lock_hold", "rtc.read_setup",
        "rtc.read_wake", "bkl.ioctl_hold", "rcim.ioctl_setup",
        "rcim.ioctl_return", "net.tx_per_packet",
        "softirq.net_rx_per_packet", "block.submit",
        "softirq.block_complete", "softirq.gfx_tasklet", "pipe.copy",
        "fs.section", "nfs.section", "fs.lock_section", "mmap.section",
        "crashme.fault",
    ]

    def test_all_required_keys_present(self):
        table = base_timing_table()
        for key in self.REQUIRED:
            assert key in table, f"calibration missing {key}"

    def test_all_keys_sample_non_negative(self, rng):
        table = base_timing_table()
        for key, dist in table.items():
            for _ in range(20):
                assert dist.sample(rng) >= 0, key

    def test_fs_section_has_long_tail(self, rng):
        """Figure 5's mechanism requires tens-of-ms sections to exist."""
        dist = base_timing_table()["fs.section"]
        samples = np.array([dist.sample(rng) for _ in range(30_000)])
        assert samples.max() > 10_000_000          # > 10 ms occurs
        assert np.median(samples) < 100_000        # but typically < 0.1 ms

    def test_all_keys_helper(self):
        assert set(all_keys()) == set(base_timing_table())
