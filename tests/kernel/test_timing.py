"""Unit and property tests for the timing-distribution mini-language."""

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
