"""Unit tests: each injector kind against a live bench.

Every test builds a real booted testbed, installs one single-injector
plan through the controller, advances simulated time, and checks both
the injected effect and that ``uninstall`` restores every hook.
"""

import pytest

from repro.configs.kernels import redhawk_1_4, vanilla_2_4_21
from repro.experiments.harness import build_bench
from repro.experiments.scenario import run_scenario, scenario
from repro.faults import FaultController, FaultPlan, injector
from repro.observe.tracepoints import TP
from repro.observe.tracer import TraceConfig
from repro.sim.simtime import MSEC


def _controller(bench, kind, intensity=1.0, **params):
    plan = FaultPlan(name=f"test-{kind}", title=kind,
                     injectors=(injector(kind, **params),))
    return FaultController(bench, plan, intensity=intensity)


class TestControllerLifecycle:
    def test_zero_intensity_is_a_complete_noop(self):
        bench = build_bench(vanilla_2_4_21())
        ctl = _controller(bench, "irq-storm", intensity=0.0,
                          irq=96, name="s", rate_hz=1000.0)
        before = bench.sim.pending_summary()
        ctl.install()
        assert not ctl.enabled
        assert not ctl.injectors
        assert bench.sim.pending_summary() == before
        bench.run_for(100 * MSEC)
        assert ctl.timeline == []
        ctl.uninstall()

    def test_double_install_rejected(self):
        bench = build_bench(vanilla_2_4_21())
        ctl = _controller(bench, "irq-storm", irq=96, name="s",
                          rate_hz=100.0).install()
        with pytest.raises(RuntimeError):
            ctl.install()

    def test_report_shape(self):
        bench = build_bench(vanilla_2_4_21())
        ctl = _controller(bench, "irq-storm", irq=96, name="s",
                          rate_hz=500.0).install()
        bench.run_for(50 * MSEC)
        ctl.uninstall()
        report = ctl.report()
        assert report["plan"] == "test-irq-storm"
        assert report["enabled"] is True
        assert report["injections"] == len(report["timeline"])
        assert report["by_injector"] == {"irq-storm#0":
                                         report["injections"]}
        assert report["injections"] > 0

    def test_every_injection_hits_the_tracepoint(self):
        spec = scenario("storm-fig6").configured(samples=300)
        result = run_scenario(spec, trace=TraceConfig(record=True))
        faults = result.faults
        assert result.trace["hits"].get("fault_inject") \
            == faults["injections"] > 0
        injectors = [row[3][0]
                     for row in result.trace["recording"]["events"]
                     if row[2] == TP.FAULT_INJECT]
        assert injectors
        keys = {"fault:" + key for key in faults["by_injector"]}
        assert set(injectors) <= keys


class TestIrqStorm:
    def test_floods_its_line_and_stops_on_uninstall(self):
        bench = build_bench(vanilla_2_4_21())
        ctl = _controller(bench, "irq-storm", irq=96, name="s",
                          rate_hz=1000.0, burst_max=3).install()
        bench.run_for(100 * MSEC)
        desc = bench.machine.apic.irqs[96]
        fired = sum(desc.delivered.values())
        assert fired >= 100  # >= one raise per pacer fire
        assert ctl.timeline
        ctl.uninstall()
        bench.run_for(100 * MSEC)
        assert sum(desc.delivered.values()) == fired

    def test_shielded_cpu_never_sees_the_storm(self):
        bench = build_bench(redhawk_1_4())
        bench.shield_cpu(1)
        ctl = _controller(bench, "irq-storm", irq=96, name="s",
                          rate_hz=1000.0).install()
        bench.run_for(100 * MSEC)
        desc = bench.machine.apic.irqs[96]
        assert desc.delivered.get(1, 0) == 0
        assert sum(desc.delivered.values()) > 0
        ctl.uninstall()


class TestRogueTask:
    def test_holds_the_lock_and_emits(self):
        bench = build_bench(vanilla_2_4_21())
        ctl = _controller(bench, "rogue-task", lock="bkl",
                          hold_ns=200_000, period_ns=2 * MSEC).install()
        bench.run_for(50 * MSEC)
        assert ctl.timeline
        stats = bench.kernel.locks.bkl
        assert any(t.name == "fault:rogue-bkl"
                   for t in bench.kernel.tasks.values())
        assert stats is not None
        ctl.uninstall()
        count = len(ctl.timeline)
        # The loop parks at its next wakeup: no further holds.
        bench.run_for(50 * MSEC)
        assert len(ctl.timeline) == count

    def test_intensity_scales_the_hold(self):
        bench = build_bench(vanilla_2_4_21())
        ctl = _controller(bench, "rogue-task", lock="bkl",
                          hold_ns=100_000, period_ns=2 * MSEC,
                          intensity=4.0).install()
        assert ctl.injectors[0]._task is not None
        bench.run_for(20 * MSEC)
        ctl.uninstall()
        assert ctl.timeline
        assert "400000ns" in ctl.timeline[0][3]


class TestDeviceIrq:
    def test_lost_mode_drops_raises(self):
        bench = build_bench(vanilla_2_4_21(), seed=3)
        ctl = _controller(bench, "device-irq", device="eth0",
                          mode="lost", prob=1.0).install()
        device = bench.machine.device("eth0")
        desc = device.irq_desc
        before = sum(desc.delivered.values())
        device.raise_irq()
        assert sum(desc.delivered.values()) == before  # dropped
        assert ctl.timeline
        ctl.uninstall()
        assert "raise_irq" not in vars(device)
        device.raise_irq()
        assert sum(desc.delivered.values()) == before + 1

    def test_spurious_mode_raises_without_device_events(self):
        bench = build_bench(vanilla_2_4_21())
        ctl = _controller(bench, "device-irq", device="sda",
                          mode="spurious", rate_hz=500.0).install()
        bench.run_for(50 * MSEC)
        desc = bench.machine.device("sda").irq_desc
        assert sum(desc.delivered.values()) >= 20
        assert ctl.timeline
        ctl.uninstall()

    def test_stuck_mode_reraises(self):
        bench = build_bench(vanilla_2_4_21(), seed=5)
        ctl = _controller(bench, "device-irq", device="sda",
                          mode="stuck", prob=1.0, extra=3).install()
        device = bench.machine.device("sda")
        desc = device.irq_desc
        before = sum(desc.delivered.values())
        device.raise_irq()
        assert sum(desc.delivered.values()) == before + 4
        ctl.uninstall()

    def test_unknown_mode_rejected(self):
        bench = build_bench(vanilla_2_4_21())
        with pytest.raises(ValueError):
            _controller(bench, "device-irq", device="sda",
                        mode="mangled").install()


class TestTickJitter:
    def test_perturbs_and_restores_tick_periods(self):
        bench = build_bench(vanilla_2_4_21())
        timer = bench.kernel.local_timer
        nominal = bench.kernel.config.tick_ns
        ctl = _controller(bench, "tick-jitter", drift=0.2,
                          period_ns=5 * MSEC).install()
        bench.run_for(30 * MSEC)
        periods = [h.period for h in timer._events.values()
                   if h is not None]
        assert any(p != nominal for p in periods)
        ctl.uninstall()
        periods = [h.period for h in timer._events.values()
                   if h is not None]
        assert all(p == nominal for p in periods)
        assert ctl.timeline


class TestIrqMisroute:
    def test_steers_for_a_window_then_restores(self):
        bench = build_bench(redhawk_1_4())
        bench.shield_cpu(1)
        desc = bench.machine.device("sda").irq_desc
        shielded_mask = desc.effective_affinity
        ctl = _controller(bench, "irq-misroute", device="sda",
                          target_cpu=0, period_ns=10 * MSEC,
                          window_ns=4 * MSEC).install()
        bench.run_for(12 * MSEC)  # inside the second window
        assert list(desc.effective_affinity) == [0]
        bench.run_for(3 * MSEC)   # past window end
        assert desc.effective_affinity == shielded_mask
        ctl.uninstall()
        assert desc.effective_affinity == shielded_mask
        assert ctl.timeline


class TestShieldFlip:
    def test_drops_and_restores_the_shield(self):
        bench = build_bench(redhawk_1_4())
        bench.shield_cpu(1)
        shield = bench.kernel.shield
        ctl = _controller(bench, "shield-flip", cpu=1,
                          period_ns=10 * MSEC, window_ns=4 * MSEC
                          ).install()
        bench.run_for(12 * MSEC)  # inside the second window
        assert not shield.is_shielded(1)
        bench.run_for(3 * MSEC)
        assert shield.is_shielded(1)
        ctl.uninstall()
        assert shield.is_shielded(1)
        assert len(ctl.timeline) >= 2  # unshield + reshield emits

    def test_noop_without_a_shield(self):
        bench = build_bench(redhawk_1_4())
        ctl = _controller(bench, "shield-flip", cpu=1,
                          period_ns=5 * MSEC).install()
        bench.run_for(20 * MSEC)
        ctl.uninstall()
        assert ctl.timeline == []
