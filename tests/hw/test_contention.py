"""Tests for hyperthread and memory-bus contention models."""

import pytest

from repro.hw.cpu import ExecFrame, FrameKind
from repro.hw.machine import Machine, MachineSpec
from repro.sim.engine import Simulator


def _task(work, done=None):
    return ExecFrame(FrameKind.TASK, work,
                     (lambda f: done.append(f)) if done is not None else (lambda f: None))


class TestHyperthreadContention:
    def make(self, ht_mean=0.5, jitter=0.0):
        sim = Simulator(seed=5)
        machine = Machine(sim, MachineSpec(
            cores=1, hyperthreading=True, ht_speed_mean=ht_mean,
            ht_speed_jitter=jitter, membus_coupling=0.0))
        return sim, machine

    def test_sibling_idle_full_speed(self):
        sim, machine = self.make()
        done = []
        machine.cpu(0).push_frame(_task(1_000, done))
        sim.run_until(10_000)
        assert sim.now >= 1_000 and done

    def test_both_busy_slows_down(self):
        sim, machine = self.make(ht_mean=0.5)
        done = []
        machine.cpu(0).push_frame(ExecFrame(
            FrameKind.TASK, 1_000, lambda f: done.append(sim.now)))
        machine.cpu(1).push_frame(_task(10_000))
        sim.run_until(100_000)
        # At speed 0.5, 1000 ns of work takes ~2000 ns wall time.
        assert done[0] == pytest.approx(2_000, rel=0.01)

    def test_sibling_finish_restores_speed(self):
        sim, machine = self.make(ht_mean=0.5)
        done = []
        machine.cpu(0).push_frame(ExecFrame(
            FrameKind.TASK, 2_000, lambda f: done.append(sim.now)))
        machine.cpu(1).push_frame(_task(500))  # finishes at wall 1000
        sim.run_until(100_000)
        # First 1000 ns wall at half speed (500 work), remaining 1500
        # work at full speed: total 2500 ns.
        assert done[0] == pytest.approx(2_500, rel=0.02)

    def test_no_ht_no_contention(self):
        sim = Simulator(seed=5)
        machine = Machine(sim, MachineSpec(cores=2, hyperthreading=False,
                                           membus_coupling=0.0))
        done = []
        machine.cpu(0).push_frame(ExecFrame(
            FrameKind.TASK, 1_000, lambda f: done.append(sim.now)))
        machine.cpu(1).push_frame(_task(10_000))
        sim.run_until(100_000)
        assert done[0] == 1_000

    def test_speed_factor_range(self):
        sim, machine = self.make(ht_mean=0.6, jitter=0.08)
        core = machine.cores[0]
        rng = sim.rng.stream("t")
        for _ in range(100):
            core.resample_factor(rng)
            machine.cpu(1).push_frame(_task(10))
            # The frame-start rule: a busy sibling slows the new frame
            # to the core's contention factor.
            frame = _task(10)
            machine.cpu(0).push_frame(frame)
            assert 0.5 <= frame.speed <= 0.69
            sim.run_until(sim.now + 100)


class TestMemoryBus:
    def test_single_cpu_no_penalty(self):
        sim = Simulator(seed=9)
        machine = Machine(sim, MachineSpec(cores=2, membus_coupling=0.05))
        done = []
        machine.cpu(0).push_frame(ExecFrame(
            FrameKind.TASK, 1_000, lambda f: done.append(sim.now)))
        sim.run_until(10_000)
        assert done[0] == 1_000

    def test_contention_slows_within_bound(self):
        sim = Simulator(seed=9)
        machine = Machine(sim, MachineSpec(cores=2, membus_coupling=0.05,
                                           membus_epoch_ns=10_000_000))
        done = []
        machine.cpu(1).push_frame(ExecFrame(
            FrameKind.TASK, 100_000_000, lambda f: done.append(sim.now)))
        machine.cpu(0).push_frame(_task(10_000_000_000))  # keep cpu0 busy
        sim.run_until(2_000_000_000)
        assert done, "frame did not finish"
        stretch = done[0] / 100_000_000
        assert 1.0 <= stretch <= 1.06  # coupling bounds the slowdown

    def test_epoch_levels_change_over_time(self):
        sim = Simulator(seed=9)
        machine = Machine(sim, MachineSpec(cores=2, membus_coupling=0.05,
                                           membus_epoch_ns=1_000_000))
        machine.cpu(0).push_frame(_task(10_000_000_000))
        machine.cpu(1).push_frame(_task(10_000_000_000))
        levels = set()
        for _ in range(20):
            sim.run_until(sim.now + 1_000_000)
            levels.add(round(machine.memory.current_level(machine.cpu(1)), 6))
        assert len(levels) > 3  # resampled per epoch

    def test_hyperthread_siblings_not_memory_contenders(self):
        """Same-core siblings contend in the execution unit, not the
        bus model (their traffic shares the same bus interface)."""
        sim = Simulator(seed=9)
        machine = Machine(sim, MachineSpec(
            cores=1, hyperthreading=True, membus_coupling=0.05))
        machine.cpu(1).push_frame(_task(1_000_000))
        level = machine.memory._sample_level(machine.cpu(0))
        assert level == 0.0
