"""Miscellaneous behaviour: boot guards, tracing, stats, edge paths."""

import pytest

from repro.configs.kernels import redhawk_1_4, vanilla_2_4_21
from repro.core.affinity import CpuMask
from repro.kernel import ops as op
from repro.kernel.kernel import Kernel
from repro.observe.tracepoints import TP
from repro.sim.errors import KernelPanic
from tests.conftest import boot_kernel


class TestBootGuards:
    def test_double_boot_panics(self, sim, machine):
        kernel = boot_kernel(sim, machine)
        with pytest.raises(KernelPanic):
            kernel.boot()

    def test_two_kernels_same_machine_last_wins_hooks(self, sim, machine):
        # Booting a second kernel on the same machine is not supported;
        # the first boot owns the APIC hook.  Documented behaviour:
        # second boot simply replaces the hooks.
        k1 = boot_kernel(sim, machine)
        config = vanilla_2_4_21().with_overrides(ksoftirqd=False)
        k2 = Kernel(sim, machine, config)
        k2.boot()
        assert machine.apic.deliver.__self__ is k2


class TestTracing:
    def test_tracepoints_record_irqs_and_frames(self, sim, machine):
        kernel = boot_kernel(sim, machine)
        sim.tp.enable()
        kernel.register_irq_handler(60, "irq.handler.default",
                                    lambda cpu: None)
        machine.apic.register_irq(60, "dev")
        machine.apic.raise_irq(60)
        sim.run_until(1_000_000)
        hits = sim.tp.hit_counts()
        assert hits.get("irq_raise")
        assert hits.get("irq_entry")
        assert hits.get("frame_push")
        names = {TP(row[2]).name for row in sim.tp.events()}
        assert {"IRQ_RAISE", "IRQ_ENTRY", "IRQ_EXIT"} <= names

    def test_tracepoints_off_by_default_and_free(self, sim, machine):
        kernel = boot_kernel(sim, machine)
        kernel.register_irq_handler(60, "irq.handler.default",
                                    lambda cpu: None)
        machine.apic.register_irq(60, "dev")
        machine.apic.raise_irq(60)
        sim.run_until(1_000_000)
        assert not sim.tp.enabled
        assert sim.tp.hit_counts() == {}
        assert list(sim.tp.events()) == []


class TestStats:
    def test_syscall_and_switch_counters(self, sim, machine):
        kernel = boot_kernel(sim, machine)

        def body():
            for _ in range(5):
                yield op.EnterSyscall("x")
                yield op.Compute(1_000, kernel=True)
                yield op.ExitSyscall()
                yield op.Sleep(1_000_000)

        kernel.create_task("t", body())
        sim.run_until(100_000_000)
        assert kernel.stats.syscalls >= 5
        assert kernel.stats.context_switches >= 5

    def test_ipi_counter(self, sim, machine):
        from repro.kernel.sync.waitqueue import WaitQueue

        kernel = boot_kernel(sim, machine)
        wq = WaitQueue("w")

        def sleeper():
            yield op.Block(wq)
            yield op.Compute(100)

        def busy():
            while True:
                yield op.Compute(1_000_000)

        from repro.kernel.task import SchedPolicy

        kernel.create_task("sleeper", sleeper(), policy=SchedPolicy.FIFO,
                           rt_prio=50, affinity=CpuMask([1]))
        kernel.create_task("busy", busy(), affinity=CpuMask([1]))
        sim.run_until(5_000_000)
        before = kernel.stats.ipis
        # Wake from an event (no cpu context) onto the busy cpu1.
        kernel.wake_up(wq, from_cpu=None)
        sim.run_until(10_000_000)
        assert kernel.stats.ipis > before

    def test_runnable_summary_shape(self, sim, machine):
        kernel = boot_kernel(sim, machine)
        summary = kernel.runnable_summary()
        assert set(summary) == {"current", "queued", "need_resched",
                                "switches"}


class TestWakeEdgeCases:
    def test_wake_task_not_blocked_is_noop(self, sim, machine):
        kernel = boot_kernel(sim, machine)

        def body():
            while True:
                yield op.Compute(100_000)

        task = kernel.create_task("t", body())
        sim.run_until(1_000_000)
        kernel.wake_task(task)  # RUNNING: must not corrupt state
        sim.run_until(2_000_000)
        assert task.runnable

    def test_wake_empty_queue_returns_zero(self, sim, machine):
        from repro.kernel.sync.waitqueue import WaitQueue

        kernel = boot_kernel(sim, machine)
        assert kernel.wake_up(WaitQueue("empty")) == 0

    def test_sleep_zero_duration(self, sim, machine):
        kernel = boot_kernel(sim, machine)
        times = []

        def body():
            yield op.Sleep(0)
            yield op.Call(lambda: times.append(sim.now))

        kernel.create_task("t", body())
        sim.run_until(1_000_000)
        assert times and times[0] < 100_000


class TestMachineSpeedComposition:
    def test_speed_composes_ht_and_memory(self, sim):
        from repro.hw.cpu import ExecFrame, FrameKind
        from repro.hw.machine import Machine, MachineSpec

        machine = Machine(sim, MachineSpec(
            cores=1, hyperthreading=True, ht_speed_mean=0.5,
            ht_speed_jitter=0.0, membus_coupling=0.0))
        cpu0, cpu1 = machine.cpus
        cpu1.push_frame(ExecFrame(FrameKind.TASK, 10_000_000,
                                  lambda f: None))
        frame = ExecFrame(FrameKind.TASK, 1_000, lambda f: None)
        cpu0.push_frame(frame)
        assert frame.speed == pytest.approx(0.5)
