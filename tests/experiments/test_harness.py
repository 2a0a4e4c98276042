"""Tests for the experiment harness."""

import re

import pytest

from repro.configs.kernels import redhawk_1_4, vanilla_2_4_21
from repro.core.affinity import CpuMask
from repro.experiments.harness import build_bench
from repro.hw.machine import determinism_testbed, interrupt_testbed
from repro.sim.errors import SimulationStalledError


class TestBuildBench:
    def test_all_devices_attached_and_drivers_registered(self):
        bench = build_bench(vanilla_2_4_21())
        assert set(bench.machine.devices) == {"rtc", "rcim", "eth0", "sda",
                                              "gfx"}
        assert "/dev/rtc" in bench.kernel.drivers
        assert "/dev/rcim" in bench.kernel.drivers
        assert "/dev/sda" in bench.kernel.drivers
        assert "net" in bench.kernel.drivers

    def test_kernel_booted(self):
        bench = build_bench(vanilla_2_4_21())
        assert bench.kernel._booted

    def test_shield_cpu_via_proc(self):
        bench = build_bench(redhawk_1_4())
        bench.shield_cpu(1)
        assert bench.kernel.shield.is_shielded(1)
        assert not bench.kernel.local_timer.is_enabled(1)

    def test_partial_shield(self):
        bench = build_bench(redhawk_1_4())
        bench.shield_cpu(1, procs=True, irqs=False, ltmr=False)
        assert bench.kernel.shield.procs_mask == CpuMask([1])
        assert not bench.kernel.shield.irqs_mask
        assert bench.kernel.local_timer.is_enabled(1)

    def test_set_irq_affinity(self):
        bench = build_bench(vanilla_2_4_21())
        bench.set_irq_affinity(bench.rtc.irq, 1)
        desc = bench.machine.apic.irqs[bench.rtc.irq]
        assert desc.requested_affinity == CpuMask([1])

    def test_background_broadcast_flow(self):
        bench = build_bench(vanilla_2_4_21())
        bench.add_background_broadcast()
        assert "broadcast" in bench.nic.flows

    def test_run_until_done_respects_limit(self):
        bench = build_bench(vanilla_2_4_21())
        bench.start_devices()

        class Never:
            finished = False

        bench.run_until_done(Never(), limit_ns=100_000_000)
        assert bench.sim.now == pytest.approx(100_000_000, abs=2)

    def test_run_until_done_diagnoses_stalled_simulation(self):
        bench = build_bench(vanilla_2_4_21())

        class Never:
            finished = False
            name = "never-test"

        # Kill every pending event: nothing can ever progress again.
        assert bench.sim.cancel_pending() > 0
        assert bench.sim.events_pending == 0
        with pytest.raises(SimulationStalledError) as exc:
            bench.run_until_done(Never(), limit_ns=1_000_000_000)
        # The diagnostic names the program instead of burning the limit.
        assert "never-test" in str(exc.value)
        assert bench.sim.now == 0

    def test_strict_limit_diagnostic_reports_pending_state(self):
        bench = build_bench(vanilla_2_4_21())
        bench.start_devices()

        class Never:
            finished = False
            name = "never-test"

        with pytest.raises(SimulationStalledError) as exc:
            bench.run_until_done(Never(), limit_ns=10_000_000,
                                 strict_limit=True)
        message = str(exc.value)
        assert "never-test" in message
        pending = bench.sim.events_pending
        assert f"({pending} events still pending)" in message
        periodic, oneshot = re.search(
            r"pending: (\d+) periodic .*; (\d+) one-shot", message).groups()
        assert int(periodic) + int(oneshot) == pending

    def test_machine_spec_selection(self):
        bench = build_bench(vanilla_2_4_21(),
                            determinism_testbed(hyperthreading=True))
        assert bench.machine.ncpus == 4
        bench2 = build_bench(vanilla_2_4_21(), interrupt_testbed())
        assert bench2.machine.ncpus == 2
