"""Stall diagnostics name what is still scheduled.

``Simulator.pending_summary`` lists live periodic callbacks by label
(timer ticks, device pacers, fault-injector pacers) and counts live
one-shots; ``run_until_done`` includes it in both stall diagnostics
(drained heap, and -- opt-in -- expired limit).
"""

from __future__ import annotations

import pytest

from repro.configs.kernels import vanilla_2_4_21
from repro.experiments.harness import build_bench
from repro.faults import FaultController, FaultPlan, injector
from repro.sim.engine import Simulator
from repro.sim.errors import SimulationStalledError
from repro.sim.simtime import MSEC


class _NeverDone:
    name = "never-test"
    finished = False


class TestPendingSummary:
    def test_empty_simulator(self):
        sim = Simulator()
        assert sim.pending_summary() == "0 periodic (none); 0 one-shot"

    def test_names_periodics_and_counts_oneshots(self):
        sim = Simulator()
        sim.periodic(1000, lambda: None, label="tick-a")
        sim.periodic(1000, lambda: None, label="tick-b")
        sim.after(10, lambda: None)
        sim.after(10, lambda: None)
        summary = sim.pending_summary()
        assert "2 periodic (tick-a, tick-b)" in summary
        assert "2 one-shot" in summary

    def test_truncates_long_label_lists(self):
        sim = Simulator()
        for i in range(12):
            sim.periodic(1000, lambda: None, label=f"p{i:02d}")
        summary = sim.pending_summary(max_labels=3)
        assert "(4 more)" not in summary  # 12 - 3 = 9 more
        assert "(9 more)" in summary

    def test_counts_add_up_on_a_started_bench(self):
        # Two CPUs share the ltmr label: each live periodic is counted,
        # and the one-shots are the rest of what is pending.
        bench = build_bench(vanilla_2_4_21())
        bench.start_devices()
        summary = bench.sim.pending_summary()
        assert summary.startswith("3 periodic (ltmr x2, membus-epoch); ")
        oneshots = int(summary.rsplit("; ", 1)[1].split()[0])
        assert 3 + oneshots == bench.sim.events_pending

    def test_cancelled_periodics_are_not_listed(self):
        sim = Simulator()
        handle = sim.periodic(1000, lambda: None, label="gone")
        handle.cancel()
        assert "gone" not in sim.pending_summary()


class TestStrictLimitDiagnostics:
    def test_expired_limit_names_fault_pacers(self):
        bench = build_bench(vanilla_2_4_21())
        plan = FaultPlan(
            name="test-stall", title="stall",
            injectors=(injector("irq-storm", irq=96, name="s",
                                rate_hz=200.0),))
        FaultController(bench, plan).install()
        with pytest.raises(SimulationStalledError) as excinfo:
            bench.run_until_done(_NeverDone(), limit_ns=20 * MSEC,
                                 strict_limit=True)
        message = str(excinfo.value)
        assert "never-test" in message
        assert "fault:irq-storm#0" in message

    def test_default_keeps_the_silent_limit_contract(self):
        bench = build_bench(vanilla_2_4_21())
        test = _NeverDone()
        bench.run_until_done(test, limit_ns=5 * MSEC)  # no raise
        assert not test.finished
