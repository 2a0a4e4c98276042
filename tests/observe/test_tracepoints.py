"""Unit tests for the typed tracepoint registry and its rings."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observe import tracepoints
from repro.observe.tracepoints import (
    TP,
    TraceListener,
    Tracepoints,
)
from repro.observe.tracer import TraceConfig


class TestRings:
    def _tp(self, capacity):
        tp = Tracepoints(capacity=capacity)
        tp.configure(1)
        tp.enable()
        return tp

    def test_wraps_oldest_first(self):
        tp = self._tp(capacity=3)
        for t in range(5):
            tp.timer_tick(t, 0)
        assert len(tp.rings[0]) == 3
        assert tp.dropped() == 2
        assert [row[0] for row in tp.events()] == [2, 3, 4]

    def test_clear_resets(self):
        tp = self._tp(capacity=2)
        for t in range(4):
            tp.timer_tick(t, 0)
        tp.clear()
        assert len(tp.rings[0]) == 0
        assert tp.dropped() == 0
        assert tp.events() == []

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracepoints(capacity=0).configure(1)

    def test_trace_config_refuses_capacity_below_one(self):
        for capacity in (0, -1):
            with pytest.raises(ValueError, match="capacity"):
                TraceConfig(capacity=capacity)

    @pytest.mark.parametrize("pct", [-1, 100.5, 150, float("nan"), "99",
                                     True])
    def test_trace_config_refuses_a_percentile_outside_0_to_100(self, pct):
        with pytest.raises(ValueError, match="threshold_pct"):
            TraceConfig(threshold_pct=pct)

    @pytest.mark.parametrize("pct", [0, 50, 99.0, 100])
    def test_trace_config_takes_a_percentile_in_0_to_100(self, pct):
        assert TraceConfig(threshold_pct=pct).threshold_pct == pct

    def test_rows_are_plain_tuples(self):
        # Rows hold the plain-int code, never a TP member, so nothing
        # in a row keeps it tracked by the cyclic collector.
        tp = self._tp(capacity=4)
        tp.frame_push(7, 0, "task", "rt", "rt")
        (row,) = tp.events()
        assert row == (7, 0, 22, ("task", "rt", "rt"))
        assert type(row[2]) is int
        assert TP(row[2]) is TP.FRAME_PUSH
        # A collection untracks a tuple whose items are all untracked;
        # the row's args tuple may be visited after the row itself, so
        # the row goes on the next pass.
        gc.collect()
        gc.collect()
        assert not gc.is_tracked(row)

    def test_emit_codes_follow_the_catalogue(self):
        for member in TP:
            code = getattr(tracepoints, "_" + member.name)
            assert code == member and type(code) is int


class TestTracepoints:
    def _tp(self, ncpus=2, capacity=16):
        tp = Tracepoints(capacity=capacity)
        tp.configure(ncpus)
        return tp

    def test_enable_requires_configure(self):
        tp = Tracepoints()
        with pytest.raises(ValueError):
            tp.enable()

    def test_disabled_registry_records_nothing(self):
        tp = self._tp()
        assert not tp.enabled
        assert tp.hit_counts() == {}
        assert tp.events() == []

    def test_hit_counts_and_top_hits(self):
        tp = self._tp()
        tp.enable()
        for _ in range(3):
            tp.timer_tick(10, 0)
        tp.irq_entry(20, 1, 60, "rtc")
        hits = tp.hit_counts()
        assert hits == {"timer_tick": 3, "irq_entry": 1}
        assert tp.top_hits(1) == [("timer_tick", 3)]

    def test_events_merge_is_time_then_cpu_ordered(self):
        tp = self._tp()
        tp.enable()
        tp.timer_tick(30, 1)
        tp.timer_tick(10, 0)
        tp.timer_tick(30, 0)
        ordered = [(row[0], row[1]) for row in tp.events()]
        assert ordered == [(10, 0), (30, 0), (30, 1)]

    def test_merge_keeps_time_cpu_ring_order_across_a_wrap(self):
        tp = self._tp(ncpus=3, capacity=3)
        tp.enable()
        # Equal times on every CPU, emitted highest CPU first, two rows
        # per (time, cpu); CPU 2's ring wraps and keeps its newest three.
        for t in (10, 20, 30):
            for cpu in (2, 1, 0):
                if cpu == 2 or t == 20:
                    tp.timer_tick(t, cpu)
                    tp.softirq_raise(t, cpu, 1)
        assert tp.dropped() == 3
        ordered = [row[:3] for row in tp.events()]
        tick, raise_ = TP.TIMER_TICK, TP.SOFTIRQ_RAISE
        assert ordered == [
            (20, 0, tick), (20, 0, raise_), (20, 1, tick), (20, 1, raise_),
            (20, 2, raise_), (30, 2, tick), (30, 2, raise_)]

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(capacity=st.integers(1, 6),
           emits=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2)),
                          max_size=40))
    def test_merge_equals_a_sort_on_time_then_cpu(self, capacity, emits):
        tp = self._tp(ncpus=3, capacity=capacity)
        tp.enable()
        for seq, (t, cpu) in enumerate(emits):
            tp.softirq_raise(t, cpu, seq)
        rows = [row for ring in tp.rings for row in ring]
        assert tp.events() == sorted(rows, key=lambda r: (r[0], r[1]))

    def test_accounting_updates_are_o1_per_emit(self):
        tp = self._tp()
        tp.enable()
        tp.timer_tick(10, 0)
        tp.sched_switch(11, 0, "t")
        tp.sched_wake(12, 1, "t", 0)
        tp.syscall_entry(13, 0, "t", "ioctl")
        tp.irq_entry(14, 1, 60, "rtc")
        tp.softirq_entry(15, 0, 2)
        acct = tp.accounting
        assert acct.cpus[0].ticks == 1
        assert acct.cpus[0].switches == 1
        assert acct.cpus[1].wakes == 1
        assert acct.cpus[0].syscalls == 1
        assert acct.cpus[1].irqs == {60: 1}
        assert acct.irq_names == {60: "rtc"}
        assert acct.cpus[0].softirqs == {2: 1}

    def test_max_window_tracking(self):
        tp = self._tp()
        tp.enable()
        tp.irqs_off(100, 0)
        tp.irqs_on(350, 0)
        tp.irqs_off(400, 0)
        tp.irqs_on(450, 0)
        tp.preempt_off(100, 1, "t")
        tp.preempt_on(1100, 1, "t")
        tp.lock_release(2000, 0, "kernel_flag", "t", 777, True)
        tp.lock_release(2100, 0, "other", "t", 9999, False)
        acct = tp.accounting
        assert acct.cpus[0].max_irq_off_ns == 250
        assert acct.cpus[1].max_preempt_off_ns == 1000
        assert acct.cpus[0].max_bkl_hold_ns == 777
        d = acct.to_dict()
        assert d["cpus"][0]["max_irq_off_ns"] == 250
        assert d["irq_names"] == {}

    def test_listener_dispatch(self):
        seen = []

        class Probe(TraceListener):
            def irq_entry(self, now, cpu, irq, name):
                seen.append(("irq_entry", now, cpu, irq, name))

            def frame_push(self, now, cpu, kind, label, owner):
                seen.append(("frame_push", kind))

        tp = self._tp()
        tp.listener = Probe()
        tp.enable()
        tp.irq_entry(5, 1, 60, "rtc")
        tp.frame_push(6, 0, "task", "t", "t")
        tp.timer_tick(7, 0)  # Probe does not override: default no-op
        assert seen == [("irq_entry", 5, 1, 60, "rtc"),
                        ("frame_push", "task")]

    def test_clear_resets_everything(self):
        tp = self._tp(capacity=2)
        tp.enable()
        for t in range(5):
            tp.timer_tick(t, 0)
        assert tp.dropped() == 3
        tp.clear()
        assert tp.dropped() == 0
        assert tp.hit_counts() == {}
        assert tp.events() == []
        assert tp.accounting.cpus[0].ticks == 0


class TestSimulatorIntegration:
    def test_machine_configures_rings(self, sim, machine):
        assert sim.tp.ncpus == machine.ncpus
        assert not sim.tp.enabled

    def test_enable_then_emit(self, sim, machine):
        sim.tp.enable()
        sim.tp.timer_tick(0, 0)
        assert sim.tp.hit_counts() == {"timer_tick": 1}
