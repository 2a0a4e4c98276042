"""Unit tests for the event engine."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.errors import SchedulingInPastError, SimulationStalledError


def _trace_schedule(sim, log):
    """An adversarial mixed schedule; appends (tag, now) to *log*.

    Returns the list of periodic handles (grown when callbacks arm
    more) so callers can cancel the streams and drain.
    """
    periodics = []

    def note(tag):
        return lambda: log.append((tag, sim.now))

    # One-shots colliding with periodic fires at t=100, 200, 300.
    periodics.append(sim.periodic(100, note("p100"), label="p100"))
    sim.at(100, note("a@100"))
    sim.at(200, note("a@200"))
    q = sim.periodic(150, note("p150"), label="p150")
    periodics.append(q)

    # A callback that schedules more work between periodic fires.
    def chain():
        log.append(("chain", sim.now))
        sim.after(5, note("chained+5"))
        sim.after(175, note("chained+175"))
    sim.at(120, chain)

    # A callback that cancels a periodic mid-run.
    def killer():
        log.append(("killer", sim.now))
        q.cancel()
    sim.at(290, killer)

    # A callback that arms a *new* periodic.
    def armer():
        log.append(("armer", sim.now))
        periodics.append(sim.periodic(7, note("late-p7"), label="late-p7"))
    sim.at(301, armer)

    # Cancelled one-shot noise (lazy deletion must skip these).
    doomed = [sim.after(140 + i, note("doomed")) for i in range(20)]
    for handle in doomed:
        handle.cancel()
    return periodics


def _history(advance):
    """Run the adversarial schedule with *advance*; return what it saw.

    Every run mode must fire the schedule identically.
    """
    sim = Simulator(seed=7)
    log = []
    periodics = _trace_schedule(sim, log)

    def stop():
        for handle in periodics:
            handle.cancel()
    sim.at(460, stop)  # ends the free-running streams
    advance(sim)
    return log, sim.now, sim.events_fired


def _by_step(sim):
    while sim.step():
        pass


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.at(30, lambda: order.append("c"))
        sim.at(10, lambda: order.append("a"))
        sim.at(20, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fires_in_scheduling_order(self, sim):
        order = []
        for tag in "abcde":
            sim.at(5, lambda t=tag: order.append(t))
        sim.run()
        assert order == list("abcde")

    def test_after_is_relative(self, sim):
        sim.at(100, lambda: sim.after(50, lambda: None, label="x"))
        sim.run()
        assert sim.now == 150

    def test_cannot_schedule_in_past(self, sim):
        sim.at(100, lambda: None)
        sim.run()
        with pytest.raises(SchedulingInPastError):
            sim.at(50, lambda: None)

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SchedulingInPastError):
            sim.after(-1, lambda: None)

    def test_clock_advances_to_event_time(self, sim):
        sim.at(77, lambda: None)
        sim.step()
        assert sim.now == 77


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        handle = sim.at(10, lambda: fired.append(1))
        assert handle.cancel() is True
        sim.run()
        assert fired == []

    def test_double_cancel_returns_false(self, sim):
        handle = sim.at(10, lambda: None)
        assert handle.cancel() is True
        assert handle.cancel() is False

    def test_cancel_after_fire_returns_false(self, sim):
        handle = sim.at(10, lambda: None)
        sim.run()
        assert handle.cancel() is False

    def test_peek_skips_cancelled(self, sim):
        first = sim.at(10, lambda: None)
        sim.at(20, lambda: None)
        first.cancel()
        assert sim.peek_time() == 20

    def test_pending_count_excludes_cancelled(self, sim):
        handles = [sim.at(10 + i, lambda: None) for i in range(5)]
        handles[0].cancel()
        handles[3].cancel()
        assert sim.events_pending == 3


class TestRunModes:
    def test_run_until_inclusive(self, sim):
        fired = []
        sim.at(100, lambda: fired.append(100))
        sim.at(101, lambda: fired.append(101))
        sim.run_until(100)
        assert fired == [100]
        assert sim.now == 100

    def test_run_until_advances_clock_past_last_event(self, sim):
        sim.at(10, lambda: None)
        sim.run_until(500)
        assert sim.now == 500

    def test_run_steps_limits_count(self, sim):
        fired = []
        for i in range(10):
            sim.at(i + 1, lambda i=i: fired.append(i))
        assert sim.run_steps(4) == 4
        assert fired == [0, 1, 2, 3]

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_require_events_raises_when_empty(self, sim):
        with pytest.raises(SimulationStalledError):
            sim.require_events()

    def test_events_fired_counter(self, sim):
        for i in range(7):
            sim.at(i + 1, lambda: None)
        sim.run()
        assert sim.events_fired == 7

    def test_events_always_fire_even_at_huge_times(self, sim):
        fired = []
        sim.at(1 << 60, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1 << 60]

    def test_exception_in_callback_leaves_consistent_state(self, sim):
        fired = []
        sim.periodic(100, lambda: fired.append(sim.now))

        def boom():
            raise RuntimeError("callback exploded")
        sim.at(250, boom)
        with pytest.raises(RuntimeError, match="callback exploded"):
            sim.run_until(1000)
        assert sim.events_pending >= 1
        sim.run_until(1000)
        assert fired == [100, 200, 300, 400, 500, 600, 700, 800, 900, 1000]

    def test_run_until_advances_clock_past_last_periodic_fire(self, sim):
        fired = []
        sim.at(10, lambda: None)
        sim.periodic(300, lambda: fired.append(sim.now))
        sim.run_until(1000)
        assert sim.now == 1000
        assert fired == [300, 600, 900]
        assert sim.peek_time() == 1200

    def test_step_matches_run(self):
        stepped = _history(_by_step)
        assert stepped[1:] == (460, 35)
        assert _history(Simulator.run) == stepped

    def test_run_until_then_drain_matches_step(self):
        def by_run_until(sim):
            sim.run_until(460)
            sim.run()
        assert _history(by_run_until) == _history(_by_step)

    def test_interleaved_run_until_matches_step(self):
        def by_run_until(sim):
            for t in (99, 100, 101, 149, 290, 300, 455):
                sim.run_until(t)
                assert sim.now == t
            sim.run()
        assert _history(by_run_until) == _history(_by_step)


class TestEventChaining:
    def test_event_scheduling_more_events(self, sim):
        """Periodic self-rescheduling pattern used by devices."""
        count = []

        def tick():
            count.append(sim.now)
            if len(count) < 5:
                sim.after(10, tick)

        sim.after(10, tick)
        sim.run()
        assert count == [10, 20, 30, 40, 50]

    def test_zero_delay_event_fires_at_same_time(self, sim):
        times = []
        sim.at(10, lambda: sim.after(0, lambda: times.append(sim.now)))
        sim.run()
        assert times == [10]


class TestHeapHygiene:
    def test_mass_cancel_compacts_heap(self, sim):
        handles = [sim.at(10 + i, lambda: None) for i in range(200)]
        for h in handles[:150]:
            h.cancel()
        # Compaction keeps the dead fraction at or below half, without
        # waiting for pops to reach the cancelled entries.
        assert len(sim._heap) < 200
        assert sim._dead <= len(sim._heap) // 2
        assert sim.events_pending == 50

    def test_small_heaps_are_not_compacted(self, sim):
        handles = [sim.at(10 + i, lambda: None) for i in range(10)]
        for h in handles[:8]:
            h.cancel()
        # Below the floor the dead entries just wait to be popped.
        assert len(sim._heap) == 10
        assert sim.events_pending == 2

    def test_compaction_preserves_firing_order(self, sim):
        fired = []
        handles = [sim.at(10 + i, lambda i=i: fired.append(i))
                   for i in range(128)]
        for h in handles[::2]:
            h.cancel()
        sim.run()
        assert fired == list(range(1, 128, 2))

    def test_pending_counter_tracks_fires_and_cancels(self, sim):
        handles = [sim.at(10 + i, lambda: None) for i in range(100)]
        assert sim.events_pending == 100
        for h in handles[:30]:
            h.cancel()
        assert sim.events_pending == 70
        sim.run_steps(20)
        assert sim.events_pending == 50
        sim.run()
        assert sim.events_pending == 0
        assert sim.events_fired == 70

    def test_cancel_popped_handle_does_not_corrupt_counters(self, sim):
        handle = sim.at(10, lambda: None)
        sim.run()
        assert handle.cancel() is False
        assert sim.events_pending == 0
        assert sim._dead == 0

    def test_repeated_schedule_cancel_cycles_stay_bounded(self, sim):
        # A device repeatedly arming and disarming a timer must not
        # grow the heap without bound.
        for _ in range(50):
            handles = [sim.after(100 + i, lambda: None) for i in range(64)]
            for h in handles:
                h.cancel()
        assert sim.events_pending == 0
        assert len(sim._heap) < 128


class TestDeterminism:
    def test_same_seed_same_streams(self):
        a = Simulator(seed=99).rng.stream("x").integers(0, 1000, 10)
        b = Simulator(seed=99).rng.stream("x").integers(0, 1000, 10)
        assert list(a) == list(b)

    def test_different_seed_differs(self):
        a = Simulator(seed=1).rng.stream("x").integers(0, 10**9)
        b = Simulator(seed=2).rng.stream("x").integers(0, 10**9)
        assert a != b
