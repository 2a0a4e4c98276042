"""What the event engine costs per event, counted exactly.

The engine's speed is a property of its design: a drained one-shot is
one heap pop, one table pop and its callback, and a pending one-shot
holds no Python object of its own (its heap entry is a plain int and
its table entry the caller's callback).  Timing the engine alone by
wall clock measures the host as much as that design, so this test
counts instead.  Five shapes -- scheduling, a drain, periodic ticks,
cancel churn and a drain mixing one-shots with periodic fires -- run a
few thousand events each, and three numbers per shape are held under
ceilings that the design sets:

* Python calls per event: the ``"call"`` events of ``sys.setprofile``.
* C calls per event: its ``"c_call"`` events (``heapq.heappop``,
  ``dict.pop`` and the like).
* GC-tracked objects alive per pending event: the growth of
  ``gc.get_objects()`` across loading the shape, with collection off.

The interpreter counts all three exactly, so every run on every host
reads the same numbers.  Time, the engine layer's included, is
perfbench's: ``perfbench/run.py --trace 1`` reports each layer's self
time and call counts on the runs a user makes.
"""

import gc
import sys
from dataclasses import dataclass

import pytest

from repro.sim.engine import Simulator

#: Events per shape.
N = 4_000

#: Slack per event on every ceiling, for the constant costs a shape
#: pays once per run or per round: entering ``run()`` or
#: ``run_until()``, and cancelling the periodic streams at the end.
ALLOWANCE = 0.02

#: shape -> (Python calls per event, C calls per event, GC-tracked
#: objects per pending event) that the engine's design allows.
CEILINGS = {
    # at() and schedule(); object.__new__ for the returned handle and
    # heappush.  The handle is the caller's to drop.
    "schedule": (2, 2, 0),
    # The callback; heappop and the table's dict.pop.
    "drain": (1, 2, 0),
    # The handle's fire method and the callback; heappop, dict.pop and
    # the re-arm's heappush.  A pending periodic is its handle and the
    # bound fire method that is its table entry.
    "periodic": (2, 3, 2),
    # A cancelled one-shot: after(), schedule(), the handle's cancel()
    # and the engine's (4 Python); object.__new__, heappush, dict.pop,
    # and heappop plus dict.pop when its dead key surfaces (5 C).  The
    # churn leaves nothing pending, so its third number is the objects
    # the whole churn leaves alive, per event.
    "cancel churn": (4, 5, 0),
    # Half one-shots (1 and 2), half periodic fires (2 and 3).
    "mixed drain": (1.5, 2.5, 0),
}

METRICS = ("Python calls per event", "C calls per event",
           "live objects per pending event")


def _null():
    return None


def _scattered(n, horizon):
    """*n* event times in [0, horizon) from a fixed 63-bit LCG."""
    state = 12345
    out = []
    for _ in range(n):
        state = (state * 6364136223846793005
                 + 1442695040888963407) & ((1 << 63) - 1)
        out.append(state % horizon)
    return tuple(out)


class _OneShots:
    """*n* scattered one-shots, loaded through ``at()``."""

    def __init__(self, n, horizon=10 ** 9):
        self.times = _scattered(n, horizon)

    def load(self, sim):
        at = sim.at
        cb = _null
        for when in self.times:
            at(when, cb)


class _Ticks:
    """Periodic streams that all stop after *budget* fires in total."""

    def __init__(self, periods, budget):
        self.periods = periods
        self.budget = budget
        self.fired = 0
        self.handles = []
        # Bound once, so loading allocates only what the engine does.
        self.tick = self._tick

    def _tick(self):
        self.fired += 1
        if self.fired >= self.budget:
            for handle in self.handles:
                handle.cancel()

    def load(self, sim):
        periodic = sim.periodic
        for period in self.periods:
            self.handles.append(periodic(period, self.tick))


@dataclass
class Cost:
    """One shape's counts: *events* the measured run made, the calls
    it made, and *live* GC-tracked objects over *pending* events."""

    events: int
    py_calls: int
    c_calls: int
    live: int
    pending: int

    def per_event(self):
        return (self.py_calls / self.events, self.c_calls / self.events,
                self.live / self.pending)


def _calls(run, sim):
    """``(events, Python calls, C calls)`` of ``run(sim)``."""
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(profile)
    try:
        events = run(sim)
    finally:
        sys.setprofile(None)
    # Not the engine's: the call of *run* and of setprofile(None).
    return events, counts["call"] - 1, counts["c_call"] - 1


def _live(load, sim):
    """GC-tracked objects that ``load(sim)`` leaves alive.

    A dict is tracked from its first tracked value on, so one event is
    scheduled and cancelled first: the engine's table is not counted.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        sim.cancel(sim.schedule(0, _null))
        before = len(gc.get_objects())
        load(sim)
        return len(gc.get_objects()) - before
    finally:
        if enabled:
            gc.enable()


def _drain(sim):
    fired = sim.events_fired
    sim.run()
    return sim.events_fired - fired


def _schedule():
    shots = _OneShots(N)

    def run(sim):
        shots.load(sim)
        return N

    sim = Simulator(seed=1)
    live = _live(shots.load, sim)
    pending = sim.events_pending
    return Cost(*_calls(run, Simulator(seed=1)), live, pending)


def _loaded_drain(*loaders):
    def load(sim):
        for loader in loaders:
            loader.load(sim)

    sim = Simulator(seed=1)
    live = _live(load, sim)
    pending = sim.events_pending
    return Cost(*_calls(_drain, sim), live, pending)


def _cancel_churn(batch=64):
    """Arm *batch* timers, cancel all but the first, run past them."""
    rounds = range(N // batch)
    delays = tuple(1000 + 7 * i for i in range(batch))
    empty = [None] * batch
    handles = list(empty)

    def run(sim):
        after = sim.after
        run_until = sim.run_until
        cb = _null
        for _ in rounds:
            i = 0
            for delay in delays:
                handles[i] = after(delay, cb)
                i += 1
            for handle in handles[1:]:
                handle.cancel()
            run_until(sim.now + 2000)
        handles[:] = empty
        return len(rounds) * batch

    events, py_calls, c_calls = _calls(run, Simulator(seed=1))
    live = _live(run, Simulator(seed=1))
    return Cost(events, py_calls, c_calls, live, events)


SHAPES = {
    "schedule": _schedule,
    "drain": lambda: _loaded_drain(_OneShots(N)),
    "periodic": lambda: _loaded_drain(
        _Ticks((10_000, 13_000, 17_000, 29_000, 37_000, 53_000,
                71_000, 97_000), N)),
    "cancel churn": _cancel_churn,
    # The streams' N/2 fires span about 8 ms, so the one-shots are
    # scattered over the same span and the two kinds interleave.
    "mixed drain": lambda: _loaded_drain(
        _OneShots(N // 2, horizon=N * 2_000),
        _Ticks((9_973, 14_009, 20_011, 40_009), N // 2)),
}


@pytest.mark.parametrize("shape", list(SHAPES))
def test_engine_cost_per_event_is_within_its_design(shape):
    cost = SHAPES[shape]()
    assert cost.events >= N // 2 and cost.pending > 0
    over = [f"{shape}: {value:.3f} {metric} over {cost.events:,} events, "
            f"ceiling {ceiling + ALLOWANCE:.2f}"
            for metric, value, ceiling in zip(METRICS, cost.per_event(),
                                              CEILINGS[shape])
            if value > ceiling + ALLOWANCE]
    assert not over, "\n".join(over)
