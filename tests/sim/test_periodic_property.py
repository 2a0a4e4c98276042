"""Property test: ``Simulator.periodic()`` is observationally
identical to the naive self-rescheduling ``after()`` idiom it replaced.

The contract (see ``Simulator.periodic``): each fire pushes the next
period's key with a fresh sequence number drawn *after* the callback
returns -- exactly the point where the old idiom's re-arm call sat.
If that holds, any mix of periodic timers, one-shot events (including
exact-time ties) and mid-stream cancellations must produce the same
firing log under both implementations.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator


def _run_naive(timers, oneshots, cancels, horizons):
    """Periodic timers as self-rescheduling after() one-shots."""
    sim = Simulator(seed=1)
    log = []
    fires = [0] * len(timers)
    pending = {}

    def make_cb(i, period, limit):
        def cb():
            log.append(("p", i, sim.now))
            fires[i] += 1
            if limit is None or fires[i] < limit:
                # Re-arm as the last statement, the classic idiom.
                pending[i] = sim.after(period, cb)
        return cb

    for i, (first, period, limit) in enumerate(timers):
        pending[i] = sim.at(first, make_cb(i, period, limit))
    for j, t in enumerate(oneshots):
        sim.at(t, lambda j=j: log.append(("o", j, sim.now)))
    for t, idx in cancels:
        sim.at(t, lambda idx=idx: pending[idx].cancel())
    for h in horizons:
        sim.run_until(h)
    return log


def _run_periodic(timers, oneshots, cancels, horizons):
    """The same scenario through Simulator.periodic()."""
    sim = Simulator(seed=1)
    log = []
    fires = [0] * len(timers)
    handles = {}

    def make_cb(i, limit):
        def cb():
            log.append(("p", i, sim.now))
            fires[i] += 1
            if limit is not None and fires[i] >= limit:
                handles[i].cancel()
        return cb

    for i, (first, period, limit) in enumerate(timers):
        handles[i] = sim.periodic(period, make_cb(i, limit),
                                  first_at=first)
    for j, t in enumerate(oneshots):
        sim.at(t, lambda j=j: log.append(("o", j, sim.now)))
    for t, idx in cancels:
        sim.at(t, lambda idx=idx: handles[idx].cancel())
    for h in horizons:
        sim.run_until(h)
    return log


_TIMER = st.tuples(st.integers(0, 40),          # first fire time
                   st.integers(1, 37),          # period
                   st.one_of(st.none(),         # fire-count limit
                             st.integers(1, 20)))

_PLAN = st.fixed_dictionaries({
    "timers": st.lists(_TIMER, min_size=1, max_size=4),
    "oneshots": st.lists(st.integers(0, 300), max_size=15),
    "cancels": st.lists(st.tuples(st.integers(0, 300),
                                  st.integers(0, 7)), max_size=4),
    "split": st.integers(0, 300),
})


class TestPeriodicEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(_PLAN)
    def test_wheel_matches_naive_rescheduling(self, plan):
        timers = plan["timers"]
        cancels = [(t, idx % len(timers)) for t, idx in plan["cancels"]]
        # Run in two chunks to exercise the run_until boundary mid-stream.
        horizons = sorted((plan["split"], 300))
        naive = _run_naive(timers, plan["oneshots"], cancels, horizons)
        periodic = _run_periodic(timers, plan["oneshots"], cancels, horizons)
        assert periodic == naive

    def test_exact_time_ties_resolve_identically(self):
        # Two periodics and one-shots all colliding at multiples of 10:
        # tie order is decided purely by sequence numbers, so this
        # pins the fresh-seq-after-callback re-arm contract.
        timers = [(10, 10, None), (10, 5, None)]
        oneshots = [10, 20, 20, 30]
        naive = _run_naive(timers, oneshots, [], [60])
        periodic = _run_periodic(timers, oneshots, [], [60])
        assert periodic == naive
        assert any(entry[0] == "o" for entry in periodic)

    def test_cancel_inside_callback_stops_rearm(self):
        timers = [(5, 7, 3)]
        naive = _run_naive(timers, [], [], [1000])
        periodic = _run_periodic(timers, [], [], [1000])
        assert periodic == naive
        assert len([e for e in periodic if e[0] == "p"]) == 3

    def test_external_cancel_matches(self):
        timers = [(0, 9, None), (4, 9, None)]
        cancels = [(30, 0), (31, 1)]
        naive = _run_naive(timers, [], cancels, [200])
        periodic = _run_periodic(timers, [], cancels, [200])
        assert periodic == naive
