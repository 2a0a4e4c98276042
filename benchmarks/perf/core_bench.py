"""The microbenchmark bodies: schedule, drain, periodic, cancel churn.

Each body takes a simulator instance (either the live
:class:`repro.sim.engine.Simulator` or the frozen
:class:`benchmarks.perf.legacy_core.LegacySimulator` -- both expose
``at``/``after``/``run``/``step``) and times its own hot region with
``perf_counter``, returning ``(elapsed_s, events)`` so the harness can
convert wall-clock into events/sec.  Setup work that is not the
subsystem under measurement (input generation, pre-loading the heap
for a drain) stays outside the timed region for both engines.

Event times come from a tiny inline LCG rather than the simulator's
RNG registry: the legacy copy has no RNG, and the benchmark should
measure the event loop, not stream hashing.
"""

from __future__ import annotations

import time
from typing import Callable, Tuple

#: Multiplier/increment of a minimal 63-bit LCG (deterministic times).
_LCG_MUL = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 63) - 1


def _times(n: int, horizon: int, seed: int = 12345) -> list:
    state = seed
    out = []
    for _ in range(n):
        state = (state * _LCG_MUL + _LCG_INC) & _LCG_MASK
        out.append(state % horizon)
    return out


def schedule_body(sim, n: int) -> Tuple[float, int]:
    """Time n ``at()`` calls: handle allocation + queue insertion.

    This is the enqueue half of the hot path; it is reported separately
    from the drain so the (allocation-bound) schedule cost cannot hide
    inside the drain number, nor vice versa.
    """
    times = _times(n, horizon=10 ** 9)
    cb = _null_callback
    at = sim.at
    start = time.perf_counter()
    for when in times:
        at(when, cb)
    elapsed = time.perf_counter() - start
    return elapsed, n


def drain_body(sim, n: int) -> Tuple[float, int]:
    """Pre-load n scattered one-shots, then time draining them all.

    The drain loop is the paper-figure hot path in miniature: every
    interrupt delivery, context-switch completion and sleep expiry is
    an entry popped, liveness-checked and dispatched exactly once.
    """
    cb = _null_callback
    at = sim.at
    for when in _times(n, horizon=10 ** 9):
        at(when, cb)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return elapsed, n


def periodic_body(sim, ticks: int) -> Tuple[float, int]:
    """Drive 8 free-running periodic sources for *ticks* total fires.

    On the live core the sources use the ``periodic()``
    primitive; on the legacy core (or any simulator without it) they
    fall back to the naive self-rescheduling ``after()`` idiom, which
    is exactly what the pre-optimization devices did.
    """
    periods = (10_000, 13_000, 17_000, 29_000, 37_000, 53_000,
               71_000, 97_000)
    fired = [0]
    budget = ticks

    make_periodic = getattr(sim, "periodic", None)
    if make_periodic is not None:
        handles = []

        def tick() -> None:
            fired[0] += 1
            if fired[0] >= budget:
                for handle in handles:
                    handle.cancel()

        for period in periods:
            handles.append(make_periodic(period, tick))
    else:
        def arm(period: int) -> None:
            sim.after(period, lambda: fire(period))

        def fire(period: int) -> None:
            fired[0] += 1
            if fired[0] < budget:
                arm(period)

        for period in periods:
            arm(period)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return elapsed, fired[0]


def cancel_churn_body(sim, n: int) -> Tuple[float, int]:
    """Repeatedly arm-and-disarm timers with a trickle of real fires.

    Models timeout-style usage (nanosleep guards, NIC coalescing):
    most scheduled events are cancelled before expiry, stressing lazy
    deletion and compaction.  Scheduling and cancelling ARE the
    workload here, so the whole loop is timed.
    """
    cb = _null_callback
    batch = 64
    rounds = max(1, n // batch)
    start = time.perf_counter()
    for _ in range(rounds):
        handles = [sim.after(1000 + 7 * i, cb) for i in range(batch)]
        for handle in handles[1:]:
            handle.cancel()
        # One survivor per batch keeps time advancing.
        sim.run_until(sim.now + 2000)
    elapsed = time.perf_counter() - start
    return elapsed, rounds * batch


def batched_drain_body(sim, n: int) -> Tuple[float, int]:
    """A mixed one-shot/periodic drain.

    Half the events are pre-loaded scattered one-shots and the other
    half are periodic fires interleaved among them, so the drain
    alternates between the two kinds of event constantly.  On the
    legacy core the periodic sources fall back to the naive
    self-rescheduling ``after()`` idiom.
    """
    cb = _null_callback
    oneshots = n // 2
    at = sim.at
    for when in _times(oneshots, horizon=10 ** 9):
        at(when, cb)
    periods = (9_973, 14_009, 20_011, 40_009)
    budget = n - oneshots
    fired = [0]

    make_periodic = getattr(sim, "periodic", None)
    if make_periodic is not None:
        handles = []

        def tick() -> None:
            fired[0] += 1
            if fired[0] >= budget:
                for handle in handles:
                    handle.cancel()

        for period in periods:
            handles.append(make_periodic(period, tick))
    else:
        def arm(period: int) -> None:
            sim.after(period, lambda: fire(period))

        def fire(period: int) -> None:
            fired[0] += 1
            if fired[0] < budget:
                arm(period)

        for period in periods:
            arm(period)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return elapsed, oneshots + fired[0]


def _null_callback() -> None:
    return None


# ----------------------------------------------------------------------
# Harness helpers
# ----------------------------------------------------------------------
def time_body(make_sim: Callable[[], object],
              body: Callable[[object, int], Tuple[float, int]],
              n: int, repeats: int = 3) -> Tuple[float, int]:
    """Best-of-*repeats* of a self-timing body; returns (s, events)."""
    best = float("inf")
    events = 0
    for _ in range(repeats):
        sim = make_sim()
        elapsed, events = body(sim, n)
        best = min(best, elapsed)
    return best, events
