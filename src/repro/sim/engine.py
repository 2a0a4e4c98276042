"""The discrete-event simulation core.

:class:`Simulator` owns the clock, the event heap, the master RNG
registry and the trace buffer.  Hardware and kernel objects schedule
zero-argument callbacks at absolute or relative times and may cancel
them through the returned :class:`~repro.sim.events.EventHandle`, or
install recurring callbacks via :meth:`Simulator.periodic`.

The engine is intentionally minimal: all *semantics* (preemption,
interrupts, locking) live in the hardware/kernel layers.  Keeping the
engine dumb makes its behaviour easy to verify exhaustively, which the
rest of the system then inherits.

Hot-path design (the perf suite in ``benchmarks/perf`` tracks this):

* One heap holds every pending event as a packed ``(when << 44) |
  seq`` integer key, so ``heapq`` comparisons are single C int
  compares -- no handle objects on the heap, no tuple indirection, no
  Python ``__lt__``.  Liveness is an external dict (key -> callback);
  absence means cancelled, so firing needs no handle write-back.
* A periodic is one key at a time on that heap.  Its callback entry is
  the handle's bound fire method, which runs the user callback and
  then pushes the next period's key with a fresh seq from the shared
  counter: exactly the order the naive self-rescheduling ``after()``
  idiom produced, which is what keeps figure outputs byte-identical.
  The paper's machines keep a handful of such timers pending (the
  per-CPU tick, RTC, RCIM), so a dedicated timer structure would not
  pay for itself.
* :meth:`Simulator.run`, :meth:`Simulator.run_until` and
  :meth:`Simulator.step` share one dispatch loop.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Callable, List, Optional

from repro.observe.tracepoints import Tracepoints
from repro.sim.errors import SchedulingInPastError, SimulationStalledError
from repro.sim.events import EventHandle, PeriodicHandle, SEQ_BITS
from repro.sim.rng import DEFAULT_SEED, RngStreams
from repro.sim.trace import TraceBuffer

_heappush = heapq.heappush
_heappop = heapq.heappop
_new_handle = EventHandle.__new__
_periodic_fire = PeriodicHandle._fire

#: A key above every schedulable one (its timestamp, 2**4052 ns, is
#: far past any simulated horizon), so run() can share run_until()'s
#: loop.  An int bound keeps the per-event check an int compare.
_NEVER = 1 << 4096


class Simulator:
    """Event heap plus clock.

    Parameters
    ----------
    seed:
        Master seed for all named random substreams.  ``None`` uses the
        repo-wide :data:`repro.sim.rng.DEFAULT_SEED` so that a run's
        seed is stated in exactly one place (normally the
        ``ScenarioSpec`` driving the experiment).
    trace_capacity:
        Ring-buffer size for the (normally disabled) trace facility.
    """

    def __init__(self, seed: Optional[int] = None,
                 trace_capacity: int = 65536) -> None:
        self.now: int = 0
        self._heap: List[int] = []
        self._handles: dict = {}  # packed key -> callback (presence = alive)
        self._seq = 0
        self._events_fired = 0
        self._dead = 0   # cancelled entries not yet popped or compacted
        self.rng = RngStreams(DEFAULT_SEED if seed is None else seed)
        self.trace = TraceBuffer(trace_capacity)
        # Typed tracepoint registry (disabled; the machine sizes its
        # per-CPU rings via tp.configure() once the CPU count is known).
        self.tp = Tracepoints()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(self, when: int, callback: Callable[[], None],
           label: Optional[str] = None) -> EventHandle:
        """Schedule *callback* at absolute time *when* (ns)."""
        if when < self.now:
            raise SchedulingInPastError(
                f"cannot schedule {label or callback} at t={when} < now={self.now}")
        seq = self._seq
        self._seq = seq + 1
        key = (when << SEQ_BITS) | seq
        # Inlined EventHandle construction: this is the hottest
        # allocation in the simulator, worth skipping a stack frame.
        handle = _new_handle(EventHandle)
        handle.key = key
        handle.callback = callback
        handle.label = label
        handle._owner = self
        self._handles[key] = callback
        _heappush(self._heap, key)
        return handle

    def after(self, delay: int, callback: Callable[[], None],
              label: Optional[str] = None) -> EventHandle:
        """Schedule *callback* *delay* ns from now (delay >= 0)."""
        if delay < 0:
            raise SchedulingInPastError(
                f"negative delay {delay} for {label or callback}")
        # Inlined at(): delay >= 0 already implies when >= now, and
        # relative scheduling is the kernel/hw layers' hottest idiom.
        seq = self._seq
        self._seq = seq + 1
        key = ((self.now + delay) << SEQ_BITS) | seq
        handle = _new_handle(EventHandle)
        handle.key = key
        handle.callback = callback
        handle.label = label
        handle._owner = self
        self._handles[key] = callback
        _heappush(self._heap, key)
        return handle

    def periodic(self, period: int, callback: Callable[[], None], *,
                 first_delay: Optional[int] = None,
                 first_at: Optional[int] = None,
                 label: Optional[str] = None) -> PeriodicHandle:
        """Install a recurring callback.

        Fires first at ``first_at`` (absolute), or ``now + first_delay``
        if given, else ``now + period``; then every ``period`` ns until
        :meth:`PeriodicHandle.cancel`.  Each fire draws a fresh
        sequence number after the callback returns, so ties against
        one-shots resolve exactly as if the callback had re-scheduled
        itself with :meth:`after`.
        """
        if period <= 0:
            raise ValueError(
                f"periodic {label or callback}: period must be positive, "
                f"got {period}")
        if first_at is not None:
            first = first_at
        elif first_delay is not None:
            first = self.now + first_delay
        else:
            first = self.now + period
        if first < self.now:
            raise SchedulingInPastError(
                f"cannot schedule {label or callback} at t={first} "
                f"< now={self.now}")
        seq = self._seq
        self._seq = seq + 1
        handle = PeriodicHandle(first, seq, period, callback, label)
        handle._owner = self
        self._handles[handle.key] = handle._fire_cb
        _heappush(self._heap, handle.key)
        return handle

    # ------------------------------------------------------------------
    # Queue hygiene
    # ------------------------------------------------------------------
    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify.

        heapify preserves the key-ordering contract, so firing order is
        unaffected; only the dead weight goes away.  The list is
        filtered *in place*: the run loop holds a local reference to
        it, so its identity must survive a compaction triggered from
        inside a callback.
        """
        heap = self._heap
        handles = self._handles
        heap[:] = [k for k in heap if k in handles]
        heapq.heapify(heap)
        self._dead = 0

    def _discard_dead_head(self) -> None:
        """Pop cancelled entries sitting at the top of the heap."""
        heap = self._heap
        handles = self._handles
        while heap and heap[0] not in handles:
            _heappop(heap)
            self._dead -= 1

    def _periodics(self) -> List[PeriodicHandle]:
        """The armed periodics: handles whose fire method is pending."""
        return [cb.__self__ for cb in self._handles.values()
                if getattr(cb, "__func__", None) is _periodic_fire]

    def cancel_pending(self) -> int:
        """Cancel every scheduled one-shot and periodic.

        A teardown aid for harness code and tests that want to drain a
        bench without firing whatever device timers remain; returns the
        number of events cancelled.
        """
        for handle in self._periodics():
            handle._alive = False
        count = len(self._handles)
        self._handles.clear()
        self._heap.clear()
        self._dead = 0
        return count

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def peek_time(self) -> Optional[int]:
        """Timestamp of the next live event, or None if none remain."""
        self._discard_dead_head()
        heap = self._heap
        return (heap[0] >> SEQ_BITS) if heap else None

    def pending_summary(self, max_labels: int = 8) -> str:
        """Human-readable snapshot of what is still scheduled.

        Counts the armed periodics and names them by label (timer
        ticks, device pacers, fault-injector pacers), with a count
        where several share a label; every other pending event is a
        one-shot, whose labels are not retained on the hot path, so
        they can only be counted.  The two counts add up to
        :attr:`events_pending`.  Used by stall diagnostics to say
        *what* was (or was not) left running.
        """
        periodics = self._periodics()
        counts = Counter(h.label or "<unlabelled>" for h in periodics)
        labels = [label if n == 1 else f"{label} x{n}"
                  for label, n in sorted(counts.items())]
        shown = ", ".join(labels[:max_labels]) or "none"
        if len(labels) > max_labels:
            shown += f", ... ({len(labels) - max_labels} more)"
        return (f"{len(periodics)} periodic ({shown}); "
                f"{len(self._handles) - len(periodics)} one-shot")

    def _advance(self, limit: int) -> None:
        """Fire every event with packed key <= *limit*, in key order."""
        heap = self._heap
        pop = _heappop
        get = self._handles.pop
        fired = 0
        try:
            while heap:
                key = pop(heap)
                if key > limit:
                    _heappush(heap, key)  # not due yet: put it back
                    break
                cb = get(key, None)
                if cb is None:
                    self._dead -= 1
                    continue
                self.now = key >> SEQ_BITS
                fired += 1
                cb()
        finally:
            self._events_fired += fired

    def step(self) -> bool:
        """Fire the next event.  Returns False if none remain."""
        self._discard_dead_head()
        heap = self._heap
        if not heap:
            return False
        # Every key scheduled from here on is larger than the head's
        # (seq only grows), so this fires exactly one event.
        self._advance(heap[0])
        return True

    def run_until(self, when: int) -> None:
        """Fire events up to and including time *when*.

        The clock is left at *when* even if the last event fired
        earlier; this gives callers a consistent "the simulated world
        has reached t" view.
        """
        self._advance(((when + 1) << SEQ_BITS) - 1)
        if when > self.now:
            self.now = when

    def run(self) -> None:
        """Fire events until the heap drains."""
        self._advance(_NEVER)

    def run_steps(self, count: int) -> int:
        """Fire at most *count* events; returns the number fired."""
        fired = 0
        while fired < count and self.step():
            fired += 1
        return fired

    def require_events(self) -> None:
        """Raise if the simulation has no future events (deadlock guard)."""
        if self.peek_time() is None:
            raise SimulationStalledError(f"no events pending at t={self.now}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def events_fired(self) -> int:
        """Total number of events executed so far."""
        return self._events_fired

    @property
    def events_pending(self) -> int:
        """Number of live events still scheduled (O(1))."""
        return len(self._handles)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Simulator t={self.now} fired={self._events_fired} "
                f"pending={self.events_pending}>")
