"""Cancellable events for the simulation core.

The engine's event heap holds *packed integer keys* -- ``(when <<
44) | seq`` -- never handle objects, so ``heapq`` comparisons are
single C ``int`` compares with no tuple indirection and no Python
``__lt__`` dispatch.  Packing preserves the exact ``(when, seq)``
ordering contract as long as fewer than 2**44 (~1.7e13) events are
ever scheduled in one simulation, which is more than six orders of
magnitude beyond the largest campaign run.

Liveness lives in an external table (``Simulator._handles``: key ->
callback); a key absent from the table is dead and is discarded when
it surfaces.  This keeps the classic lazy-deletion contract (O(1)
cancel, O(log n) schedule) while removing both per-event comparison
dispatch and per-fire liveness stores from the hot loop.

:class:`EventHandle` is the caller-facing receipt for a one-shot; a
caller that never hands its event out keeps the bare key that
:meth:`~repro.sim.engine.Simulator.schedule` returns instead.
:class:`PeriodicHandle` is a recurring event on the same heap: its
key's table entry is the handle's bound :meth:`PeriodicHandle._fire`,
which runs the callback and pushes the next period's key, and its
:meth:`~PeriodicHandle.cancel` is the one-shot cancel.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

#: Low bits of a packed key hold the schedule sequence number; high
#: bits the timestamp.  Key order == (when, seq) lexicographic order.
SEQ_BITS = 44
SEQ_MASK = (1 << SEQ_BITS) - 1

_heappush = heapq.heappush


class EventHandle:
    """A scheduled one-shot callback that may be cancelled before firing.

    A :class:`~repro.sim.engine.Simulator` makes every handle and owns
    it.  The handle does not carry its own liveness: it is alive iff
    its key is still present in the owner's table, so firing an event
    is a single dict pop with no handle write-back.
    """

    __slots__ = ("key", "callback", "label", "_owner")

    def __init__(self, owner: Any, key: int, callback: Callable[[], Any],
                 label: Optional[str] = None) -> None:
        self.key = key
        self.callback = callback
        self.label = label
        self._owner = owner

    @property
    def when(self) -> int:
        """Absolute simulation time (ns) at which the event fires."""
        return self.key >> SEQ_BITS

    @property
    def seq(self) -> int:
        """Schedule sequence number (tie-break within a timestamp)."""
        return self.key & SEQ_MASK

    @property
    def alive(self) -> bool:
        """True until the event fires or is cancelled."""
        return self.key in self._owner._handles

    def cancel(self) -> bool:
        """Cancel the event.  Returns True if it had not yet fired.

        Goes through :meth:`~repro.sim.engine.Simulator.cancel`, the
        engine's one cancel policy.
        """
        return self._owner.cancel(self.key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "dead"
        return f"<EventHandle t={self.when} {self.label or self.callback} {state}>"


class PeriodicHandle(EventHandle):
    """A recurring callback: one heap key per period.

    ``key`` is the armed (next) fire.  Each fire draws a fresh
    sequence number from the counter one-shots draw from, *after* the
    callback returns -- so a periodic interleaves with one-shot events
    at equal timestamps exactly as the naive self-rescheduling
    ``after()`` loop it replaces did (the byte-identity contract the
    golden tests pin down).
    """

    __slots__ = ("period", "_alive", "_fire_cb")

    def __init__(self, owner: Any, period: int,
                 callback: Callable[[], Any],
                 label: Optional[str] = None) -> None:
        # Built with a placeholder key: the owner schedules the first
        # fire, which draws the real one as every one-shot does.
        super().__init__(owner, 0, callback, label)
        self.period = period
        self._alive = True
        # The table entry for every armed key, bound once: a fresh
        # bound method per fire is a GC-tracked allocation per tick.
        self._fire_cb = self._fire

    @property
    def alive(self) -> bool:
        """True until the periodic is cancelled."""
        return self._alive

    def cancel(self) -> bool:
        """Stop the stream.  Safe to call from inside the callback,
        where the fired key is already gone and only the re-arm stops."""
        if not self._alive:
            return False
        self._alive = False
        EventHandle.cancel(self)
        return True

    def _fire(self) -> None:
        """Run the callback, then arm the next period if still alive."""
        self.callback()
        if self._alive:
            owner = self._owner
            seq = owner._seq
            owner._seq = seq + 1
            key = (((self.key >> SEQ_BITS) + self.period) << SEQ_BITS) | seq
            self.key = key
            owner._handles[key] = self._fire_cb
            _heappush(owner._heap, key)

    def set_period(self, period_ns: int) -> None:
        """Change the period; takes effect at the next re-arm, like
        reprogramming a hardware reload register mid-cycle."""
        if period_ns <= 0:
            raise ValueError(f"periodic {self.label or self.callback}: "
                             f"period must be positive, got {period_ns}")
        self.period = period_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self._alive else "dead"
        return (f"<PeriodicHandle t={self.when} period={self.period} "
                f"{self.label or self.callback} {state}>")
