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

:class:`EventHandle` is the caller-facing receipt for a one-shot.
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

#: Compact the heap only once it is at least this large; below that
#: the lazy-deletion overhead is noise and compaction would just churn.
COMPACT_FLOOR = 64

_heappush = heapq.heappush


class EventHandle:
    """A scheduled one-shot callback that may be cancelled before firing.

    The handle does not carry its own liveness: an engine-owned handle
    is alive iff its key is still present in the owner's table, so
    firing an event is a single dict pop with no handle write-back.  A
    handle constructed without an owner (unit tests, ad-hoc use) tracks
    liveness by flipping its key's sign instead.
    """

    __slots__ = ("key", "callback", "label", "_owner")

    def __init__(self, when: int, seq: int, callback: Callable[[], Any],
                 label: Optional[str] = None) -> None:
        self.key = (when << SEQ_BITS) | seq
        self.callback = callback
        self.label = label
        self._owner = None  # set by the scheduling Simulator

    @property
    def when(self) -> int:
        """Absolute simulation time (ns) at which the event fires."""
        key = self.key
        if key < 0:
            key = ~key
        return key >> SEQ_BITS

    @property
    def seq(self) -> int:
        """Schedule sequence number (tie-break within a timestamp)."""
        key = self.key
        if key < 0:
            key = ~key
        return key & SEQ_MASK

    @property
    def alive(self) -> bool:
        """True until the event fires or is cancelled."""
        owner = self._owner
        if owner is not None:
            return self.key in owner._handles
        return self.key >= 0

    def cancel(self) -> bool:
        """Cancel the event.  Returns True if it had not yet fired.

        This is the engine's only cancel policy: drop the key from the
        liveness table and count a dead heap entry; once dead entries
        outnumber live ones the owner compacts its heap.  The
        compaction test runs every 32nd dead entry -- the bound only
        loosens by a constant, and mass-cancel storms skip 31 ``len()``
        calls out of 32.
        """
        owner = self._owner
        if owner is not None:
            if owner._handles.pop(self.key, None) is None:
                return False  # already fired or already cancelled
            dead = owner._dead + 1
            owner._dead = dead
            if not dead & 31:
                heap = owner._heap
                if dead > len(heap) // 2 and len(heap) >= COMPACT_FLOOR:
                    owner._compact()
            return True
        if self.key < 0:
            return False
        self.key = ~self.key
        return True

    def _consume(self) -> bool:
        """Mark an *unowned* handle as fired (test aid)."""
        if self.key < 0:
            return False
        self.key = ~self.key
        return True

    def __lt__(self, other: "EventHandle") -> bool:
        # Retained for callers that sort handles; the engine's heap
        # compares bare packed keys instead.
        return self.key < other.key

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

    def __init__(self, when: int, seq: int, period: int,
                 callback: Callable[[], Any],
                 label: Optional[str] = None) -> None:
        super().__init__(when, seq, callback, label)
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
