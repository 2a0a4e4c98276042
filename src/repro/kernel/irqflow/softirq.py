"""Softirq (bottom-half) work queues.

Hardirq handlers do the minimum and defer the bulk of their work --
protocol processing for received packets, block-request completion,
timer-wheel expiry -- to softirqs run at interrupt exit.  The paper's
central observation about the RedHawk RTC latency tail (section 6.2)
is that these bottom halves "sometimes executed for several
milliseconds" while having preempted a spinlock holder.

Each CPU has one :class:`SoftirqQueue`: a deque of work items per
vector, drained in vector-priority order.  How much of it runs at
interrupt exit (versus being deferred to ksoftirqd) is a kernel config
knob -- unbounded on the vanilla kernel, bounded on RedHawk.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable, Deque, Optional, Tuple


class SoftirqVector(enum.IntEnum):
    """Softirq vectors in their 2.4 priority order (lowest runs first)."""

    HI = 0
    TIMER = 1
    NET_TX = 2
    NET_RX = 3
    BLOCK = 4
    TASKLET = 5


#: The vectors in priority order.  The drain loops walk this tuple:
#: iterating the enum class or hashing its members runs Python-level
#: enum code on every call.
_VECTORS = tuple(SoftirqVector)

#: A queued bottom-half: (work_ns, completion_action_or_None).
WorkItem = Tuple[int, Optional[Callable[[], None]]]


class SoftirqQueue:
    """Per-CPU pending softirq work."""

    def __init__(self, cpu_index: int) -> None:
        self.cpu_index = cpu_index
        #: One deque per vector, indexed by the vector's value.
        self._queues: Tuple[Deque[WorkItem], ...] = tuple(
            deque() for _ in _VECTORS)
        self.raised = 0
        self.processed = 0
        self.total_work_ns = 0

    #: Large raises are split into items of at most this much work, so
    #: drain budgets and preemption operate at packet-batch granularity
    #: rather than all-or-nothing.
    ITEM_GRANULARITY_NS = 100_000

    def raise_softirq(self, vec: SoftirqVector, work_ns: int,
                      action: Optional[Callable[[], None]] = None) -> None:
        """Queue *work_ns* of bottom-half work on this CPU.

        The completion *action* fires when the last chunk finishes.
        """
        if work_ns < 0:
            raise ValueError("softirq work must be non-negative")
        queue = self._queues[vec]
        gran = self.ITEM_GRANULARITY_NS
        while work_ns > gran:
            queue.append((gran, None))
            self.raised += 1
            work_ns -= gran
        queue.append((work_ns, action))
        self.raised += 1

    @property
    def pending(self) -> bool:
        return any(self._queues)

    def pending_work_ns(self) -> int:
        """Total queued work (drives ksoftirqd wake decisions)."""
        return sum(w for queue in self._queues for (w, _a) in queue)

    def take_next(self) -> Optional[Tuple[SoftirqVector, int,
                                          Optional[Callable[[], None]]]]:
        """Dequeue the next item in vector-priority order."""
        for vec, queue in zip(_VECTORS, self._queues):
            if queue:
                work, action = queue.popleft()
                self.processed += 1
                self.total_work_ns += work
                return (vec, work, action)
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        counts = {vec.name: len(q)
                  for vec, q in zip(_VECTORS, self._queues) if q}
        return f"<SoftirqQueue cpu{self.cpu_index} {counts}>"
