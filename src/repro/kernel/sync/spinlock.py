"""Spinlocks.

Two flavours matter for the paper's analysis:

* ``spin_lock`` (``irq_disabling=False``): the critical section can be
  preempted by interrupts and, crucially, by the bottom-half work run
  at interrupt exit.  Section 6.2 traces the RedHawk RTC latency tail
  to exactly this: a holder of a file-layer lock gets preempted by
  several hundred microseconds of bottom-half activity, and the
  just-woken RTC reader spins that long on its exit path.
* ``spin_lock_irqsave`` (``irq_disabling=True``): local interrupts are
  disabled for the duration, so the hold time is bounded but interrupt
  delivery on this CPU is delayed.

Acquiring any spinlock disables preemption (raises the task's
``preempt_count``); waiters busy-wait in FIFO order, burning their CPU.
Lock state lives here; the acquire/release choreography (frame pushes,
irq masking) is the kernel's job.

Every ownership transition reports to the lock's optional ``lockdep``
observer (see :mod:`repro.analysis.lockdep`): a purely observational
hook that validates lock ordering and context invariants without
adding simulated time.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, TYPE_CHECKING

from repro.sim.errors import KernelPanic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.lockdep import LockdepValidator
    from repro.kernel.task import Task


class SpinLock:
    """A (possibly interrupt-disabling) spinlock."""

    #: Overridden by :class:`~repro.kernel.sync.bkl.BigKernelLock`;
    #: lets lockdep budget BKL hold windows separately.
    is_bkl = False

    def __init__(self, name: str, irq_disabling: bool = False) -> None:
        self.name = name
        self.irq_disabling = irq_disabling
        self.owner: Optional["Task"] = None
        self.waiters: Deque["Task"] = deque()
        self.held_since: Optional[int] = None
        #: Observational validator hook (never perturbs the simulation).
        self.lockdep: Optional["LockdepValidator"] = None
        # Statistics for reports and tests.
        self.acquisitions = 0
        self.contentions = 0
        self.total_hold_ns = 0
        self.max_hold_ns = 0
        self.total_spin_ns = 0
        self.max_spin_ns = 0

    @property
    def held(self) -> bool:
        return self.owner is not None

    def take(self, task: "Task", now: int) -> None:
        """Record *task* as owner (kernel-internal)."""
        if self.owner is not None:
            raise KernelPanic(f"{self.name}: take() while held by "
                              f"{self.owner.name}")
        self.owner = task
        self.held_since = now
        self.acquisitions += 1
        if self.lockdep is not None:
            self.lockdep.on_take(self, task, now)

    def drop(self, task: "Task", now: int) -> Optional["Task"]:
        """Release by *task*; returns the next FIFO waiter, if any."""
        if self.owner is not task:
            holder = self.owner.name if self.owner else "nobody"
            raise KernelPanic(
                f"{self.name}: release by {task.name} but held by {holder}")
        if self.held_since is None:
            # A panic unwound between take() and drop() and left the
            # hold timestamp cleared (e.g. force_release() during test
            # recovery).  Repair ownership without inventing a hold
            # time rather than dying on inconsistent bookkeeping.
            self.owner = None
            return None
        hold = now - self.held_since
        self.total_hold_ns += hold
        if hold > self.max_hold_ns:
            self.max_hold_ns = hold
        self.owner = None
        self.held_since = None
        if self.lockdep is not None:
            self.lockdep.on_drop(self, task, now, hold)
        if self.waiters:
            return self.waiters.popleft()
        return None

    def release(self, task: "Task", now: int) -> Optional["Task"]:
        """Sanity-checked release: panics unless *task* is the owner.

        Public counterpart of :meth:`drop` for driver/test code that
        releases a lock directly (outside the kernel's Release-op
        path); the owner check mirrors the one ``take()`` has always
        had on the acquire side.
        """
        if self.owner is not task:
            holder = self.owner.name if self.owner else "nobody"
            raise KernelPanic(
                f"{self.name}: release() by {task.name} but held by "
                f"{holder}")
        return self.drop(task, now)

    def force_release(self) -> None:
        """Reset ownership and hold bookkeeping without statistics.

        Recovery helper for panic paths: when a :class:`KernelPanic`
        unwinds while the lock is held (owner exited, release by
        non-owner detected, ...), ``held_since``/``owner``/``waiters``
        would otherwise stay stale and poison the hold-time statistics
        of any later reuse of the lock object.
        """
        self.owner = None
        self.held_since = None
        self.waiters.clear()

    def enqueue_waiter(self, task: "Task") -> None:
        self.contentions += 1
        self.waiters.append(task)
        if self.lockdep is not None:
            self.lockdep.on_contend(self, task)

    def account_spin(self, spin_ns: int) -> None:
        self.total_spin_ns += spin_ns
        if spin_ns > self.max_spin_ns:
            self.max_spin_ns = spin_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        holder = self.owner.name if self.owner else None
        return (f"<SpinLock {self.name} irq={self.irq_disabling} "
                f"owner={holder} waiters={len(self.waiters)}>")
