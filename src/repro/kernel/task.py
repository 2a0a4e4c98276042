"""Task structures: the simulated ``task_struct``.

Tasks carry scheduling identity (policy, priority, nice), CPU affinity
(requested and shield-rewritten effective masks), execution state (the
generator body, a pending op, a partially executed compute segment),
and the kernel-mode bookkeeping the preemption model needs
(``preempt_count``, syscall depth).
"""

from __future__ import annotations

import enum
from typing import Any, Generator, Optional, TYPE_CHECKING

from repro.core.affinity import CpuMask

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.ops import Compute, Op
    from repro.kernel.sync.waitqueue import WaitQueue


class TaskState(enum.Enum):
    """Lifecycle states (TASK_RUNNING is split into READY/RUNNING)."""

    NEW = "new"
    READY = "ready"          # on a runqueue, not on a CPU
    RUNNING = "running"      # current on some CPU
    BLOCKED = "blocked"      # on a wait queue or sleeping
    EXITED = "exited"


class SchedPolicy(enum.Enum):
    """POSIX scheduling policies."""

    OTHER = "SCHED_OTHER"
    FIFO = "SCHED_FIFO"
    RR = "SCHED_RR"

    @property
    def realtime(self) -> bool:
        return self is not _OTHER


#: Enum members this module's functions read, bound once (see
#: tests/test_hot_enum_reads.py).
_NEW = TaskState.NEW
_READY = TaskState.READY
_RUNNING = TaskState.RUNNING
_OTHER = SchedPolicy.OTHER

#: Priority value of an idle CPU; every task beats it.
IDLE_PRIO = -1


class Task:
    """One schedulable entity."""

    def __init__(self, pid: int, name: str,
                 body: Generator["Op", Any, Any],
                 policy: SchedPolicy = SchedPolicy.OTHER,
                 rt_prio: int = 0, nice: int = 0,
                 affinity: Optional[CpuMask] = None,
                 kernel_thread: bool = False) -> None:
        self.pid = pid
        self.name = name
        self.body = body
        self.policy = policy
        self.rt_prio = rt_prio
        self.nice = nice
        self.kernel_thread = kernel_thread

        self.requested_affinity = affinity if affinity is not None else CpuMask(0)
        self.effective_affinity = self.requested_affinity

        self.state = _NEW
        self.on_cpu: Optional[int] = None      # CPU index while RUNNING
        self.last_cpu = 0

        # Kernel-mode bookkeeping.
        self.preempt_count = 0
        self.irq_disable_count = 0
        self.in_syscall = 0
        self.syscall_name: Optional[str] = None
        self.mm_locked = False

        # Execution continuation state.
        self.pending_op: Optional["Op"] = None       # op not yet executed
        self.partial: Optional[tuple] = None         # (remaining_ns, Compute)
        self.send_value: Any = None                  # result for next step
        self.waiting_on: Optional["WaitQueue"] = None
        self.sleep_event = None
        self.current_compute: Optional["Compute"] = None
        self.frame = None              # active TASK ExecFrame, if any
        self.spin_frame = None         # active SPIN ExecFrame, if any
        self.spin_started = 0
        self.expired_on_tick = False   # O(1): requeue on the expired array
        self.rr_requeue_tail = False   # RR expiry: go behind equal-prio peers

        # SCHED_OTHER / SCHED_RR accounting.
        self.time_slice = 0
        self.counter = 0            # 2.4 goodness counter (in ticks)

        # Statistics.
        self.switches = 0
        self.user_ns = 0
        self.kernel_ns = 0
        self.exit_code: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def runnable(self) -> bool:
        return self.state in (_READY, _RUNNING)

    @property
    def in_kernel(self) -> bool:
        """True while executing kernel code (syscall or kernel thread)."""
        return self.in_syscall > 0 or self.kernel_thread

    def effective_prio(self) -> int:
        """Comparable priority; larger wins.

        Real-time policies occupy 100..199 (100 + rt_prio); timesharing
        tasks occupy 0..39 based on nice.  This mirrors the strict
        separation both the 2.4 and O(1) schedulers enforce.
        """
        if self.policy.realtime:
            return 100 + self.rt_prio
        return 20 - self.nice

    def beats(self, other: Optional["Task"]) -> bool:
        """Strictly higher priority than *other* (None = idle)."""
        if other is None:
            return True
        return self.effective_prio() > other.effective_prio()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Task {self.pid}:{self.name} {self.policy.value} "
                f"{self.state.value} cpu={self.on_cpu}>")
