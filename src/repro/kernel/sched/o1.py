"""Ingo Molnar's O(1) scheduler (the 2.5 backport RedHawk ships).

Per-CPU runqueues, each with *active* and *expired* priority arrays.
An array is a bitmap of occupied priority levels plus a FIFO list per
level; pick-next finds the highest occupied bit and takes the list
head -- constant time regardless of load, which is the property the
paper's "scheduling overhead which is both constant and minimal"
sentence refers to.

Timesharing tasks whose timeslice expires move to the expired array;
when the active array drains the two arrays swap.  Real-time FIFO
tasks never expire; RR tasks round-robin within their priority level.
A CPU whose arrays are empty pulls a migratable task from the busiest
other runqueue (idle balancing).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, TYPE_CHECKING

from repro.kernel.sched.base import Scheduler
from repro.kernel.task import SchedPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.task import Task

#: Enum members this module's functions read, bound once (see
#: tests/test_hot_enum_reads.py).
_FIFO = SchedPolicy.FIFO
_RR = SchedPolicy.RR


class PrioArray:
    """Bitmap-indexed priority array."""

    def __init__(self) -> None:
        self.bitmap = 0
        self.lists: Dict[int, Deque["Task"]] = {}
        self.count = 0

    def insert(self, task: "Task", head: bool = False) -> None:
        prio = task.effective_prio()
        lst = self.lists.get(prio)
        if lst is None:
            lst = deque()
            self.lists[prio] = lst
        if head:
            lst.appendleft(task)
        else:
            lst.append(task)
        self.bitmap |= 1 << prio
        self.count += 1

    def remove(self, task: "Task") -> bool:
        prio = task.effective_prio()
        lst = self.lists.get(prio)
        if lst is None:
            return False
        try:
            lst.remove(task)
        except ValueError:
            return False
        if not lst:
            self.bitmap &= ~(1 << prio)
        self.count -= 1
        return True

    def pop_best(self) -> Optional["Task"]:
        if self.bitmap == 0:
            return None
        prio = self.bitmap.bit_length() - 1
        lst = self.lists[prio]
        task = lst.popleft()
        if not lst:
            self.bitmap &= ~(1 << prio)
        self.count -= 1
        return task

    def peek_best_prio(self) -> int:
        """Highest occupied priority (-1 when empty)."""
        return self.bitmap.bit_length() - 1

    def tasks(self) -> list:
        out = []
        for lst in self.lists.values():
            out.extend(lst)
        return out


class _RunQueue:
    """One CPU's pair of priority arrays."""

    def __init__(self) -> None:
        self.active = PrioArray()
        self.expired = PrioArray()

    @property
    def count(self) -> int:
        return self.active.count + self.expired.count

    def maybe_swap(self) -> None:
        if self.active.count == 0 and self.expired.count > 0:
            self.active, self.expired = self.expired, self.active

    def tasks(self) -> list:
        return self.active.tasks() + self.expired.tasks()


class O1Scheduler(Scheduler):
    """Per-CPU bitmap-array scheduler with idle balancing."""

    name = "o1"

    def __init__(self, kernel) -> None:
        super().__init__(kernel)
        self._rq: Dict[int, _RunQueue] = {
            i: _RunQueue() for i in range(kernel.ncpus)}
        self._where: Dict[int, int] = {}  # pid -> cpu of its runqueue

    # ------------------------------------------------------------------
    def enqueue(self, task: "Task", preempted: bool = False) -> int:
        target = self._wakeup_target(task)
        if preempted and task.last_cpu in task.effective_affinity:
            # A preempted task stays on its own runqueue; it was never
            # migrated, only pushed off the CPU.
            target = task.last_cpu
        if task.time_slice <= 0 and not task.policy.realtime:
            task.time_slice = self.kernel.config.timeslice_ticks
        if getattr(task, "expired_on_tick", False):
            task.expired_on_tick = False
            self._rq[target].expired.insert(task)
        elif getattr(task, "rr_requeue_tail", False):
            task.rr_requeue_tail = False
            self._rq[target].active.insert(task, head=False)
        else:
            self._rq[target].active.insert(task, head=preempted)
        self._where[task.pid] = target
        return target

    def dequeue(self, task: "Task") -> None:
        cpu = self._where.pop(task.pid, None)
        if cpu is None:
            return
        rq = self._rq[cpu]
        if not rq.active.remove(task):
            rq.expired.remove(task)

    def pick_next(self, cpu_index: int) -> Optional["Task"]:
        rq = self._rq[cpu_index]
        rq.maybe_swap()
        task = rq.active.pop_best()
        if task is not None:
            self._where.pop(task.pid, None)
            return task
        return self._pull_from_busiest(cpu_index)

    def _pull_from_busiest(self, cpu_index: int) -> Optional["Task"]:
        """Idle balancing: steal a migratable task."""
        best_cpu = None
        best_count = 0
        for i, rq in self._rq.items():
            if i == cpu_index or rq.count <= best_count:
                continue
            if any(cpu_index in t.effective_affinity for t in rq.tasks()):
                best_cpu, best_count = i, rq.count
        if best_cpu is None:
            return None
        rq = self._rq[best_cpu]
        rq.maybe_swap()
        for array in (rq.active, rq.expired):
            for task in sorted(array.tasks(),
                               key=lambda t: -t.effective_prio()):
                if cpu_index in task.effective_affinity:
                    array.remove(task)
                    self._where.pop(task.pid, None)
                    return task
        return None

    # ------------------------------------------------------------------
    def task_tick(self, cpu_index: int, task: "Task") -> bool:
        if task.policy is _FIFO:
            return False
        task.time_slice -= 1
        if task.time_slice <= 0:
            task.time_slice = self.kernel.config.timeslice_ticks
            # SCHED_RR goes behind its equal-priority peers in the
            # active array; SCHED_OTHER expires to the expired array.
            if task.policy is _RR:
                task.rr_requeue_tail = True
            else:
                task.expired_on_tick = True
            return True
        return False

    # ------------------------------------------------------------------
    def switch_cost_ns(self, cpu_index: int) -> int:
        return self.kernel.config.timing.sample("sched.switch",
                                                self.kernel.rng)

    # ------------------------------------------------------------------
    def runnable_count(self) -> int:
        return sum(rq.count for rq in self._rq.values())

    def queue_depth(self, cpu_index: int) -> int:
        return self._rq[cpu_index].count

    def queued_tasks(self) -> list:
        out = []
        for rq in self._rq.values():
            out.extend(rq.tasks())
        return out

    def requeue(self, task: "Task") -> int:
        self.dequeue(task)
        return self.enqueue(task)
