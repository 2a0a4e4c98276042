"""The Linux 2.4 "goodness" scheduler.

One global runqueue; every ``schedule()`` scans all runnable tasks and
picks the one with the highest *goodness*:

* real-time tasks: ``1000 + rt_prio`` -- always above timesharing;
* timesharing tasks: remaining ``counter`` ticks plus a nice bonus,
  plus a small bonus for staying on the last CPU (cache affinity);
* a task with an exhausted counter has goodness 0 and waits for the
  epoch recalculation, which runs when every runnable task's counter
  is spent: ``counter = counter/2 + base_slice``.

The scan makes scheduling cost O(n) in runnable tasks, which is part
of why the paper's 2.4 baseline behaves poorly under load; the cost is
charged through :meth:`switch_cost_ns`.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.kernel.sched.base import Scheduler
from repro.kernel.task import SchedPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.task import Task

#: Enum members this module's functions read, bound once (see
#: tests/test_hot_enum_reads.py).
_FIFO = SchedPolicy.FIFO
_RR = SchedPolicy.RR

#: Goodness bonus for resuming on the CPU the task last ran on
#: (PROC_CHANGE_PENALTY in the 2.4 sources).
CPU_AFFINITY_BONUS = 15


class GoodnessScheduler(Scheduler):
    """Global-runqueue 2.4-style scheduler."""

    name = "goodness"

    def __init__(self, kernel) -> None:
        super().__init__(kernel)
        self._queue: List["Task"] = []

    # ------------------------------------------------------------------
    def goodness(self, task: "Task", cpu_index: int) -> int:
        """The 2.4 goodness() function."""
        if task.policy.realtime:
            return 1000 + task.rt_prio
        if task.counter <= 0:
            return 0
        value = task.counter + (20 - task.nice)
        if task.last_cpu == cpu_index:
            value += CPU_AFFINITY_BONUS
        return value

    # ------------------------------------------------------------------
    def enqueue(self, task: "Task", preempted: bool = False) -> int:
        if task in self._queue:  # pragma: no cover - defensive
            return self._wakeup_target(task)
        if not task.policy.realtime and task.counter <= 0 and not preempted:
            # Fresh wakeups get at least one tick so they are schedulable
            # before the next recalculation (2.4 wakes inherit counter).
            task.counter = max(task.counter, 1)
        if getattr(task, "rr_requeue_tail", False):
            task.rr_requeue_tail = False
            self._queue.append(task)
        elif preempted:
            self._queue.insert(0, task)
        else:
            self._queue.append(task)
        return self._wakeup_target(task)

    def dequeue(self, task: "Task") -> None:
        try:
            self._queue.remove(task)
        except ValueError:
            pass

    def pick_next(self, cpu_index: int) -> Optional["Task"]:
        best = self._select(cpu_index)
        if best is None:
            return None
        self._queue.remove(best)
        return best

    def _select(self, cpu_index: int) -> Optional["Task"]:
        eligible = [t for t in self._queue
                    if cpu_index in t.effective_affinity]
        if not eligible:
            return None
        best = max(eligible, key=lambda t: self.goodness(t, cpu_index))
        if self.goodness(best, cpu_index) <= 0:
            # Every eligible timesharing task exhausted its counter:
            # run the epoch recalculation over *all* tasks, then retry.
            self._recalculate()
            best = max(eligible, key=lambda t: self.goodness(t, cpu_index))
            if self.goodness(best, cpu_index) <= 0:  # pragma: no cover
                return None
        return best

    def _recalculate(self) -> None:
        base = self.kernel.config.timeslice_ticks
        for task in self.kernel.iter_tasks():
            if not task.policy.realtime and task.state.value != "exited":
                task.counter = task.counter // 2 + base

    # ------------------------------------------------------------------
    def task_tick(self, cpu_index: int, task: "Task") -> bool:
        if task.policy is _FIFO:
            return False
        if task.policy is _RR:
            task.time_slice -= 1
            if task.time_slice <= 0:
                task.time_slice = self.kernel.config.timeslice_ticks
                task.rr_requeue_tail = True
                return True
            return False
        task.counter -= 1
        return task.counter <= 0

    # ------------------------------------------------------------------
    def switch_cost_ns(self, cpu_index: int) -> int:
        timing = self.kernel.config.timing
        rng = self.kernel.rng
        base = timing.sample("sched.switch", rng)
        scan = len(self._queue) * timing.sample("sched.goodness_scan", rng)
        return base + scan

    # ------------------------------------------------------------------
    def runnable_count(self) -> int:
        return len(self._queue)

    def queued_tasks(self) -> list:
        return list(self._queue)
