"""The kernel orchestrator.

This module ties the pieces together: it steps task generators,
dispatches the primitive ops they yield, implements the preemption
rules that distinguish the paper's kernel configurations, and runs the
hardirq -> softirq -> reschedule pipeline on top of the hardware
layer's execution frames.

Preemption rules implemented here (the crux of the paper's analysis):

* A task executing **user-mode** code can always be context-switched
  at interrupt return -- on every kernel.
* A task executing **kernel-mode** code (inside a system call) can be
  switched only if the kernel has the preemption patch
  (``config.preemptible``) *and* the task holds no spinlocks
  (``preempt_count == 0``).  On the vanilla kernel the switch waits
  for a voluntary reschedule point, a block, or the syscall exit --
  which is why 2.4's multi-millisecond syscalls produce Figure 5's
  92 ms interrupt-response tail.
* Interrupt handlers preempt anything except code holding an
  interrupt-disabling spinlock; bottom halves (softirqs) run at
  interrupt exit and therefore stretch critical sections protected by
  non-irq spinlocks -- the mechanism behind Figure 6's sub-millisecond
  tail.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.core.affinity import CpuMask, effective_affinity
from repro.core.shield import ShieldController
from repro.hw.apic import IrqDescriptor
from repro.hw.cpu import ExecFrame, FrameKind, LogicalCpu
from repro.hw.machine import Machine
from repro.kernel import ops as op
from repro.kernel.config import KernelConfig
from repro.kernel.irqflow.softirq import SoftirqQueue, SoftirqVector
from repro.kernel.irqflow.timer_tick import LocalTimer
from repro.kernel.sched.goodness import GoodnessScheduler
from repro.kernel.sched.o1 import O1Scheduler
from repro.kernel.sync.bkl import BigKernelLock
from repro.kernel.sync.spinlock import SpinLock
from repro.kernel.sync.waitqueue import WaitQueue
from repro.kernel.task import SchedPolicy, Task, TaskState
from repro.sim.engine import Simulator
from repro.sim.errors import KernelPanic

#: Pseudo-IRQ numbers for interrupts that bypass the I/O APIC.
IPI_RESCHED_IRQ = 999
LOCAL_TIMER_IRQ_BASE = 1000

#: Enum members this module's functions read, bound once (see
#: tests/test_hot_enum_reads.py).
_TASK = FrameKind.TASK
_HARDIRQ = FrameKind.HARDIRQ
_SOFTIRQ = FrameKind.SOFTIRQ
_SPIN = FrameKind.SPIN
_SWITCH = FrameKind.SWITCH
_READY = TaskState.READY
_RUNNING = TaskState.RUNNING
_BLOCKED = TaskState.BLOCKED
_EXITED = TaskState.EXITED
_SCHED_OTHER = SchedPolicy.OTHER
_TIMER_SOFTIRQ = SoftirqVector.TIMER


class Kernel:
    """A booted kernel instance bound to one simulated machine."""

    def __init__(self, sim: Simulator, machine: Machine,
                 config: KernelConfig) -> None:
        self.sim = sim
        self.machine = machine
        self.config = config
        self.ncpus = machine.ncpus
        self.rng = sim.rng.stream("kernel")

        # Per-CPU state.
        self.current: List[Optional[Task]] = [None] * self.ncpus
        self.need_resched: List[bool] = [False] * self.ncpus
        self.in_softirq: List[bool] = [False] * self.ncpus
        self.softirqq: List[SoftirqQueue] = [
            SoftirqQueue(i) for i in range(self.ncpus)]
        self._scheduling: List[bool] = [False] * self.ncpus

        # Tasks.
        self.tasks: Dict[int, Task] = {}
        self._next_pid = 1

        # Scheduler.
        if config.o1_scheduler:
            self.scheduler = O1Scheduler(self)
        else:
            self.scheduler = GoodnessScheduler(self)

        # Interrupt dispatch table: irq -> (cost_key, action(cpu_idx)).
        self._irq_table: Dict[int, tuple] = {}
        self._ipi_desc = IrqDescriptor(IPI_RESCHED_IRQ, "resched-ipi",
                                       self.ncpus)
        self._ltmr_descs = [
            IrqDescriptor(LOCAL_TIMER_IRQ_BASE + i, f"local-timer-{i}",
                          self.ncpus)
            for i in range(self.ncpus)
        ]

        # Kernel global locks (the contended ones the paper discusses).
        self.locks = SimpleNamespace(
            bkl=BigKernelLock(),
            # Generic file-layer lock crossed by read()/write() exit
            # paths (stand-in for files_lock / fasync handling).
            file_lock=SpinLock("file_lock"),
            # dcache/inode-level lock hit by path-walking fs ops.
            dcache_lock=SpinLock("dcache_lock"),
            # Block-layer request lock (irq-disabling in 2.4).
            io_request_lock=SpinLock("io_request_lock", irq_disabling=True),
            # Global runqueue lock (goodness) / runqueue locks (O(1));
            # modelled inside switch cost, exposed for completeness.
            runqueue_lock=SpinLock("runqueue_lock", irq_disabling=True),
        )

        # Subsystems.
        self.local_timer = LocalTimer(self)
        self.jiffies = 0
        self.drivers: Dict[str, Any] = {}
        self.procfs = None  # created at boot
        #: CPU on which the most recent op was dispatched; lets Call-op
        #: callees (drivers) attribute work to the calling CPU.
        self.dispatching_cpu: Optional[int] = None
        self.shield: Optional[ShieldController] = None
        self.ksoftirqd_tasks: List[Optional[Task]] = [None] * self.ncpus
        self.ksoftirqd_wqs: List[WaitQueue] = [
            WaitQueue(f"ksoftirqd/{i}") for i in range(self.ncpus)]

        # Statistics.
        self.stats = SimpleNamespace(
            context_switches=0,
            hardirqs=0,
            softirq_items=0,
            ipis=0,
            syscalls=0,
            preemptions=0,
            migrations=0,
        )
        self._booted = False

    # ==================================================================
    # Boot
    # ==================================================================
    def boot(self) -> None:
        """Install hardware hooks and start kernel services."""
        if self._booted:
            raise KernelPanic("kernel booted twice")
        self._booted = True
        self.machine.apic.deliver = self._deliver_irq
        self.machine.on_irq_affinity_changed = self._irq_affinity_changed
        for cpu in self.machine.cpus:
            cpu.on_quiescent = self._on_quiescent
            # Pended-IRQ draining is handled explicitly at each
            # irq_enable site; the hook stays a no-op.
            cpu.on_irq_enabled = lambda _cpu: None
        # Local timer interrupts.
        self.register_irq_handler(IPI_RESCHED_IRQ, "irq.ipi",
                                  lambda cpu_idx: None)
        for i in range(self.ncpus):
            self.register_irq_handler(LOCAL_TIMER_IRQ_BASE + i, "tick.cost",
                                      self._tick_action)
        self.local_timer.start_all()
        # Shield support.
        if self.config.shield_support:
            self.shield = ShieldController(self.machine, self)
        from repro.kernel.procfs import ProcFs
        self.procfs = ProcFs(self)
        # ksoftirqd threads.
        if self.config.ksoftirqd:
            for i in range(self.ncpus):
                self.ksoftirqd_tasks[i] = self.create_task(
                    f"ksoftirqd/{i}", self._ksoftirqd_body(i),
                    policy=_SCHED_OTHER, nice=19,
                    affinity=CpuMask.single(i), kernel_thread=True)

    # ==================================================================
    # Task lifecycle
    # ==================================================================
    def create_task(self, name: str, body: Generator,
                    policy: SchedPolicy = SchedPolicy.OTHER,
                    rt_prio: int = 0, nice: int = 0,
                    affinity: Optional[CpuMask] = None,
                    kernel_thread: bool = False) -> Task:
        """Create and immediately wake a task."""
        pid = self._next_pid
        self._next_pid += 1
        task = Task(pid, name, body, policy=policy, rt_prio=rt_prio,
                    nice=nice, affinity=affinity,
                    kernel_thread=kernel_thread)
        if not task.requested_affinity:
            task.requested_affinity = CpuMask.all(self.ncpus)
        self.tasks[pid] = task
        self.reapply_task_affinity(task)
        task.counter = self.config.timeslice_ticks
        task.time_slice = self.config.timeslice_ticks
        task.last_cpu = task.effective_affinity.first()
        tp = self.sim.tp
        if tp.enabled:
            tp.task_create(self.sim.now, task.last_cpu, name)
        self._make_runnable(task, from_cpu=None)
        return task

    def iter_tasks(self):
        """All non-exited tasks (shield interface)."""
        return [t for t in self.tasks.values() if t.state is not _EXITED]

    def _task_exit(self, task: Task, cpu_idx: int, value: Any) -> None:
        task.state = _EXITED
        task.exit_code = value if isinstance(value, int) else 0
        task.on_cpu = None
        task.last_cpu = cpu_idx
        if task.preempt_count != 0:
            raise KernelPanic(f"{task.name} exited holding locks "
                              f"(preempt_count={task.preempt_count})")
        self.current[cpu_idx] = None
        tp = self.sim.tp
        if tp.enabled:
            tp.task_exit(self.sim.now, cpu_idx, task.name)
        self.schedule(cpu_idx)

    # ==================================================================
    # Affinity / shield plumbing
    # ==================================================================
    def reapply_task_affinity(self, task: Task) -> None:
        """Recompute the effective mask; migrate if now disallowed."""
        if self.shield is not None:
            task.effective_affinity = self.shield.effective_task_affinity(
                task.requested_affinity)
        else:
            task.effective_affinity = task.requested_affinity
        if task.state is _READY:
            queued_ok = True
            # O(1) keeps tasks on per-CPU queues; requeue if misplaced.
            where = getattr(self.scheduler, "_where", None)
            if where is not None:
                qcpu = where.get(task.pid)
                queued_ok = qcpu is None or qcpu in task.effective_affinity
            if not queued_ok:
                self.stats.migrations += 1
                self.scheduler.requeue(task)
        elif (task.state is _RUNNING and task.on_cpu is not None
              and task.on_cpu not in task.effective_affinity):
            # Push the task off the now-forbidden CPU at the earliest
            # legal opportunity.
            self.stats.migrations += 1
            self.need_resched[task.on_cpu] = True
            self.resched_cpu(task.on_cpu)

    def set_task_affinity(self, task: Task, mask: CpuMask) -> None:
        task.requested_affinity = mask
        self.reapply_task_affinity(task)

    def set_local_timer_enabled(self, cpu_index: int, enabled: bool) -> None:
        """Shield interface: gate one CPU's local timer tick."""
        self.local_timer.set_enabled(cpu_index, enabled)

    def _irq_affinity_changed(self, desc: IrqDescriptor) -> None:
        if self.shield is not None:
            desc.effective_affinity = self.shield.effective_irq_affinity(
                desc.requested_affinity)
        else:
            desc.effective_affinity = desc.requested_affinity

    # ==================================================================
    # Wakeups and preemption decisions
    # ==================================================================
    def wake_up(self, wq: WaitQueue, all_waiters: bool = False,
                from_cpu: Optional[int] = None) -> int:
        """Wake tasks blocked on *wq*; returns the number woken."""
        tasks = wq.pop_all() if all_waiters else wq.pop_one()
        for task in tasks:
            task.waiting_on = None
            self._make_runnable(task, from_cpu)
        return len(tasks)

    def wake_task(self, task: Task, from_cpu: Optional[int] = None) -> None:
        """Wake a specific blocked task (timer expiry path)."""
        if task.state is not _BLOCKED:
            return
        if task.waiting_on is not None:
            task.waiting_on.remove(task)
            task.waiting_on = None
        self._make_runnable(task, from_cpu)

    def _make_runnable(self, task: Task, from_cpu: Optional[int]) -> None:
        if task.state in (_READY, _RUNNING):
            return
        task.state = _READY
        target = self.scheduler.enqueue(task)
        tp = self.sim.tp
        if tp.enabled:
            tp.sched_wake(self.sim.now, target, task.name,
                          -1 if from_cpu is None else from_cpu)
        self._check_preempt(target, task, from_cpu)

    def _check_preempt(self, target: int, task: Task,
                       from_cpu: Optional[int]) -> None:
        cur = self.current[target]
        if cur is not None and not task.beats(cur):
            return
        self.need_resched[target] = True
        if target == from_cpu:
            # Same CPU: the interrupt-return / op-boundary check that
            # is already in progress will perform the switch.
            return
        self.resched_cpu(target)

    def resched_cpu(self, target: int) -> None:
        """Force *target* to notice ``need_resched``.

        Idle and frame-free: schedule right away (the 2.4 idle loop
        polls need_resched).  Otherwise deliver a reschedule IPI so the
        interrupt-return path performs the check.
        """
        cpu = self.machine.cpus[target]
        if self.current[target] is None and not cpu.busy:
            if not self._scheduling[target]:
                self.schedule(target)
            return
        self._send_ipi(target)

    def _send_ipi(self, target: int) -> None:
        self.stats.ipis += 1
        cpu = self.machine.cpus[target]
        if cpu.irqs_enabled:
            self._do_irq_on(cpu, self._ipi_desc)
        else:
            cpu.pend_irq(self._ipi_desc)

    def _can_preempt_now(self, cpu_idx: int) -> bool:
        """May a context switch be performed on this CPU right now?"""
        cpu = self.machine.cpus[cpu_idx]
        if cpu.hss_count or cpu.spin_count:
            return False
        task = self.current[cpu_idx]
        if task is None:
            return True
        if task.preempt_count > 0:
            return False
        if task.in_kernel:
            return self.config.preemptible
        return True

    # ==================================================================
    # The scheduler entry point
    # ==================================================================
    def schedule(self, cpu_idx: int) -> None:
        """Pick the next task for *cpu_idx* and switch to it."""
        if self._scheduling[cpu_idx]:
            raise KernelPanic(f"recursive schedule() on cpu{cpu_idx}")
        self._scheduling[cpu_idx] = True
        try:
            self.need_resched[cpu_idx] = False
            cpu = self.machine.cpus[cpu_idx]
            prev = self.current[cpu_idx]
            if prev is not None:
                self._deschedule_current(cpu, prev)
            nxt = self.scheduler.pick_next(cpu_idx)
        finally:
            # The guard covers only queue manipulation; the switch and
            # task continuation below may legitimately re-enter
            # schedule() (e.g. the resumed task immediately blocks).
            self._scheduling[cpu_idx] = False
        if nxt is None:
            return  # idle
        if nxt is prev:
            # Chosen again: no switch cost, just resume.
            self._install_task(cpu_idx, nxt)
            self._continue_task(nxt, cpu_idx)
            return
        self.stats.context_switches += 1
        cost = self.scheduler.switch_cost_ns(cpu_idx)
        frame = ExecFrame(_SWITCH, cost,
                          lambda f: self._finish_switch(cpu_idx, nxt),
                          label="switch")
        cpu.push_frame(frame)

    def _deschedule_current(self, cpu: LogicalCpu, prev: Task) -> None:
        """Take *prev* off the CPU, saving its continuation."""
        top = cpu.top
        if (top is not None and top.kind is _TASK
                and top.owner is prev):
            # Preempted mid-compute: bank the remaining work.
            cpu._pause_top()
            prev.partial = (int(top.remaining), prev.current_compute)
            prev.frame = None
            cpu.pop_frame(top)
        prev.on_cpu = None
        prev.last_cpu = cpu.index
        self.current[cpu.index] = None
        tp = self.sim.tp
        if prev.state is _RUNNING:
            # Involuntary preemption: back on the queue, at the front.
            prev.state = _READY
            self.stats.preemptions += 1
            target = self.scheduler.enqueue(prev, preempted=True)
            if tp.enabled:
                tp.sched_desched(self.sim.now, cpu.index, prev.name,
                                 True, target)
            if target != cpu.index:
                # The task migrated (affinity change / shield enable):
                # the destination CPU must notice it, especially a
                # shielded CPU whose local timer is off.
                self._check_preempt(target, prev, from_cpu=cpu.index)
        elif tp.enabled:
            # Voluntary: the task blocked/exited before schedule() ran.
            tp.sched_desched(self.sim.now, cpu.index, prev.name,
                             prev.state is _READY, cpu.index)

    def _finish_switch(self, cpu_idx: int, nxt: Task) -> None:
        self._install_task(cpu_idx, nxt)
        self._continue_task(nxt, cpu_idx)

    def _install_task(self, cpu_idx: int, task: Task) -> None:
        task.state = _RUNNING
        task.on_cpu = cpu_idx
        task.last_cpu = cpu_idx
        task.switches += 1
        self.current[cpu_idx] = task
        tp = self.sim.tp
        if tp.enabled:
            tp.sched_switch(self.sim.now, cpu_idx, task.name)

    # ==================================================================
    # Task stepping
    # ==================================================================
    def _continue_task(self, task: Task, cpu_idx: int) -> None:
        """Resume a task's continuation on its CPU."""
        if task.partial is not None:
            remaining, compute = task.partial
            task.partial = None
            self._run_compute(task, cpu_idx, compute, remaining)
        elif task.pending_op is not None:
            pending = task.pending_op
            task.pending_op = None
            self._dispatch(task, cpu_idx, pending)
        else:
            self._step(task, cpu_idx)

    def _step(self, task: Task, cpu_idx: int) -> None:
        """Advance the task generator, op by op.

        The trivial ops (syscall entry, instrumentation calls, wakes,
        flag twiddles) are handled inline in a loop rather than through
        :meth:`_dispatch` recursion: at a few hundred thousand ops per
        figure run, one Python frame per op is the difference between
        the profile being dominated by the model or by the plumbing.
        The loop re-runs the op-boundary checks (interrupt slipped in,
        pending reschedule) before every ``send``, exactly as the
        recursive formulation did.
        """
        cpu = self.machine.cpus[cpu_idx]
        need_resched = self.need_resched
        send = task.body.send
        while True:
            if cpu.hss_count:
                # An interrupt (e.g. a self-IPI raised by the op we
                # just dispatched) slipped in at this op boundary.  Let
                # it run; the quiescent path resumes this task after.
                return
            if (need_resched[cpu_idx] and task.preempt_count == 0
                    and self._can_preempt_now(cpu_idx)):
                # Op boundary: honour a pending reschedule before
                # running the next op (approximates instruction-level
                # preemption).
                self.schedule(cpu_idx)
                return
            try:
                value, task.send_value = task.send_value, None
                next_op = send(value)
            except StopIteration as stop:
                self._task_exit(task, cpu_idx, stop.value)
                return
            self.dispatching_cpu = cpu_idx
            t = type(next_op)
            if t is op.Compute:
                self._run_compute(task, cpu_idx, next_op, next_op.work)
                return
            if t is op.EnterSyscall:
                task.in_syscall += 1
                task.syscall_name = next_op.name
                self.stats.syscalls += 1
                tp = self.sim.tp
                if tp.enabled:
                    tp.syscall_entry(self.sim.now, cpu_idx, task.name,
                                     next_op.name)
                continue
            if t is op.Call:
                task.send_value = next_op.fn(*next_op.args)
                continue
            if t is op.PreemptPoint:
                if (need_resched[cpu_idx] and task.preempt_count == 0
                        and self.current[cpu_idx] is task):
                    self.schedule(cpu_idx)
                    return
                continue
            if t is op.Wake:
                self.wake_up(next_op.wq, all_waiters=next_op.all_waiters,
                             from_cpu=cpu_idx)
                continue
            if t is op.SetScheduler:
                task.policy = next_op.policy
                task.rt_prio = next_op.rt_prio
                task.nice = next_op.nice
                continue
            if t is op.MlockAll:
                task.mm_locked = True
                continue
            # The remaining ops (locks, blocking, sleeps, syscall exit,
            # affinity, exit...) change the execution context; hand
            # them to the full dispatcher and stop stepping here.
            self._dispatch(task, cpu_idx, next_op)
            return

    def _dispatch(self, task: Task, cpu_idx: int, o: op.Op) -> None:
        """Execute one primitive op for the current task."""
        self.dispatching_cpu = cpu_idx
        t = type(o)
        if t is op.Compute:
            self._run_compute(task, cpu_idx, o, o.work)
        elif t is op.Acquire:
            self._acquire(task, cpu_idx, o.lock)
        elif t is op.Release:
            self._release(task, cpu_idx, o.lock)
        elif t is op.Block:
            self._block(task, cpu_idx, o.wq)
        elif t is op.SemDown:
            self._sem_down(task, cpu_idx, o.sem)
        elif t is op.SemUp:
            self._sem_up(task, cpu_idx, o.sem)
        elif t is op.Sleep:
            self._sleep(task, cpu_idx, o.duration)
        elif t is op.EnterSyscall:
            task.in_syscall += 1
            task.syscall_name = o.name
            self.stats.syscalls += 1
            tp = self.sim.tp
            if tp.enabled:
                tp.syscall_entry(self.sim.now, cpu_idx, task.name, o.name)
            self._step(task, cpu_idx)
        elif t is op.ExitSyscall:
            self._exit_syscall(task, cpu_idx)
        elif t is op.PreemptPoint:
            if (self.need_resched[cpu_idx] and task.preempt_count == 0
                    and self.current[cpu_idx] is task):
                self.schedule(cpu_idx)
            else:
                self._step(task, cpu_idx)
        elif t is op.YieldCpu:
            self._yield_cpu(task, cpu_idx)
        elif t is op.SetScheduler:
            task.policy = o.policy
            task.rt_prio = o.rt_prio
            task.nice = o.nice
            self._step(task, cpu_idx)
        elif t is op.SetAffinity:
            self.set_task_affinity(task, o.mask)
            if self.current[cpu_idx] is task:
                self._step(task, cpu_idx)
            # else: reapply pushed us off this CPU; we resume elsewhere.
        elif t is op.MlockAll:
            task.mm_locked = True
            self._step(task, cpu_idx)
        elif t is op.Call:
            task.send_value = o.fn(*o.args)
            self._step(task, cpu_idx)
        elif t is op.Wake:
            self.wake_up(o.wq, all_waiters=o.all_waiters, from_cpu=cpu_idx)
            self._step(task, cpu_idx)
        elif t is op.Exit:
            self._task_exit(task, cpu_idx, o.code)
        else:
            raise KernelPanic(f"{task.name} yielded unknown op {o!r}")

    # ------------------------------------------------------------------
    def _run_compute(self, task: Task, cpu_idx: int, o: op.Compute,
                     work: int) -> None:
        cpu = self.machine.cpus[cpu_idx]
        task.current_compute = o
        frame = ExecFrame(_TASK, work if work > 0 else 0,
                          self._compute_done,
                          label=o.label or ("kcode" if o.kernel else "ucode"),
                          owner=task)
        task.frame = frame
        cpu.push_frame(frame)

    def _compute_done(self, frame: ExecFrame) -> None:
        # The completion callback is the bound method itself (one per
        # kernel, not one closure per compute op); everything it needs
        # lives on the frame.  frame.work is this frame's portion only,
        # so preempted-and-resumed segments are not double counted.
        task = frame.owner
        o = task.current_compute
        task.frame = None
        task.current_compute = None
        if o.kernel:
            task.kernel_ns += frame.work
        else:
            task.user_ns += frame.work
        self._step(task, task.on_cpu)

    # ------------------------------------------------------------------
    # Spinlocks
    # ------------------------------------------------------------------
    def _acquire(self, task: Task, cpu_idx: int, lock: SpinLock) -> None:
        cpu = self.machine.cpus[cpu_idx]
        tp = self.sim.tp
        task.preempt_count += 1
        if task.preempt_count == 1 and tp.enabled:
            tp.preempt_off(self.sim.now, cpu_idx, task.name)
        if lock.irq_disabling:
            cpu.irq_disable()
            task.irq_disable_count += 1
        if not lock.held:
            lock.take(task, self.sim.now)
            if tp.enabled:
                tp.lock_acquire(self.sim.now, task.on_cpu, lock.name,
                                task.name, lock.is_bkl)
            self._step(task, cpu_idx)
            return
        if lock.owner is task:
            raise KernelPanic(f"{task.name}: recursive acquire of {lock.name}")
        lock.enqueue_waiter(task)
        if tp.enabled:
            tp.lock_contended(self.sim.now, task.on_cpu, lock.name,
                              task.name, lock.is_bkl)
        frame = ExecFrame(_SPIN, None,
                          lambda f: self._spin_done(task, cpu_idx, lock),
                          label="spin",
                          owner=task)
        task.spin_frame = frame
        task.spin_started = self.sim.now
        cpu.push_frame(frame)

    def _spin_done(self, task: Task, cpu_idx: int, lock: SpinLock) -> None:
        lock.account_spin(self.sim.now - task.spin_started)
        task.spin_frame = None
        self._step(task, cpu_idx)

    def _release(self, task: Task, cpu_idx: int, lock: SpinLock) -> None:
        cpu = self.machine.cpus[cpu_idx]
        tp = self.sim.tp
        now = self.sim.now
        since = lock.held_since
        nxt = lock.drop(task, now)
        # drop() repairs a lock whose hold time a panic cleared
        # (held_since None); that release is not an event.
        if tp.enabled and since is not None:
            tp.lock_release(now, task.on_cpu, lock.name, task.name,
                            now - since, lock.is_bkl)
        if nxt is not None:
            # Direct handoff preserves FIFO fairness under contention.
            lock.take(nxt, now)
            if tp.enabled:
                tp.lock_acquire(now, nxt.on_cpu, lock.name, nxt.name,
                                lock.is_bkl)
            spinner_cpu = self.machine.cpus[nxt.on_cpu]
            spinner_cpu.grant_spin(nxt.spin_frame)
        task.preempt_count -= 1
        if task.preempt_count < 0:
            raise KernelPanic(f"{task.name}: preempt_count underflow")
        if task.preempt_count == 0 and tp.enabled:
            tp.preempt_on(now, cpu_idx, task.name)
        if lock.irq_disabling:
            task.irq_disable_count -= 1
            cpu.irq_enable()
            if cpu.irqs_enabled and cpu.pending_irqs:
                # spin_unlock_irqrestore: a pended interrupt fires
                # before the next instruction of the task runs.  The
                # task continues via the quiescent path afterwards.
                pended = cpu.take_pending_irq()
                self._do_irq_on(cpu, pended)
                return
        if (task.preempt_count == 0 and self.need_resched[cpu_idx]
                and self.config.preemptible):
            # preempt_enable(): with the preemption patch, dropping the
            # last lock is itself a reschedule point.  Without it the
            # pending switch waits for syscall exit / interrupt return.
            self.schedule(cpu_idx)
            return
        self._step(task, cpu_idx)

    # ------------------------------------------------------------------
    # Blocking and sleeping
    # ------------------------------------------------------------------
    def _block(self, task: Task, cpu_idx: int, wq: WaitQueue) -> None:
        if task.preempt_count > 0:
            raise KernelPanic(
                f"{task.name} blocking on {wq.name} while holding a "
                f"spinlock (preempt_count={task.preempt_count})")
        task.state = _BLOCKED
        task.waiting_on = wq
        wq.add(task)
        self.schedule(cpu_idx)

    def _sem_down(self, task: Task, cpu_idx: int, sem) -> None:
        """P(): take a unit or block FIFO until one is handed over."""
        if task.preempt_count > 0:
            raise KernelPanic(
                f"{task.name} sleeping on semaphore {sem.name} under a "
                f"spinlock (preempt_count={task.preempt_count})")
        if sem.try_down(task):
            self._step(task, cpu_idx)
            return
        # try_down queued the task on the semaphore's wait list; it is
        # woken by the owner's up() via _sem_up below.
        task.state = _BLOCKED
        self.schedule(cpu_idx)

    def _sem_up(self, task: Task, cpu_idx: int, sem) -> None:
        """V(): hand the unit to the oldest waiter, if any."""
        waiter = sem.up()
        if waiter is not None:
            self._make_runnable(waiter, from_cpu=cpu_idx)
        self._step(task, cpu_idx)

    def _sleep(self, task: Task, cpu_idx: int, duration: int) -> None:
        if task.preempt_count > 0:
            raise KernelPanic(f"{task.name} sleeping under a spinlock")
        task.state = _BLOCKED
        task.sleep_event = self.sim.after(
            max(0, duration), lambda: self._sleep_expired(task))
        self.schedule(cpu_idx)

    def _sleep_expired(self, task: Task) -> None:
        task.sleep_event = None
        if task.state is _BLOCKED:
            self._make_runnable(task, from_cpu=None)

    def _yield_cpu(self, task: Task, cpu_idx: int) -> None:
        task.state = _READY
        self.current[cpu_idx] = None
        task.on_cpu = None
        task.last_cpu = cpu_idx
        target = self.scheduler.enqueue(task)
        tp = self.sim.tp
        if tp.enabled:
            tp.sched_desched(self.sim.now, cpu_idx, task.name, True, target)
        self.schedule(cpu_idx)

    def _exit_syscall(self, task: Task, cpu_idx: int) -> None:
        if task.in_syscall <= 0:
            raise KernelPanic(f"{task.name}: syscall exit underflow")
        task.in_syscall -= 1
        task.syscall_name = None
        tp = self.sim.tp
        if tp.enabled:
            tp.syscall_exit(self.sim.now, cpu_idx, task.name)
        # 2.4's ret_from_sys_call drains pending softirqs (the
        # handle_softirq path in entry.S), so loopback work raised by
        # this syscall usually runs here.  Kernels with the RedHawk
        # softirq rework skip this drain; their backlog waits for an
        # interrupt exit or ksoftirqd -- and can then run for
        # milliseconds on top of whatever was interrupted (the
        # mechanism behind Figure 6's latency tail).
        if (self.config.softirq_syscall_exit_drain
                and self.softirqq[cpu_idx].pending
                and not self.in_softirq[cpu_idx]):
            self.do_softirq(cpu_idx)
            return  # the quiescent path resumes the task afterwards
        if self.need_resched[cpu_idx] and self._can_preempt_now(cpu_idx):
            self.schedule(cpu_idx)
            return
        self._step(task, cpu_idx)

    # ==================================================================
    # Hardirq flow
    # ==================================================================
    def register_irq_handler(self, irq: int, cost_key: str,
                             action: Callable[[int], None]) -> None:
        """Install the handler (duration key + completion action)."""
        self._irq_table[irq] = (cost_key, action)

    def register_driver(self, path: str, driver: Any) -> None:
        """Expose a driver at a device path (``/dev/rtc``...)."""
        if path in self.drivers:
            raise KernelPanic(f"driver already registered at {path}")
        self.drivers[path] = driver

    def _deliver_irq(self, cpu: LogicalCpu, desc: IrqDescriptor) -> None:
        """APIC hook: an interrupt arrived at *cpu*."""
        if not cpu.irqs_enabled:
            cpu.pend_irq(desc)
            return
        self._do_irq_on(cpu, desc)

    def _do_irq_on(self, cpu: LogicalCpu, desc: IrqDescriptor) -> None:
        self.stats.hardirqs += 1
        cost_key, _action = self._irq_table.get(
            desc.irq, ("irq.handler.default", _noop_action))
        cpu.irq_disable()
        tp = self.sim.tp
        if tp.enabled:
            tp.irq_entry(self.sim.now, cpu.index, desc.irq, desc.name)
        entry = self.config.timing.sample("irq.entry", self.rng)
        handler = self.config.timing.sample(cost_key, self.rng)
        frame = ExecFrame(_HARDIRQ, entry + handler,
                          lambda f: self._hardirq_done(cpu, desc),
                          label="irq",
                          owner=desc)
        cpu.push_frame(frame)

    def _hardirq_done(self, cpu: LogicalCpu, desc: IrqDescriptor) -> None:
        _cost_key, action = self._irq_table.get(
            desc.irq, ("irq.handler.default", _noop_action))
        action(cpu.index)
        # --- irq_exit ---------------------------------------------------
        tp = self.sim.tp
        if tp.enabled:
            tp.irq_exit(self.sim.now, cpu.index, desc.irq, desc.name)
        cpu.irq_enable()
        if cpu.irqs_enabled and cpu.pending_irqs:
            pended = cpu.take_pending_irq()
            self._do_irq_on(cpu, pended)
            return  # the pended irq's own exit continues the chain
        if cpu.in_kind(_HARDIRQ):
            return  # nested interrupt: the outer exit handles the rest
        if self.softirqq[cpu.index].pending and not self.in_softirq[cpu.index]:
            self.do_softirq(cpu.index)
            return
        self._ret_from_intr(cpu.index)

    def _ret_from_intr(self, cpu_idx: int) -> None:
        """The return-from-interrupt reschedule check."""
        if (self.need_resched[cpu_idx] and not self._scheduling[cpu_idx]
                and self._can_preempt_now(cpu_idx)):
            self.schedule(cpu_idx)
        # Otherwise the interrupted frame resumes automatically.

    # ==================================================================
    # Softirq flow
    # ==================================================================
    def raise_softirq(self, cpu_idx: int, vec: SoftirqVector, work_ns: int,
                      action: Optional[Callable[[], None]] = None,
                      from_irq: bool = False) -> None:
        """Queue bottom-half work on *cpu_idx*.

        Work raised from interrupt context is drained at the coming
        interrupt exit; work raised from task context (loopback
        ``netif_rx``) wakes ksoftirqd, 2.4.10-style, and otherwise
        waits for the next interrupt exit on this CPU.
        """
        queue = self.softirqq[cpu_idx]
        queue.raise_softirq(vec, work_ns, action)
        tp = self.sim.tp
        if tp.enabled:
            tp.softirq_raise(self.sim.now, cpu_idx, int(vec))
        if not from_irq and self.config.ksoftirqd:
            self._wake_ksoftirqd(cpu_idx)

    def do_softirq(self, cpu_idx: int) -> None:
        """Drain bottom-half work, bounded by the exit budget."""
        if self.in_softirq[cpu_idx]:
            return
        self.in_softirq[cpu_idx] = True
        self._softirq_step(cpu_idx, self.config.softirq_exit_budget_ns)

    def _softirq_step(self, cpu_idx: int, budget: int) -> None:
        queue = self.softirqq[cpu_idx]
        if budget <= 0:
            self.in_softirq[cpu_idx] = False
            if queue.pending and self.config.ksoftirqd:
                self._wake_ksoftirqd(cpu_idx)
            self._ret_from_intr(cpu_idx)
            return
        item = queue.take_next()
        if item is None:
            self.in_softirq[cpu_idx] = False
            self._ret_from_intr(cpu_idx)
            return
        vec, work, action = item
        self.stats.softirq_items += 1
        tp = self.sim.tp
        if tp.enabled:
            tp.softirq_entry(self.sim.now, cpu_idx, int(vec))
        cpu = self.machine.cpus[cpu_idx]
        frame = ExecFrame(
            _SOFTIRQ, work,
            lambda f: self._softirq_item_done(cpu_idx, budget - work, vec,
                                              action),
            label="softirq")
        cpu.push_frame(frame)

    def _softirq_item_done(self, cpu_idx: int, budget_left: int, vec,
                           action: Optional[Callable[[], None]]) -> None:
        tp = self.sim.tp
        if tp.enabled:
            tp.softirq_exit(self.sim.now, cpu_idx, int(vec))
        if action is not None:
            action()
        self._softirq_step(cpu_idx, budget_left)

    def _wake_ksoftirqd(self, cpu_idx: int) -> None:
        task = self.ksoftirqd_tasks[cpu_idx]
        if task is not None and task.state is _BLOCKED:
            self.wake_task(task, from_cpu=cpu_idx)

    def _ksoftirqd_body(self, cpu_idx: int) -> Generator:
        """Per-CPU kernel thread absorbing deferred softirq work."""
        queue = self.softirqq[cpu_idx]
        wq = self.ksoftirqd_wqs[cpu_idx]
        while True:
            item = queue.take_next()
            if item is None:
                yield op.Block(wq)
                continue
            vec, work, action = item
            self.stats.softirq_items += 1
            tp = self.sim.tp
            if tp.enabled:
                tp.softirq_entry(self.sim.now, cpu_idx, int(vec))
            yield op.Compute(work, kernel=True, label="ksoftirqd")
            tp = self.sim.tp
            if tp.enabled:
                tp.softirq_exit(self.sim.now, cpu_idx, int(vec))
            if action is not None:
                action()

    # ==================================================================
    # Local timer
    # ==================================================================
    def deliver_local_timer(self, cpu_idx: int) -> None:
        """LocalTimer hook: tick interrupt for *cpu_idx*."""
        cpu = self.machine.cpus[cpu_idx]
        desc = self._ltmr_descs[cpu_idx]
        if not cpu.irqs_enabled:
            cpu.pend_irq(desc)
            return
        self._do_irq_on(cpu, desc)

    def _tick_action(self, cpu_idx: int) -> None:
        """Local timer handler body: accounting + scheduler tick."""
        tp = self.sim.tp
        if tp.enabled:
            tp.timer_tick(self.sim.now, cpu_idx)
        if cpu_idx == 0:
            self.jiffies += 1
            # Timer-wheel processing runs in the TIMER softirq.
            work = self.config.timing.sample("tick.timer_softirq", self.rng)
            if work > 0:
                self.raise_softirq(cpu_idx, _TIMER_SOFTIRQ, work,
                                   from_irq=True)
        cur = self.current[cpu_idx]
        if cur is None:
            # Idle loop: pull queued work (idle balancing happens from
            # the tick in the real schedulers too).
            if self.scheduler.runnable_count() > 0:
                self.need_resched[cpu_idx] = True
        elif self.scheduler.task_tick(cpu_idx, cur):
            self.need_resched[cpu_idx] = True

    # ==================================================================
    # Quiescent CPU handling
    # ==================================================================
    def _on_quiescent(self, cpu: LogicalCpu) -> None:
        """The CPU's frame stack emptied; keep the world turning."""
        idx = cpu.index
        if self._scheduling[idx]:
            return
        task = self.current[idx]
        if task is not None and task.state is _RUNNING:
            self._continue_task(task, idx)
        elif task is None and self.need_resched[idx]:
            self.schedule(idx)

    # ==================================================================
    # Introspection
    # ==================================================================
    def runnable_summary(self) -> Dict[str, Any]:
        """Snapshot for debugging and tests."""
        return {
            "current": {i: (t.name if t else None)
                        for i, t in enumerate(self.current)},
            "queued": [t.name for t in self.scheduler.queued_tasks()],
            "need_resched": list(self.need_resched),
            "switches": self.stats.context_switches,
        }


def _noop_action(cpu_idx: int) -> None:
    """Default handler action for unregistered interrupts."""
