"""The static tracepoint registry and per-CPU ring buffers.

Kernel-style typed tracepoints are the simulator's one trace facility
(``sim.tp``).  Each event is a member of the :class:`TP` enum with a
fixed argument shape; call sites guard with a single attribute check::

    tp = self.sim.tp
    if tp.enabled:
        tp.irq_entry(sim.now, cpu.index, desc.irq, desc.name)

so a disabled registry costs two attribute loads and a branch per
site -- no tuples, no strings, no allocation.  When enabled, each emit
appends one row ``(time, cpu, code, args)`` -- a tuple of ints and
strings with the plain-int tracepoint code -- to the emitting CPU's
``deque(maxlen=capacity)`` ring, bumps the per-event hit counter,
updates the O(1) per-CPU accounting (:mod:`repro.observe.accounting`)
and forwards to the optional listener (the attribution engine).  Rows
are the recording's rows in tuple form: :meth:`Tracepoints.events`,
the recording and the Perfetto export read them as they are.  The
cyclic collector untracks such a tuple once it has visited it (args
tuple first, then the row), so a long traced run leaves no per-event
objects for each later collection to scan.

The registry is observational by contract: it never schedules events,
draws randomness, or mutates kernel/hardware state.
"""

from __future__ import annotations

import enum
from collections import deque
from operator import itemgetter
from typing import Any, Deque, List, Optional, Tuple

from repro.observe.accounting import CpuAccounting


class TP(enum.IntEnum):
    """The static tracepoint catalogue (see DESIGN.md section 5d)."""

    SCHED_SWITCH = 0      # (task_name,)             task installed on cpu
    SCHED_DESCHED = 1     # (task_name, runnable, target_cpu)
    SCHED_WAKE = 2        # (task_name, from_cpu)    emitted on target cpu
    TASK_EXIT = 3         # (task_name,)
    IRQ_RAISE = 4         # (irq, name)              emitted on routed cpu
    IRQ_PEND = 5          # (irq, name)              delivery blocked
    IRQ_ENTRY = 6         # (irq, name)
    IRQ_EXIT = 7          # (irq, name)
    SOFTIRQ_RAISE = 8     # (vec,)
    SOFTIRQ_ENTRY = 9     # (vec,)
    SOFTIRQ_EXIT = 10     # (vec,)
    PREEMPT_OFF = 11      # (task_name,)             preempt_count 0 -> 1
    PREEMPT_ON = 12       # (task_name,)             preempt_count 1 -> 0
    IRQS_OFF = 13         # ()                       disable depth 0 -> 1
    IRQS_ON = 14          # ()                       disable depth 1 -> 0
    LOCK_ACQUIRE = 15     # (lock_name, task_name, is_bkl)
    LOCK_CONTENDED = 16   # (lock_name, task_name, is_bkl)
    LOCK_RELEASE = 17     # (lock_name, task_name, hold_ns, is_bkl)
    SHIELD_UPDATE = 18    # (procs_mask, irqs_mask, ltmr_mask)
    TIMER_TICK = 19       # ()
    SYSCALL_ENTRY = 20    # (task_name, syscall_name)
    SYSCALL_EXIT = 21     # (task_name,)
    FRAME_PUSH = 22       # (kind_name, label, owner_name)
    FRAME_POP = 23        # (kind_name, label, owner_name)
    LATENCY_SAMPLE = 24   # (task_name, latency_ns)
    TASK_CREATE = 25      # (task_name,)
    FAULT_INJECT = 26     # (injector_key, detail)     simfault injection

    # IntEnum hashing/eq go through Python-level dunders; members key
    # hit counters on every emit, so use identity semantics.
    __hash__ = object.__hash__


#: Number of registered tracepoints (hit-counter table size).
N_TRACEPOINTS = len(TP)


#: One buffered tracepoint: ``(time, cpu, code, args)``.
Row = Tuple[int, int, int, Tuple[Any, ...]]

#: Plain-int codes for the emit paths, in :class:`TP` order.  Rows
#: hold these, never the members: a tuple holding an enum member stays
#: tracked by the cyclic collector for the whole run.
(_SCHED_SWITCH, _SCHED_DESCHED, _SCHED_WAKE, _TASK_EXIT, _IRQ_RAISE,
 _IRQ_PEND, _IRQ_ENTRY, _IRQ_EXIT, _SOFTIRQ_RAISE, _SOFTIRQ_ENTRY,
 _SOFTIRQ_EXIT, _PREEMPT_OFF, _PREEMPT_ON, _IRQS_OFF, _IRQS_ON,
 _LOCK_ACQUIRE, _LOCK_CONTENDED, _LOCK_RELEASE, _SHIELD_UPDATE,
 _TIMER_TICK, _SYSCALL_ENTRY, _SYSCALL_EXIT, _FRAME_PUSH, _FRAME_POP,
 _LATENCY_SAMPLE, _TASK_CREATE, _FAULT_INJECT) = map(int, TP)

_TIME = itemgetter(0)


class TraceListener:
    """Base class for online tracepoint consumers.

    The registry dispatches to same-named methods; everything defaults
    to a no-op so listeners override only the events they care about.
    """

    def sched_switch(self, now: int, cpu: int, task: str) -> None: ...
    def sched_desched(self, now: int, cpu: int, task: str,
                      runnable: bool, target: int) -> None: ...
    def sched_wake(self, now: int, cpu: int, task: str,
                   from_cpu: int) -> None: ...
    def task_exit(self, now: int, cpu: int, task: str) -> None: ...
    def irq_entry(self, now: int, cpu: int, irq: int, name: str) -> None: ...
    def irq_exit(self, now: int, cpu: int, irq: int, name: str) -> None: ...
    def softirq_entry(self, now: int, cpu: int, vec: int) -> None: ...
    def softirq_exit(self, now: int, cpu: int, vec: int) -> None: ...
    def preempt_off(self, now: int, cpu: int, task: str) -> None: ...
    def preempt_on(self, now: int, cpu: int, task: str) -> None: ...
    def irqs_off(self, now: int, cpu: int) -> None: ...
    def irqs_on(self, now: int, cpu: int) -> None: ...
    def lock_acquire(self, now: int, cpu: int, lock: str, task: str,
                     is_bkl: bool) -> None: ...
    def lock_contended(self, now: int, cpu: int, lock: str, task: str,
                       is_bkl: bool) -> None: ...
    def lock_release(self, now: int, cpu: int, lock: str, task: str,
                     hold_ns: int, is_bkl: bool) -> None: ...
    def syscall_entry(self, now: int, cpu: int, task: str,
                      name: str) -> None: ...
    def syscall_exit(self, now: int, cpu: int, task: str) -> None: ...
    def frame_push(self, now: int, cpu: int, kind: str, label: str,
                   owner: str) -> None: ...
    def frame_pop(self, now: int, cpu: int, kind: str, label: str,
                  owner: str) -> None: ...
    def fault_inject(self, now: int, cpu: int, injector: str,
                     detail: str) -> None: ...


class Tracepoints:
    """The per-simulator tracepoint registry.

    Created disabled by every :class:`~repro.sim.engine.Simulator`;
    :meth:`configure` (called by the machine once the CPU count is
    known) sizes the per-CPU rings, and :meth:`enable` turns emission
    on.  Event and frame labels stay static either way: the names a
    trace needs travel as tracepoint arguments.
    """

    __slots__ = ("enabled", "capacity", "rings", "accounting", "hits",
                 "listener")

    def __init__(self, capacity: int = 65536) -> None:
        self.enabled = False
        self.capacity = capacity
        self.rings: List[Deque[Row]] = []
        self.accounting = CpuAccounting(0)
        self.hits = [0] * N_TRACEPOINTS
        self.listener: Optional[TraceListener] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def configure(self, ncpus: int) -> None:
        """Size per-CPU state; called by the machine at construction."""
        if self.capacity < 1:
            # deque(maxlen=0) would silently keep nothing.
            raise ValueError("trace ring capacity must be positive")
        self.rings = [deque(maxlen=self.capacity) for _ in range(ncpus)]
        self.accounting = CpuAccounting(ncpus)
        self.hits = [0] * N_TRACEPOINTS

    @property
    def ncpus(self) -> int:
        return len(self.rings)

    def enable(self) -> None:
        if not self.rings:
            raise ValueError("tracepoints not configured: no machine "
                             "attached this simulator (configure(ncpus))")
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        for ring in self.rings:
            ring.clear()
        self.accounting.clear()
        self.hits = [0] * N_TRACEPOINTS

    def dropped(self) -> int:
        """Total events evicted across all CPU rings.

        Exact because each emit bumps one hit and appends one row, and
        :meth:`configure` and :meth:`clear` reset both together.
        """
        return sum(self.hits) - sum(len(ring) for ring in self.rings)

    def events(self) -> List[Row]:
        """All buffered rows merged across CPUs, time-ordered.

        The rings are concatenated in CPU order and a row's ``cpu`` is
        its ring's index, so a stable sort on time alone keeps ties in
        CPU index then intra-ring order (each ring is already
        monotone): the merge is deterministic.
        """
        merged: List[Row] = []
        for ring in self.rings:
            merged.extend(ring)
        merged.sort(key=_TIME)
        return merged

    def hit_counts(self) -> dict:
        """Per-tracepoint emit counts, as ``{name: count}``."""
        return {TP(i).name.lower(): self.hits[i]
                for i in range(N_TRACEPOINTS) if self.hits[i]}

    def top_hits(self, n: int = 10) -> List[tuple]:
        """The *n* most-emitted tracepoints as ``(name, count)``."""
        pairs = sorted(self.hit_counts().items(),
                       key=lambda kv: (-kv[1], kv[0]))
        return pairs[:n]

    # ------------------------------------------------------------------
    # Emission (one method per tracepoint; call only when enabled)
    # ------------------------------------------------------------------
    def sched_switch(self, now: int, cpu: int, task: str) -> None:
        self.hits[_SCHED_SWITCH] += 1
        self.rings[cpu].append((now, cpu, _SCHED_SWITCH, (task,)))
        self.accounting.cpus[cpu].switches += 1
        lis = self.listener
        if lis is not None:
            lis.sched_switch(now, cpu, task)

    def sched_desched(self, now: int, cpu: int, task: str,
                      runnable: bool, target: int) -> None:
        self.hits[_SCHED_DESCHED] += 1
        self.rings[cpu].append(
            (now, cpu, _SCHED_DESCHED, (task, runnable, target)))
        lis = self.listener
        if lis is not None:
            lis.sched_desched(now, cpu, task, runnable, target)

    def sched_wake(self, now: int, cpu: int, task: str,
                   from_cpu: int) -> None:
        self.hits[_SCHED_WAKE] += 1
        self.rings[cpu].append((now, cpu, _SCHED_WAKE, (task, from_cpu)))
        self.accounting.cpus[cpu].wakes += 1
        lis = self.listener
        if lis is not None:
            lis.sched_wake(now, cpu, task, from_cpu)

    def task_exit(self, now: int, cpu: int, task: str) -> None:
        self.hits[_TASK_EXIT] += 1
        self.rings[cpu].append((now, cpu, _TASK_EXIT, (task,)))
        lis = self.listener
        if lis is not None:
            lis.task_exit(now, cpu, task)

    def task_create(self, now: int, cpu: int, task: str) -> None:
        self.hits[_TASK_CREATE] += 1
        self.rings[cpu].append((now, cpu, _TASK_CREATE, (task,)))

    def irq_raise(self, now: int, cpu: int, irq: int, name: str) -> None:
        self.hits[_IRQ_RAISE] += 1
        self.rings[cpu].append((now, cpu, _IRQ_RAISE, (irq, name)))

    def irq_pend(self, now: int, cpu: int, irq: int, name: str) -> None:
        self.hits[_IRQ_PEND] += 1
        self.rings[cpu].append((now, cpu, _IRQ_PEND, (irq, name)))

    def irq_entry(self, now: int, cpu: int, irq: int, name: str) -> None:
        self.hits[_IRQ_ENTRY] += 1
        self.rings[cpu].append((now, cpu, _IRQ_ENTRY, (irq, name)))
        acct = self.accounting.cpus[cpu]
        acct.irqs[irq] = acct.irqs.get(irq, 0) + 1
        self.accounting.irq_names[irq] = name
        lis = self.listener
        if lis is not None:
            lis.irq_entry(now, cpu, irq, name)

    def irq_exit(self, now: int, cpu: int, irq: int, name: str) -> None:
        self.hits[_IRQ_EXIT] += 1
        self.rings[cpu].append((now, cpu, _IRQ_EXIT, (irq, name)))
        lis = self.listener
        if lis is not None:
            lis.irq_exit(now, cpu, irq, name)

    def softirq_raise(self, now: int, cpu: int, vec: int) -> None:
        self.hits[_SOFTIRQ_RAISE] += 1
        self.rings[cpu].append((now, cpu, _SOFTIRQ_RAISE, (vec,)))

    def softirq_entry(self, now: int, cpu: int, vec: int) -> None:
        self.hits[_SOFTIRQ_ENTRY] += 1
        self.rings[cpu].append((now, cpu, _SOFTIRQ_ENTRY, (vec,)))
        acct = self.accounting.cpus[cpu]
        acct.softirqs[vec] = acct.softirqs.get(vec, 0) + 1
        lis = self.listener
        if lis is not None:
            lis.softirq_entry(now, cpu, vec)

    def softirq_exit(self, now: int, cpu: int, vec: int) -> None:
        self.hits[_SOFTIRQ_EXIT] += 1
        self.rings[cpu].append((now, cpu, _SOFTIRQ_EXIT, (vec,)))
        lis = self.listener
        if lis is not None:
            lis.softirq_exit(now, cpu, vec)

    def preempt_off(self, now: int, cpu: int, task: str) -> None:
        self.hits[_PREEMPT_OFF] += 1
        self.rings[cpu].append((now, cpu, _PREEMPT_OFF, (task,)))
        self.accounting.cpus[cpu].preempt_off_since = now
        lis = self.listener
        if lis is not None:
            lis.preempt_off(now, cpu, task)

    def preempt_on(self, now: int, cpu: int, task: str) -> None:
        self.hits[_PREEMPT_ON] += 1
        self.rings[cpu].append((now, cpu, _PREEMPT_ON, (task,)))
        acct = self.accounting.cpus[cpu]
        since = acct.preempt_off_since
        if since is not None:
            window = now - since
            if window > acct.max_preempt_off_ns:
                acct.max_preempt_off_ns = window
            acct.preempt_off_since = None
        lis = self.listener
        if lis is not None:
            lis.preempt_on(now, cpu, task)

    def irqs_off(self, now: int, cpu: int) -> None:
        self.hits[_IRQS_OFF] += 1
        self.rings[cpu].append((now, cpu, _IRQS_OFF, ()))
        self.accounting.cpus[cpu].irq_off_since = now
        lis = self.listener
        if lis is not None:
            lis.irqs_off(now, cpu)

    def irqs_on(self, now: int, cpu: int) -> None:
        self.hits[_IRQS_ON] += 1
        self.rings[cpu].append((now, cpu, _IRQS_ON, ()))
        acct = self.accounting.cpus[cpu]
        since = acct.irq_off_since
        if since is not None:
            window = now - since
            if window > acct.max_irq_off_ns:
                acct.max_irq_off_ns = window
            acct.irq_off_since = None
        lis = self.listener
        if lis is not None:
            lis.irqs_on(now, cpu)

    def lock_acquire(self, now: int, cpu: int, lock: str, task: str,
                     is_bkl: bool) -> None:
        self.hits[_LOCK_ACQUIRE] += 1
        self.rings[cpu].append((now, cpu, _LOCK_ACQUIRE, (lock, task, is_bkl)))
        lis = self.listener
        if lis is not None:
            lis.lock_acquire(now, cpu, lock, task, is_bkl)

    def lock_contended(self, now: int, cpu: int, lock: str, task: str,
                       is_bkl: bool) -> None:
        self.hits[_LOCK_CONTENDED] += 1
        self.rings[cpu].append(
            (now, cpu, _LOCK_CONTENDED, (lock, task, is_bkl)))
        lis = self.listener
        if lis is not None:
            lis.lock_contended(now, cpu, lock, task, is_bkl)

    def lock_release(self, now: int, cpu: int, lock: str, task: str,
                     hold_ns: int, is_bkl: bool) -> None:
        self.hits[_LOCK_RELEASE] += 1
        self.rings[cpu].append(
            (now, cpu, _LOCK_RELEASE, (lock, task, hold_ns, is_bkl)))
        if is_bkl:
            acct = self.accounting.cpus[cpu]
            if hold_ns > acct.max_bkl_hold_ns:
                acct.max_bkl_hold_ns = hold_ns
        lis = self.listener
        if lis is not None:
            lis.lock_release(now, cpu, lock, task, hold_ns, is_bkl)

    def shield_update(self, now: int, cpu: int, procs: int, irqs: int,
                      ltmr: int) -> None:
        self.hits[_SHIELD_UPDATE] += 1
        self.rings[cpu].append((now, cpu, _SHIELD_UPDATE, (procs, irqs, ltmr)))

    def timer_tick(self, now: int, cpu: int) -> None:
        self.hits[_TIMER_TICK] += 1
        self.rings[cpu].append((now, cpu, _TIMER_TICK, ()))
        self.accounting.cpus[cpu].ticks += 1

    def syscall_entry(self, now: int, cpu: int, task: str,
                      name: str) -> None:
        self.hits[_SYSCALL_ENTRY] += 1
        self.rings[cpu].append((now, cpu, _SYSCALL_ENTRY, (task, name)))
        self.accounting.cpus[cpu].syscalls += 1
        lis = self.listener
        if lis is not None:
            lis.syscall_entry(now, cpu, task, name)

    def syscall_exit(self, now: int, cpu: int, task: str) -> None:
        self.hits[_SYSCALL_EXIT] += 1
        self.rings[cpu].append((now, cpu, _SYSCALL_EXIT, (task,)))
        lis = self.listener
        if lis is not None:
            lis.syscall_exit(now, cpu, task)

    def frame_push(self, now: int, cpu: int, kind: str, label: str,
                   owner: str) -> None:
        self.hits[_FRAME_PUSH] += 1
        self.rings[cpu].append((now, cpu, _FRAME_PUSH, (kind, label, owner)))
        lis = self.listener
        if lis is not None:
            lis.frame_push(now, cpu, kind, label, owner)

    def frame_pop(self, now: int, cpu: int, kind: str, label: str,
                  owner: str) -> None:
        self.hits[_FRAME_POP] += 1
        self.rings[cpu].append((now, cpu, _FRAME_POP, (kind, label, owner)))
        lis = self.listener
        if lis is not None:
            lis.frame_pop(now, cpu, kind, label, owner)

    def latency_sample(self, now: int, cpu: int, task: str,
                       latency_ns: int) -> None:
        self.hits[_LATENCY_SAMPLE] += 1
        self.rings[cpu].append((now, cpu, _LATENCY_SAMPLE, (task, latency_ns)))

    def fault_inject(self, now: int, cpu: int, injector: str,
                     detail: str) -> None:
        self.hits[_FAULT_INJECT] += 1
        self.rings[cpu].append((now, cpu, _FAULT_INJECT, (injector, detail)))
        lis = self.listener
        if lis is not None:
            lis.fault_inject(now, cpu, injector, detail)
