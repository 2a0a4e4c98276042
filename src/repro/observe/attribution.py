"""The latency attribution engine.

For every latency sample the measurement program records, decompose
the sample window ``[end - latency, end]`` into mechanism buckets --
the paper's "where does interrupt-response time go" question:

``task``
    the watched task itself executing,
``handler``
    hardirq handler execution (the device's or anyone else's),
``softirq``
    bottom-half processing (softirq frames and ksoftirqd drains),
``switch``
    context-switch overhead,
``irq_off``
    interrupt delivery or preemption blocked by an irq-off window,
``preempt_off``
    a non-preemptible section (spinlock held, or kernel mode on a
    kernel without the preemption patch),
``bkl``
    Big Kernel Lock involvement (holder running, or spinning on it),
``lock``
    spinning on an ordinary (non-BKL) spinlock,
``runq_wait``
    runnable but waiting for the scheduler,
``pre_wake``
    blocked with nothing in the way (the device interval itself),
``fault``
    injected interference (simfault): a ``fault:``-named storm
    handler executing, or a ``fault:``-named rogue task in the way,
``other``
    bookkeeping residue (state lag around window edges).

The engine is an online :class:`~repro.observe.tracepoints.TraceListener`:
it consumes tracepoints as they fire and maintains compact per-CPU
context timelines plus the watched task's state timeline.  When the
tracer observes a recorder sample it calls :meth:`on_sample`, which
partitions the window by walking those timelines.  Because the buckets
form a complete partition of the window, the components sum to the
recorded end-to-end latency **exactly** -- the CI smoke step's 1%
criterion holds by construction, and any violation indicates timeline
corruption.

Timelines are pruned after every sample (windows only move forward),
so memory stays bounded regardless of run length.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, List, Optional, Tuple

from repro.observe.tracepoints import TraceListener

#: Every attribution bucket, in report order.
BUCKETS = ("task", "handler", "softirq", "switch", "irq_off",
           "preempt_off", "bkl", "lock", "runq_wait", "pre_wake",
           "fault", "other")

#: Injected-interference naming convention: every simfault-owned task,
#: IRQ descriptor and tracepoint carries this prefix, which is what
#: lets attribution blame faults without new plumbing.
FAULT_PREFIX = "fault:"

_RUNNING = "running"
_RUNNABLE = "runnable"
_BLOCKED = "blocked"


def _t0(entry: Tuple) -> int:
    return entry[0]


class _CpuState:
    """One CPU's live context plus its snapshot timeline."""

    __slots__ = ("stack", "irqoff", "softirq_depth", "timeline")

    def __init__(self) -> None:
        #: Execution-frame mirror: (kind, owner, lock_name, lock_is_bkl).
        self.stack: List[Tuple[str, str, str, bool]] = []
        self.irqoff = False
        self.softirq_depth = 0
        #: (time, ctx) snapshots; ctx shapes are built in _snap().
        self.timeline: List[Tuple[int, Tuple]] = [(0, ("idle", False, False))]


class AttributionEngine(TraceListener):
    """Decomposes latency samples into mechanism buckets."""

    def __init__(self, ncpus: int, preemptible: bool,
                 watch: Optional[str] = None) -> None:
        self.ncpus = ncpus
        self.preemptible = preemptible
        self.watch = watch
        self._cpus = [_CpuState() for _ in range(ncpus)]
        #: Watched-task state timeline: (t, state, cpu, wake_from_cpu).
        self._mtl: List[Tuple[int, str, int, int]] = [(0, _RUNNABLE, 0, -1)]
        # Cross-CPU task flags, keyed by task name.
        self._in_kernel: Dict[str, bool] = {}
        self._preempt: Dict[str, bool] = {}
        self._bkl_owner: Optional[str] = None
        #: task -> (lock_name, is_bkl) while spinning (set at contend).
        self._contended: Dict[str, Tuple[str, bool]] = {}
        #: (end, latency, breakdown) per recorded sample.
        self.samples: List[Tuple[int, int, Dict[str, int]]] = []

    # ==================================================================
    # Tracepoint listener callbacks (online state maintenance)
    # ==================================================================
    def _snap(self, now: int, cs: _CpuState) -> None:
        """Stamp *cs*'s context (as :meth:`_classify` reads it) at *now*."""
        stack = cs.stack
        if not stack:
            ctx: Tuple = ("idle", cs.irqoff, cs.softirq_depth > 0)
        else:
            kind, owner, lock_name, lock_bkl = stack[-1]
            if kind == "task":
                ctx = ("task", owner, cs.irqoff,
                       self._preempt.get(owner, False),
                       self._in_kernel.get(owner, False),
                       owner != "" and owner == self._bkl_owner,
                       cs.softirq_depth > 0)
            elif kind == "spin":
                ctx = ("spin", owner, lock_name, lock_bkl, cs.irqoff)
            elif kind == "hardirq":
                # Carry the owning descriptor's name so injected storm
                # lines (named "fault:*") land in the fault bucket.
                ctx = ("hardirq", owner.startswith(FAULT_PREFIX))
            else:
                ctx = (kind,)  # "softirq" | "switch"
        tl = cs.timeline
        last = tl[-1]
        if last[0] == now:
            tl[-1] = (now, ctx)
        elif last[1] != ctx:
            tl.append((now, ctx))

    # -- frames ---------------------------------------------------------
    def frame_push(self, now: int, cpu: int, kind: str, label: str,
                   owner: str) -> None:
        cs = self._cpus[cpu]
        if kind == "spin":
            lock_name, lock_bkl = self._contended.get(owner, ("?", False))
            cs.stack.append((kind, owner, lock_name, lock_bkl))
        else:
            cs.stack.append((kind, owner, "", False))
        self._snap(now, cs)

    def frame_pop(self, now: int, cpu: int, kind: str, label: str,
                  owner: str) -> None:
        cs = self._cpus[cpu]
        if cs.stack:
            cs.stack.pop()
        self._snap(now, cs)

    # -- irq / softirq context ------------------------------------------
    def irqs_off(self, now: int, cpu: int) -> None:
        cs = self._cpus[cpu]
        cs.irqoff = True
        self._snap(now, cs)

    def irqs_on(self, now: int, cpu: int) -> None:
        cs = self._cpus[cpu]
        cs.irqoff = False
        self._snap(now, cs)

    def softirq_entry(self, now: int, cpu: int, vec: int) -> None:
        cs = self._cpus[cpu]
        cs.softirq_depth += 1
        self._snap(now, cs)

    def softirq_exit(self, now: int, cpu: int, vec: int) -> None:
        cs = self._cpus[cpu]
        if cs.softirq_depth > 0:
            cs.softirq_depth -= 1
        self._snap(now, cs)

    # -- task flags -----------------------------------------------------
    def preempt_off(self, now: int, cpu: int, task: str) -> None:
        self._preempt[task] = True
        self._snap(now, self._cpus[cpu])

    def preempt_on(self, now: int, cpu: int, task: str) -> None:
        self._preempt[task] = False
        self._snap(now, self._cpus[cpu])

    def syscall_entry(self, now: int, cpu: int, task: str,
                      name: str) -> None:
        self._in_kernel[task] = True
        self._snap(now, self._cpus[cpu])

    def syscall_exit(self, now: int, cpu: int, task: str) -> None:
        self._in_kernel[task] = False
        self._snap(now, self._cpus[cpu])

    # -- locks ----------------------------------------------------------
    def lock_acquire(self, now: int, cpu: int, lock: str, task: str,
                     is_bkl: bool) -> None:
        self._contended.pop(task, None)
        if is_bkl:
            self._bkl_owner = task
        self._snap(now, self._cpus[cpu])

    def lock_contended(self, now: int, cpu: int, lock: str, task: str,
                       is_bkl: bool) -> None:
        self._contended[task] = (lock, is_bkl)

    def lock_release(self, now: int, cpu: int, lock: str, task: str,
                     hold_ns: int, is_bkl: bool) -> None:
        if is_bkl and self._bkl_owner == task:
            self._bkl_owner = None
        self._snap(now, self._cpus[cpu])

    # -- scheduler / watched-task state ---------------------------------
    def sched_switch(self, now: int, cpu: int, task: str) -> None:
        if task == self.watch:
            self._mtl.append((now, _RUNNING, cpu, -1))
        self._snap(now, self._cpus[cpu])

    def sched_desched(self, now: int, cpu: int, task: str,
                      runnable: bool, target: int) -> None:
        if task == self.watch:
            if runnable:
                self._mtl.append((now, _RUNNABLE, target, -1))
            else:
                self._mtl.append((now, _BLOCKED, cpu, -1))

    def sched_wake(self, now: int, cpu: int, task: str,
                   from_cpu: int) -> None:
        if task == self.watch:
            self._mtl.append((now, _RUNNABLE, cpu, from_cpu))

    def task_exit(self, now: int, cpu: int, task: str) -> None:
        self._in_kernel.pop(task, None)
        self._preempt.pop(task, None)
        if task == self.watch:
            self._mtl.append((now, _BLOCKED, cpu, -1))

    # ==================================================================
    # Sample attribution
    # ==================================================================
    def on_sample(self, end: int, latency: int) -> Dict[str, int]:
        """Attribute one recorded sample; returns its breakdown."""
        breakdown = self.attribute(end, latency)
        self.samples.append((end, latency, breakdown))
        self._prune(end)
        return breakdown

    def attribute(self, end: int, latency: int) -> Dict[str, int]:
        """Partition ``[end - latency, end)`` into bucket durations."""
        breakdown: Dict[str, int] = {}
        if latency <= 0:
            return breakdown
        start = end - latency
        entries = self._mtl
        j = bisect_right(entries, start, key=_t0) - 1
        if j < 0:
            j = 0
        t = start
        n = len(entries)
        while t < end:
            _, state, mcpu, _from = entries[j]
            nxt = entries[j + 1] if j + 1 < n else None
            seg_end = min(end, nxt[0]) if nxt is not None else end
            if seg_end > t:
                cpu = mcpu
                if (state == _BLOCKED and nxt is not None
                        and nxt[1] == _RUNNABLE and nxt[3] >= 0):
                    # The wake that ends this blocked span names the
                    # CPU whose handler path produced it; that is the
                    # CPU whose context explains the delay.
                    cpu = nxt[3]
                if cpu < 0 or cpu >= self.ncpus:
                    cpu = 0
                self._attribute_span(breakdown, state, cpu, t, seg_end)
            t = seg_end
            if nxt is None:
                break
            j += 1
        return breakdown

    def _attribute_span(self, breakdown: Dict[str, int], state: str,
                        cpu: int, a: int, b: int) -> None:
        tl = self._cpus[cpu].timeline
        i = bisect_right(tl, a, key=_t0) - 1
        ctx = tl[i][1] if i >= 0 else ("idle", False, False)
        t = a
        for k in range(max(i, 0) + (1 if i >= 0 else 0), len(tl)):
            nt, nctx = tl[k]
            if nt >= b:
                break
            if nt > t:
                bucket = self._classify(state, ctx)
                breakdown[bucket] = breakdown.get(bucket, 0) + (nt - t)
                t = nt
            ctx = nctx
        if b > t:
            bucket = self._classify(state, ctx)
            breakdown[bucket] = breakdown.get(bucket, 0) + (b - t)

    def _classify(self, state: str, ctx: Tuple) -> str:
        code = ctx[0]
        if state == _RUNNING:
            if code == "task":
                return "task" if ctx[1] == self.watch else "other"
            if code == "hardirq":
                return "fault" if ctx[1] else "handler"
            if code == "softirq":
                return "softirq"
            if code == "switch":
                return "switch"
            if code == "spin":
                return "bkl" if ctx[3] else "lock"
            return "other"
        if state == _RUNNABLE:
            if code == "hardirq":
                return "fault" if ctx[1] else "handler"
            if code == "softirq":
                return "softirq"
            if code == "switch":
                return "switch"
            if code == "spin":
                return "bkl" if ctx[3] else "preempt_off"
            if code == "task":
                _, owner, irqoff, preempt, in_kernel, holds_bkl, softi = ctx
                if owner == self.watch:
                    return "task"
                if owner.startswith(FAULT_PREFIX):
                    return "fault"
                if softi:
                    return "softirq"
                if irqoff:
                    return "irq_off"
                if holds_bkl:
                    return "bkl"
                if preempt:
                    return "preempt_off"
                if in_kernel and not self.preemptible:
                    return "preempt_off"
                return "runq_wait"
            return "runq_wait"  # idle: the scheduler is about to run us
        # BLOCKED: what (if anything) stood between the device and the
        # wake on the CPU that eventually delivered it.
        if code == "hardirq":
            return "fault" if ctx[1] else "handler"
        if code == "softirq":
            return "softirq"
        if code == "switch":
            return "switch"
        if code == "spin":
            return "irq_off" if ctx[4] else "pre_wake"
        if code == "task":
            _, owner, irqoff, preempt, in_kernel, holds_bkl, softi = ctx
            if owner.startswith(FAULT_PREFIX) and (irqoff or holds_bkl):
                return "fault"
            if irqoff:
                return "irq_off"
            if softi:
                return "softirq"
            return "pre_wake"
        # idle
        return "irq_off" if ctx[1] else "pre_wake"

    def _prune(self, upto: int) -> None:
        """Drop timeline history before *upto* (windows move forward)."""
        for cs in self._cpus:
            tl = cs.timeline
            i = bisect_right(tl, upto, key=_t0) - 1
            if i > 0:
                del tl[:i]
        mtl = self._mtl
        i = bisect_right(mtl, upto, key=_t0) - 1
        if i > 0:
            del mtl[:i]

    # ==================================================================
    # Reporting
    # ==================================================================
    def current_cpu(self) -> int:
        """The watched task's most recent known CPU."""
        return max(0, min(self._mtl[-1][2], self.ncpus - 1))

    def sum_check(self) -> Dict[str, Any]:
        """Per-sample closure check: components must sum to latency."""
        max_abs = 0
        max_rel = 0.0
        for _end, latency, breakdown in self.samples:
            err = abs(latency - sum(breakdown.values()))
            if err > max_abs:
                max_abs = err
            if latency > 0:
                rel = err / latency
                if rel > max_rel:
                    max_rel = rel
        return {
            "samples": len(self.samples),
            "max_abs_err_ns": max_abs,
            "max_rel_err": max_rel,
            "ok": max_rel <= 0.01,
        }

    def report(self, threshold_pct: float = 99.0, top: int = 10
               ) -> Dict[str, Any]:
        """Blame data for samples at or above the percentile threshold."""
        import numpy as np

        attributed = [s for s in self.samples if s[1] > 0]
        threshold_ns = 0.0
        if attributed:
            lat = np.asarray([s[1] for s in attributed], dtype=np.int64)
            threshold_ns = float(np.percentile(lat, threshold_pct))
        selected = [s for s in attributed if s[1] >= threshold_ns]
        aggregate: Dict[str, int] = {}
        for _end, _latency, breakdown in selected:
            for bucket, ns in breakdown.items():
                aggregate[bucket] = aggregate.get(bucket, 0) + ns
        worst = sorted(selected, key=lambda s: (-s[1], s[0]))[:top]
        return {
            "watched": self.watch,
            "threshold_pct": threshold_pct,
            "threshold_ns": threshold_ns,
            "samples": len(self.samples),
            "attributed": len(selected),
            "aggregate": aggregate,
            "top_samples": [
                {"end_ns": end, "latency_ns": latency,
                 "breakdown": dict(breakdown)}
                for end, latency, breakdown in worst
            ],
            "sum_check": self.sum_check(),
        }
