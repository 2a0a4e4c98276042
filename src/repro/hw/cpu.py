"""Logical CPUs and the execution-frame stack.

A :class:`LogicalCpu` executes a stack of :class:`ExecFrame` objects.
The top frame is the code currently running; pushing a frame preempts
the one below it (its already-executed work is banked), and popping
resumes the frame underneath.  Frames model:

* ``TASK``    -- a task's compute segment (user or kernel mode),
* ``HARDIRQ`` -- an interrupt handler (runs with interrupts disabled),
* ``SOFTIRQ`` -- a bottom-half work item (interrupts enabled),
* ``SPIN``    -- busy-waiting on a contended spinlock,
* ``SWITCH``  -- context-switch overhead.

Wall-clock duration of a frame is ``work / speed`` where *speed* is the
product of the core's hyperthread contention factor and the memory
bus's contention factor, taken when the frame starts.  When those
factors change (a sibling logical CPU goes busy or idle, the bus
contention epoch rolls over) the machine calls
:meth:`LogicalCpu.retime` and the in-flight frame is re-priced.

The CPU layer knows nothing about scheduling policy: the kernel
installs callbacks for frame completion, interrupt delivery and
"stack became quiescent" events.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable, Deque, List, Optional, TYPE_CHECKING

from repro.sim.errors import KernelPanic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.core import PhysicalCore
    from repro.hw.machine import Machine
    from repro.sim.engine import Simulator


class FrameKind(enum.Enum):
    """What kind of execution a frame represents.

    The frame tracepoints read ``kind._value_``, a plain attribute, not
    the ``Enum.value`` descriptor: that is Python-level enum code, and
    it would run on every push and pop.
    """

    TASK = "task"
    HARDIRQ = "hardirq"
    SOFTIRQ = "softirq"
    SPIN = "spin"
    SWITCH = "switch"


#: The members the frame path compares against, bound once: on Python
#: 3.10 and 3.11 each ``FrameKind.TASK`` read goes through
#: ``EnumType.__getattr__`` (tests/test_hot_enum_reads.py says more).
_TASK = FrameKind.TASK
_SPIN = FrameKind.SPIN


class ExecFrame:
    """One unit of preemptible execution.

    Parameters
    ----------
    kind:
        The :class:`FrameKind`.
    work:
        Amount of work in nanoseconds at speed 1.0.  ``None`` means
        open-ended (used by SPIN frames, which end via :attr:`granted`).
    on_complete:
        Called (with the frame) when the work is fully executed, after
        the frame has been popped.
    label:
        Diagnostic tag.
    """

    __slots__ = ("kind", "work", "remaining", "on_complete", "label",
                 "granted", "started_at", "speed", "_event", "owner")

    def __init__(self, kind: FrameKind, work: Optional[int],
                 on_complete: Callable[["ExecFrame"], None],
                 label: str = "", owner: object = None) -> None:
        if work is not None and work < 0:
            raise KernelPanic(f"negative frame work {work} ({label})")
        self.kind = kind
        self.work = work
        self.remaining: Optional[float] = float(work) if work is not None else None
        self.on_complete = on_complete
        self.label = label
        self.owner = owner          # task / irq descriptor / lock, for traces
        self.granted = False        # SPIN frames: lock has been handed over
        self.started_at: Optional[int] = None
        self.speed: float = 1.0
        self._event: Optional[int] = None   # completion's engine key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Frame {self.kind.value} {self.label!r} rem={self.remaining}>"


class LogicalCpu:
    """One logical processor (a hyperthread sibling or a whole core)."""

    def __init__(self, sim: "Simulator", machine: "Machine", index: int,
                 core: "PhysicalCore") -> None:
        self.sim = sim
        self.machine = machine
        self.index = index
        self.core = core
        self.tp = sim.tp
        self.frames: List[ExecFrame] = []
        #: Frame counts the kernel's per-op context checks read instead
        #: of scanning the stack: hss_count covers HARDIRQ/SOFTIRQ/SWITCH
        #: frames, spin_count covers SPIN frames.  They are maintained on
        #: push/pop; rarer per-kind questions go through in_kind.
        self.hss_count = 0
        self.spin_count = 0
        #: Hyperthread sibling on the same core (set by the core when
        #: a second logical CPU attaches); None on non-HT cores.
        self.sibling: Optional["LogicalCpu"] = None
        self.pending_irqs: Deque[object] = deque()
        self._irq_disable_depth = 0
        self.online = True
        # Kernel hooks, installed at boot by the kernel layer.
        self.on_quiescent: Callable[["LogicalCpu"], None] = lambda cpu: None
        self.on_irq_enabled: Callable[["LogicalCpu"], None] = lambda cpu: None
        # Statistics.
        self.busy_ns = 0
        self.frames_run = 0
        self._busy_since: Optional[int] = None

    # ------------------------------------------------------------------
    # Interrupt enable/disable state
    # ------------------------------------------------------------------
    @property
    def irqs_enabled(self) -> bool:
        """True when the CPU will accept interrupt delivery right now."""
        return self._irq_disable_depth == 0

    def irq_disable(self) -> None:
        """Disable interrupt delivery (nests)."""
        self._irq_disable_depth += 1
        if self._irq_disable_depth == 1:
            tp = self.tp
            if tp.enabled:
                tp.irqs_off(self.sim.now, self.index)

    def irq_enable(self) -> None:
        """Re-enable interrupt delivery; drains pended IRQs at depth 0."""
        if self._irq_disable_depth <= 0:
            raise KernelPanic(f"cpu{self.index}: irq_enable underflow")
        self._irq_disable_depth -= 1
        if self._irq_disable_depth == 0:
            tp = self.tp
            if tp.enabled:
                tp.irqs_on(self.sim.now, self.index)
            if self.pending_irqs:
                self.on_irq_enabled(self)

    # ------------------------------------------------------------------
    # Busy state (for hyperthread / memory contention)
    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """True while any frame is on the stack."""
        return bool(self.frames)

    @property
    def top(self) -> Optional[ExecFrame]:
        return self.frames[-1] if self.frames else None

    def in_kind(self, kind: FrameKind) -> bool:
        """True if any frame of *kind* is on the stack.

        A scan of a stack a few frames deep: the kernel asks once per
        interrupt exit, far less often than frames are pushed and
        popped, so no per-kind count is kept.
        """
        return any(frame.kind is kind for frame in self.frames)

    # ------------------------------------------------------------------
    # Frame stack operations
    # ------------------------------------------------------------------
    def push_frame(self, frame: ExecFrame) -> None:
        """Preempt the current top frame (if any) and run *frame*."""
        frames = self.frames
        was_busy = bool(frames)
        if frames:
            self._pause_top()
        frames.append(frame)
        kind = frame.kind
        if kind is not _TASK:
            if kind is _SPIN:
                self.spin_count += 1
            else:
                self.hss_count += 1
        tp = self.tp
        if tp.enabled:
            tp.frame_push(self.sim.now, self.index, kind._value_, frame.label,
                          getattr(frame.owner, "name", ""))
        self._start_top()
        if not was_busy:
            # A frame can be pushed from inside another frame's
            # completion callback (stack momentarily empty); keep the
            # original episode start in that case.
            if self._busy_since is None:
                self._busy_since = self.sim.now
            self.machine.notify_busy_changed(self)

    def _start_top(self) -> None:
        frame = self.frames[-1]
        frame.started_at = self.sim.now
        if frame.kind is _SPIN:
            # Spin frames burn CPU until granted; no completion event.
            if frame.granted:
                # Lock was handed over while we were preempted.
                self._complete_top()
            return
        # The hyperthread factor (the core's contention factor while
        # the sibling runs a frame, else 1) times the memory-bus
        # factor, floored at 0.01: the one speed rule, applied once
        # per frame start.
        sibling = self.sibling
        if sibling is None or not sibling.frames or not sibling.online:
            ht = 1.0
        else:
            ht = self.core._current_factor
        mem = self.machine.memory
        mf = mem._factors.get(self.index)
        if mf is None:
            mf = mem.speed_factor(self)
        speed = ht * mf
        if speed < 0.01:
            speed = 0.01
        frame.speed = speed
        remaining = frame.remaining
        assert remaining is not None
        if speed == 1.0:
            # Uncontended fast path: ceil without the float divide.
            duration = int(remaining)
            if duration != remaining:
                duration += 1
        else:
            # remaining >= 0 and speed > 0, so the ceil never goes
            # negative; same divide-free ceil as the fast path.
            q = remaining / speed
            duration = int(q)
            if duration != q:
                duration += 1
        sim = self.sim
        frame._event = sim.schedule(sim.now + duration, self._on_frame_event)

    def _pause_top(self) -> None:
        frame = self.frames[-1]
        if frame.kind is not _SPIN and frame.started_at is not None:
            elapsed = self.sim.now - frame.started_at
            rem = frame.remaining - elapsed * frame.speed
            frame.remaining = rem if rem > 0.0 else 0.0
        frame.started_at = None
        if frame._event is not None:
            self.sim.cancel(frame._event)
            frame._event = None

    def _on_frame_event(self) -> None:
        """Completion event fired for the (still top) frame.

        This is :meth:`_complete_top` fused into the event callback --
        the per-op hot path.  The cancel branch cannot apply here (the
        event just fired) and the frame is known to be top-of-stack.
        """
        frame = self.frames.pop()
        kind = frame.kind
        if kind is not _TASK:
            if kind is _SPIN:
                self.spin_count -= 1
            else:
                self.hss_count -= 1
        self.frames_run += 1
        frame.started_at = None
        frame._event = None
        frame.remaining = 0.0
        tp = self.tp
        if tp.enabled:
            tp.frame_pop(self.sim.now, self.index, kind._value_, frame.label,
                         getattr(frame.owner, "name", ""))
        # The completion callback may push new frames (e.g. chained
        # interrupts); resume the underlying frame only if it is still
        # exposed afterwards.
        frame.on_complete(frame)
        self._after_pop()

    def _complete_top(self) -> None:
        frame = self.frames.pop()
        kind = frame.kind
        if kind is not _TASK:
            if kind is _SPIN:
                self.spin_count -= 1
            else:
                self.hss_count -= 1
        self.frames_run += 1
        frame.started_at = None
        if frame._event is not None:
            self.sim.cancel(frame._event)
            frame._event = None
        tp = self.tp
        if tp.enabled:
            tp.frame_pop(self.sim.now, self.index, kind._value_, frame.label,
                         getattr(frame.owner, "name", ""))
        # The completion callback may push new frames (e.g. chained
        # interrupts); resume the underlying frame only if it is still
        # exposed afterwards.
        frame.on_complete(frame)
        self._after_pop()

    def pop_frame(self, frame: ExecFrame) -> None:
        """Forcefully remove *frame* (must be top); used by the kernel
        when a task frame is descheduled with work remaining."""
        if not self.frames or self.frames[-1] is not frame:
            raise KernelPanic(
                f"cpu{self.index}: pop_frame of non-top frame {frame}")
        self._pause_top()
        self.frames.pop()
        kind = frame.kind
        if kind is not _TASK:
            if kind is _SPIN:
                self.spin_count -= 1
            else:
                self.hss_count -= 1
        tp = self.tp
        if tp.enabled:
            tp.frame_pop(self.sim.now, self.index, kind._value_, frame.label,
                         getattr(frame.owner, "name", ""))
        self._after_pop()

    def _after_pop(self) -> None:
        if self.frames:
            top = self.frames[-1]
            if top.started_at is None:
                self._start_top()
        else:
            if self._busy_since is not None:
                self.busy_ns += self.sim.now - self._busy_since
                self._busy_since = None
            self.machine.notify_busy_changed(self)
            self.on_quiescent(self)

    def grant_spin(self, frame: ExecFrame) -> None:
        """A contended lock has been handed to the spinning *frame*."""
        frame.granted = True
        if self.frames and self.frames[-1] is frame:
            self._complete_top()
        # Otherwise the spin frame is buried under interrupt frames and
        # will complete the moment it is resumed (see _start_top).

    def retime(self) -> None:
        """Re-price the in-flight frame after a speed-factor change."""
        if not self.frames:
            return
        top = self.frames[-1]
        if top.kind is _SPIN or top.started_at is None:
            return
        self._pause_top()
        self._start_top()

    # ------------------------------------------------------------------
    # Interrupt pend queue (local APIC holding pended vectors)
    # ------------------------------------------------------------------
    def pend_irq(self, irq: object) -> None:
        """Queue an interrupt for delivery once interrupts re-enable."""
        self.pending_irqs.append(irq)
        tp = self.tp
        if tp.enabled:
            tp.irq_pend(self.sim.now, self.index,
                        getattr(irq, "irq", -1), getattr(irq, "name", "?"))

    def take_pending_irq(self) -> Optional[object]:
        """Dequeue the next pended interrupt, if any."""
        if self.pending_irqs:
            return self.pending_irqs.popleft()
        return None

    # ------------------------------------------------------------------
    def utilization(self) -> float:
        """Fraction of elapsed simulation time this CPU was busy."""
        total = self.sim.now
        if total == 0:
            return 0.0
        busy = self.busy_ns
        if self._busy_since is not None:
            busy += self.sim.now - self._busy_since
        return busy / total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<cpu{self.index} frames={[f.kind.value for f in self.frames]} "
                f"irqs={'on' if self.irqs_enabled else 'off'}>")
