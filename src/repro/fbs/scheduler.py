"""The frequency-based scheduler proper.

The scheduler owns a cyclic timing source (the RCIM's periodic timer,
or a bare simulator event when no card is present) and a table of
registered processes.  On every minor cycle it wakes the processes due
this cycle; a due process that has not yet returned to
:meth:`FrequencyBasedScheduler.wait` has overrun its frame.

Task-side protocol (inside a workload generator)::

    handle = fbs.register("control", period=4, cycle=0)
    while True:
        yield from fbs.wait(api, handle)      # block until my cycle
        ... do one frame's work ...
"""

from __future__ import annotations

import enum
from typing import Dict, Generator, List, Optional, TYPE_CHECKING

from repro.fbs.monitor import PerformanceMonitor
from repro.kernel import ops as op
from repro.kernel.sync.waitqueue import WaitQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.devices.rcim import RcimCard
    from repro.kernel.kernel import Kernel
    from repro.kernel.syscalls import UserApi


class OverrunPolicy(enum.Enum):
    """What a frame overrun does to the scheduler."""

    COUNT = "count"    # record and carry on (default)
    HALT = "halt"      # stop the scheduler (debugging)


class FbsProcess:
    """One registered process's schedule and runtime state."""

    def __init__(self, name: str, period: int, cycle: int) -> None:
        if period <= 0:
            raise ValueError("FBS period must be >= 1 cycle")
        if cycle < 0:
            raise ValueError("FBS starting cycle must be >= 0")
        self.name = name
        self.period = period
        self.cycle = cycle
        self.wq = WaitQueue(f"fbs:{name}")
        #: True from wakeup until the process calls wait() again.
        self.running_frame = False
        self.frame_started_ns: Optional[int] = None
        self.wakeups = 0

    def due(self, minor_cycle: int) -> bool:
        return minor_cycle % self.period == self.cycle % self.period

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FbsProcess {self.name} period={self.period} "
                f"cycle={self.cycle}>")


class FrequencyBasedScheduler:
    """Frame-based wakeup scheduler on a cyclic timing source."""

    def __init__(self, kernel: "Kernel",
                 cycle_ns: int,
                 cycles_per_frame: int = 100,
                 rcim: Optional["RcimCard"] = None,
                 overrun_policy: OverrunPolicy = OverrunPolicy.COUNT) -> None:
        if cycle_ns <= 0:
            raise ValueError("FBS cycle length must be positive")
        if cycles_per_frame <= 0:
            raise ValueError("FBS frame must contain >= 1 cycle")
        self.kernel = kernel
        self.sim = kernel.sim
        self.cycle_ns = cycle_ns
        self.cycles_per_frame = cycles_per_frame
        self.rcim = rcim
        self.overrun_policy = overrun_policy
        self.monitor = PerformanceMonitor()
        self.processes: Dict[str, FbsProcess] = {}
        self.minor_cycle = 0       # position within the major frame
        self.total_cycles = 0
        self.frames = 0
        self.running = False
        self.halted_on_overrun = False
        self._tick_event = None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, name: str, period: int, cycle: int = 0) -> FbsProcess:
        """Schedule *name* every *period* minor cycles, offset *cycle*."""
        if name in self.processes:
            raise ValueError(f"FBS process {name!r} already registered")
        if period > self.cycles_per_frame:
            raise ValueError(
                f"period {period} exceeds the {self.cycles_per_frame}-cycle "
                f"frame")
        proc = FbsProcess(name, period, cycle)
        self.processes[name] = proc
        return proc

    def unregister(self, name: str) -> None:
        self.processes.pop(name, None)

    # ------------------------------------------------------------------
    # Timing source
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin generating minor cycles (idempotent)."""
        if self.running:
            return
        self.running = True
        if self.rcim is not None:
            # Drive minor cycles off the RCIM's periodic interrupt:
            # chain onto the existing handler action so the driver's
            # own wakeups still happen.
            self.rcim.program_period(self.cycle_ns)
            existing = self.kernel._irq_table.get(self.rcim.irq)
            cost_key = existing[0] if existing else "irq.handler.rcim"
            prev_action = existing[1] if existing else (lambda cpu: None)

            def action(cpu_idx: int) -> None:
                prev_action(cpu_idx)
                self._minor_cycle_edge(cpu_idx)

            self.kernel.register_irq_handler(self.rcim.irq, cost_key, action)
            self.rcim.enable_timer()
            if not self.rcim.started:
                self.rcim.start()
        else:
            self._arm_fallback()

    def stop(self) -> None:
        self.running = False
        if self._tick_event is not None:
            self._tick_event.cancel()
            self._tick_event = None

    def _arm_fallback(self) -> None:
        """Plain simulator timing source (no RCIM attached): a
        simulator periodic firing every minor cycle."""
        self._tick_event = self.sim.periodic(
            self.cycle_ns, self._fallback_tick, label="fbs-cycle")

    def _fallback_tick(self) -> None:
        if not self.running:
            if self._tick_event is not None:
                self._tick_event.cancel()
                self._tick_event = None
            return
        self._minor_cycle_edge(cpu_idx=None)

    # ------------------------------------------------------------------
    # The minor-cycle edge
    # ------------------------------------------------------------------
    def _minor_cycle_edge(self, cpu_idx: Optional[int]) -> None:
        if not self.running or self.halted_on_overrun:
            return
        current = self.minor_cycle
        for proc in self.processes.values():
            if not proc.due(current):
                continue
            if proc.running_frame:
                # Still inside the previous frame: overrun.
                self.monitor.record_overrun(proc.name)
                if self.overrun_policy is OverrunPolicy.HALT:
                    self.halted_on_overrun = True
                    return
                continue  # no double wakeup; it must catch up first
            proc.running_frame = True
            proc.frame_started_ns = self.sim.now
            proc.wakeups += 1
            self.kernel.wake_up(proc.wq, all_waiters=True, from_cpu=cpu_idx)
        self.total_cycles += 1
        self.minor_cycle += 1
        if self.minor_cycle >= self.cycles_per_frame:
            self.minor_cycle = 0
            self.frames += 1

    # ------------------------------------------------------------------
    # Task-side protocol
    # ------------------------------------------------------------------
    def wait(self, api: "UserApi", proc: FbsProcess) -> Generator:
        """``fbs_wait()``: end the current frame, block until the next.

        Must be called from the registered process's own generator.
        """
        if proc.running_frame and proc.frame_started_ns is not None:
            self.monitor.record_cycle(
                proc.name, self.sim.now - proc.frame_started_ns)
        proc.running_frame = False
        proc.frame_started_ns = None

        def body() -> Generator:
            yield op.Compute(api.timing.sample("syscall.entry", api.rng),
                             kernel=True, label="fbs:wait")
            yield op.Block(proc.wq)

        yield from api.syscall("fbs_wait", body())

    # ------------------------------------------------------------------
    def report(self) -> str:
        header = (f"FBS: cycle {self.cycle_ns / 1e6:.3f} ms, "
                  f"{self.cycles_per_frame} cycles/frame, "
                  f"{self.frames} frames completed\n")
        return header + self.monitor.report()
