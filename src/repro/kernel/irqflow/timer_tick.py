"""The per-CPU local timer interrupt.

"The local timer interrupt interrupts every CPU in the system, by
default at a rate of 100 times per second ... This interrupt is
generally the most active interrupt in the system and therefore it is
the most likely interrupt to cause jitter to a real-time application."
(section 3.)

Each CPU's tick is an independently phased periodic event delivered
through the normal hardirq path, so a tick steals handler-duration
time from whatever is running and can trigger timeslice reschedules.
The shield's ``ltmr`` mask disables the tick on shielded CPUs -- the
capability the paper adds -- at the cost of losing CPU-time accounting
and profiling there.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel
    from repro.sim.events import PeriodicHandle


class LocalTimer:
    """Manages one periodic tick per CPU.

    Each CPU's tick is a simulator periodic
    (:meth:`repro.sim.engine.Simulator.periodic`): the hottest event
    stream in the whole simulation re-arms its one handle instead of
    allocating a fresh one 100 times per simulated second per CPU.
    """

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self.enabled: Dict[int, bool] = {}
        self._events: Dict[int, Optional["PeriodicHandle"]] = {}
        self.ticks: Dict[int, int] = {}

    def start_all(self) -> None:
        """Arm every CPU's tick, phase-shifted to avoid lockstep."""
        tick = self.kernel.config.tick_ns
        for cpu in range(self.kernel.ncpus):
            self.enabled[cpu] = True
            self.ticks[cpu] = 0
            phase = (tick * (2 * cpu + 1)) // (2 * self.kernel.ncpus)
            self._arm(cpu, first_delay=tick + phase)

    def _arm(self, cpu: int, first_delay: Optional[int] = None) -> None:
        tick = self.kernel.config.tick_ns
        self._events[cpu] = self.kernel.sim.periodic(
            tick, lambda: self._fire(cpu), first_delay=first_delay,
            label=(f"ltmr-cpu{cpu}"
                   if self.kernel.sim.trace.enabled else "ltmr"))

    def _fire(self, cpu: int) -> None:
        if not self.enabled.get(cpu, False):
            # Defensive: a disable that raced the current fire.  Stop
            # the stream the way the old self-rescheduling loop did by
            # simply not re-arming.
            event = self._events.get(cpu)
            if event is not None:
                event.cancel()
                self._events[cpu] = None
            return
        self.ticks[cpu] = self.ticks.get(cpu, 0) + 1
        self.kernel.deliver_local_timer(cpu)

    def set_enabled(self, cpu: int, enabled: bool) -> None:
        """Shield plumbing: stop or restart one CPU's tick."""
        was = self.enabled.get(cpu, False)
        self.enabled[cpu] = enabled
        if enabled and not was:
            self._arm(cpu)
        elif not enabled and was:
            event = self._events.get(cpu)
            if event is not None:
                event.cancel()
                self._events[cpu] = None

    def is_enabled(self, cpu: int) -> bool:
        return self.enabled.get(cpu, False)
