"""The Real-Time Clock and Interrupt Module (RCIM) PCI card.

Concurrent's RCIM provides high-resolution timers and externally
connected edge-triggered interrupts.  The behaviour the paper relies on
(section 6.2):

* a periodic timer whose *count register* is loaded with the period,
  decremented to zero, then automatically reloaded;
* the count register is directly mappable into user space, so after
  being woken the test reads it with negligible overhead and computes
  ``latency = initial_count - current_count`` (in time units).

We expose :meth:`read_count` returning the time since the current
period began, which is exactly what the benchmark derives from the
register arithmetic.
"""

from __future__ import annotations

from repro.hw.apic import RoutingPolicy
from repro.hw.devices.base import Device
from repro.sim.simtime import USEC

#: PCI interrupt line assigned to the RCIM card in the testbed.
RCIM_IRQ = 17


class RcimCard(Device):
    """RCIM with one periodic high-resolution timer and external
    edge-triggered interrupt inputs.

    The card multiplexes its sources onto one PCI interrupt line; a
    status register tells the driver which source(s) fired.
    """

    #: Number of external edge-triggered input lines on the card.
    EXTERNAL_LINES = 4

    def __init__(self, period_ns: int = 1000 * USEC, irq: int = RCIM_IRQ) -> None:
        super().__init__("rcim", irq, RoutingPolicy.LOWEST)
        if period_ns <= 0:
            raise ValueError("RCIM period must be positive")
        self.period_ns = period_ns
        self.cycle_start_ns = -1
        self.last_fire_ns = -1
        self.fires = 0
        self._timer_enabled = False
        self._periodic = None  # live PeriodicHandle while enabled+started
        # External edge inputs: per-line edge counters plus a pending
        # status bitmask (bit 0 = timer, bits 1.. = external lines).
        self.edge_counts = [0] * self.EXTERNAL_LINES
        self.last_edge_ns = [-1] * self.EXTERNAL_LINES
        self.status = 0

    def program_period(self, period_ns: int) -> None:
        """Load the count register's reload value."""
        if period_ns <= 0:
            raise ValueError("RCIM period must be positive")
        self.period_ns = period_ns
        if self._periodic is not None:
            self._periodic.set_period(period_ns)

    def enable_timer(self) -> None:
        if self._timer_enabled:
            return
        self._timer_enabled = True
        if self.started:
            self._begin_cycle()

    def on_start(self) -> None:
        if self._timer_enabled:
            self._begin_cycle()

    def _begin_cycle(self) -> None:
        assert self.sim is not None
        self.cycle_start_ns = self.sim.now
        self._periodic = self.sim.periodic(self.period_ns, self._fire,
                                           label="rcim-period")

    def _fire(self) -> None:
        if not (self.started and self._timer_enabled):
            if self._periodic is not None:
                self._periodic.cancel()
                self._periodic = None
            return
        assert self.sim is not None
        self.last_fire_ns = self.sim.now
        self.fires += 1
        self.status |= 1  # timer source bit
        self.raise_irq()
        # The hardware reloads the count register immediately; the next
        # periodic cycle begins at the moment of expiry.
        self.cycle_start_ns = self.sim.now

    # ------------------------------------------------------------------
    # External edge-triggered inputs
    # ------------------------------------------------------------------
    def trigger_external(self, line: int) -> None:
        """An external device asserted edge input *line*."""
        if not 0 <= line < self.EXTERNAL_LINES:
            raise ValueError(f"RCIM has no external line {line}")
        if not self.started:
            raise RuntimeError("RCIM edge before device start")
        assert self.sim is not None
        self.edge_counts[line] += 1
        self.last_edge_ns[line] = self.sim.now
        self.status |= 1 << (line + 1)
        self.raise_irq()

    def read_and_clear_status(self) -> int:
        """Driver-side: read the source bitmask and acknowledge."""
        status, self.status = self.status, 0
        return status

    def read_count(self) -> int:
        """Time elapsed in the current periodic cycle (ns).

        Mirrors ``initial_count - current_count`` on the real card.
        The mapped-register read costs essentially nothing, which is
        the point of the second interrupt-response test.
        """
        if self.cycle_start_ns < 0:
            return 0
        assert self.sim is not None
        return self.sim.now - self.cycle_start_ns
