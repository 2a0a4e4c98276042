"""Graphics driver: interrupt handling for the X11perf load.

The graphics controller's completion interrupts are handled with a
moderate-cost top half (the nVidia-class hardware of the era required
non-trivial register work per interrupt) plus a small tasklet.  No
task-visible API: the device only matters as an interrupt source on
unshielded CPUs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.kernel.drivers.base import CharDriver
from repro.kernel.irqflow.softirq import SoftirqVector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.devices.gpu import GraphicsController
    from repro.kernel.kernel import Kernel

#: Enum members this module's functions read, bound once (see
#: tests/test_hot_enum_reads.py).
_TASKLET = SoftirqVector.TASKLET


class GfxDriver(CharDriver):
    """Kernel half of the graphics controller."""

    multithreaded = False

    def __init__(self, kernel: "Kernel", gpu: "GraphicsController") -> None:
        super().__init__(kernel, "/dev/gfx")
        self.gpu = gpu
        self.handled = 0
        kernel.register_irq_handler(gpu.irq, "irq.handler.gfx",
                                    self._handle_irq)

    def _handle_irq(self, cpu_idx: int) -> None:
        self.handled += 1
        work = self.sample("softirq.gfx_tasklet")
        if work > 0:
            self.kernel.raise_softirq(cpu_idx, _TASKLET, work, from_irq=True)
