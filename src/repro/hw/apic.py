"""Interrupt routing: IRQ descriptors and the I/O APIC.

Each interrupt line has a *requested* affinity (what was written to
``/proc/irq/N/smp_affinity``) and an *effective* affinity (after the
shield rewrite).  The APIC routes each raised interrupt to one online
CPU in the effective mask, either round-robin (the default behaviour of
2.4-era IRQ balancing across allowed CPUs) or fixed-lowest.

Delivery itself is a kernel matter: the APIC calls the ``deliver``
hook the kernel installed at boot, passing the chosen CPU and the
descriptor.  If the CPU has interrupts disabled the kernel pends the
IRQ on that CPU's local queue.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Optional, TYPE_CHECKING

from repro.core.affinity import CpuMask
from repro.sim.errors import InvalidMaskError, KernelPanic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.machine import Machine


class RoutingPolicy(enum.Enum):
    """How the APIC picks a CPU out of an effective affinity mask."""

    ROUND_ROBIN = "round_robin"
    LOWEST = "lowest"


#: Enum members this module's functions read, bound once (see
#: tests/test_hot_enum_reads.py).
_LOWEST = RoutingPolicy.LOWEST


class IrqDescriptor:
    """State for one interrupt line."""

    def __init__(self, irq: int, name: str, ncpus: int,
                 routing: RoutingPolicy = RoutingPolicy.ROUND_ROBIN) -> None:
        self.irq = irq
        self.name = name
        self.requested_affinity = CpuMask.all(ncpus)
        self.effective_affinity = CpuMask.all(ncpus)
        self.routing = routing
        self.raised = 0
        self.delivered: Dict[int, int] = {}
        self._rr_cursor = 0

    def account_delivery(self, cpu_index: int) -> None:
        self.delivered[cpu_index] = self.delivered.get(cpu_index, 0) + 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<irq{self.irq} {self.name} "
                f"eff={self.effective_affinity.to_proc()}>")


class Apic:
    """Routes raised interrupts to logical CPUs."""

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self.irqs: Dict[int, IrqDescriptor] = {}
        # Installed by the kernel at boot: deliver(cpu, desc).
        self.deliver: Callable[[object, IrqDescriptor], None] = _no_kernel

    def register_irq(self, irq: int, name: str,
                     routing: RoutingPolicy = RoutingPolicy.ROUND_ROBIN
                     ) -> IrqDescriptor:
        """Create (or return the existing) descriptor for line *irq*."""
        desc = self.irqs.get(irq)
        if desc is None:
            desc = IrqDescriptor(irq, name, len(self.machine.cpus), routing)
            self.irqs[irq] = desc
        return desc

    def descriptor(self, irq: int) -> IrqDescriptor:
        try:
            return self.irqs[irq]
        except KeyError:
            raise KernelPanic(f"raise of unregistered irq {irq}") from None

    # ------------------------------------------------------------------
    def set_requested_affinity(self, irq: int, mask: CpuMask) -> None:
        """The ``/proc/irq/N/smp_affinity`` write path."""
        if not mask:
            raise InvalidMaskError(f"empty affinity for irq {irq}")
        desc = self.descriptor(irq)
        desc.requested_affinity = mask
        # Effective affinity is recomputed by the shield controller; in
        # an unshielded system it simply follows the request.
        self.machine.on_irq_affinity_changed(desc)

    def route(self, desc: IrqDescriptor):
        """Pick the target CPU for one raise of *desc*.

        ``ROUND_ROBIN`` models the IO-APIC's lowest-priority delivery
        mode: an idle CPU (its TPR is lowest) wins the arbitration;
        among equally busy CPUs delivery rotates.
        """
        candidates = [
            self.machine.cpus[i] for i in desc.effective_affinity
            if i < len(self.machine.cpus) and self.machine.cpus[i].online
        ]
        if not candidates:
            # All allowed CPUs offline: fall back to CPU 0, as real
            # hardware falls back to the boot CPU.
            return self.machine.cpus[0]
        if desc.routing is _LOWEST or len(candidates) == 1:
            return candidates[0]
        idle = [c for c in candidates if not c.busy]
        if idle:
            cpu = idle[desc._rr_cursor % len(idle)]
        else:
            cpu = candidates[desc._rr_cursor % len(candidates)]
        desc._rr_cursor += 1
        return cpu

    def raise_irq(self, irq: int) -> None:
        """A device asserted interrupt line *irq*."""
        desc = self.descriptor(irq)
        desc.raised += 1
        cpu = self.route(desc)
        desc.account_delivery(cpu.index)
        sim = self.machine.sim
        tp = sim.tp
        if tp.enabled:
            tp.irq_raise(sim.now, cpu.index, irq, desc.name)
        self.deliver(cpu, desc)


def _no_kernel(cpu: object, desc: IrqDescriptor) -> None:
    raise KernelPanic(f"interrupt {desc} raised before a kernel was booted")
