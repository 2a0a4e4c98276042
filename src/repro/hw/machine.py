"""The simulated machine: topology, contention, devices.

A :class:`Machine` is built from a :class:`MachineSpec` describing the
paper's testbeds (dual Pentium 4 Xeon with hyperthreading for the
determinism experiments, dual Pentium 3 Xeon for the interrupt-response
experiments).  It owns the logical CPUs, physical cores, memory bus,
APIC and attached devices, and keeps each core's hyperthread
contention factor current; a CPU multiplies it with the memory bus's
factor when a frame starts (:meth:`LogicalCpu._start_top
<repro.hw.cpu.LogicalCpu._start_top>`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, TYPE_CHECKING

from repro.hw.apic import Apic, IrqDescriptor
from repro.hw.core import PhysicalCore
from repro.hw.cpu import LogicalCpu
from repro.hw.memory import MemoryBus
from repro.hw.tsc import Tsc

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.devices.base import Device
    from repro.sim.engine import Simulator


@dataclass
class MachineSpec:
    """Hardware description.

    Attributes
    ----------
    cores:
        Number of physical cores (the paper's machines have 2).
    hyperthreading:
        Whether each core exposes two logical CPUs.
    ht_speed_mean / ht_speed_jitter:
        Execution-unit contention factor when both siblings are busy.
    membus_epoch_ns / membus_coupling:
        Memory-bus contention model parameters (see
        :mod:`repro.hw.memory`).
    name:
        Label used in reports.
    """

    cores: int = 2
    hyperthreading: bool = False
    ht_speed_mean: float = 0.75
    ht_speed_jitter: float = 0.08
    membus_epoch_ns: int = 50_000_000
    membus_coupling: float = 0.04
    name: str = "dual-xeon"

    def ncpus(self) -> int:
        return self.cores * (2 if self.hyperthreading else 1)


def determinism_testbed(hyperthreading: bool) -> MachineSpec:
    """Dual 1.4 GHz Pentium 4 Xeon, 1 GB RAM (section 5.1's testbed)."""
    return MachineSpec(cores=2, hyperthreading=hyperthreading,
                       name="p4-xeon-1.4ghz")


def interrupt_testbed() -> MachineSpec:
    """Dual Pentium 3/4 Xeon without hyperthreading (section 6's testbeds)."""
    return MachineSpec(cores=2, hyperthreading=False,
                       name="p3-xeon-933mhz")


class Machine:
    """Simulated SMP machine."""

    def __init__(self, sim: "Simulator", spec: MachineSpec) -> None:
        if spec.cores <= 0:
            raise ValueError("a machine needs at least one core")
        self.sim = sim
        self.spec = spec
        self.cores: List[PhysicalCore] = []
        self.cpus: List[LogicalCpu] = []
        threads = 2 if spec.hyperthreading else 1
        for core_idx in range(spec.cores):
            core = PhysicalCore(core_idx, spec.ht_speed_mean,
                                spec.ht_speed_jitter)
            self.cores.append(core)
            for _thread in range(threads):
                cpu = LogicalCpu(sim, self, len(self.cpus), core)
                core.attach(cpu)
                self.cpus.append(cpu)
        self.memory = MemoryBus(spec.membus_epoch_ns, spec.membus_coupling)
        self.memory.attach(self)
        self.apic = Apic(self)
        self.tsc = Tsc(sim)
        self.devices: Dict[str, "Device"] = {}
        self._ht_rng = sim.rng.stream("ht-contention")
        sim.tp.configure(self.ncpus)

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    @property
    def ncpus(self) -> int:
        return len(self.cpus)

    def cpu(self, index: int) -> LogicalCpu:
        return self.cpus[index]

    def siblings(self, index: int) -> List[int]:
        """Logical CPUs sharing a core with *index* (excluding it)."""
        cpu = self.cpus[index]
        return [c.index for c in cpu.core.cpus if c is not cpu]

    # ------------------------------------------------------------------
    # Devices
    # ------------------------------------------------------------------
    def attach_device(self, device: "Device") -> None:
        if device.name in self.devices:
            raise ValueError(f"duplicate device name {device.name!r}")
        self.devices[device.name] = device
        device.attach(self)

    def device(self, name: str) -> "Device":
        return self.devices[name]

    # ------------------------------------------------------------------
    # Contention plumbing
    # ------------------------------------------------------------------
    def notify_busy_changed(self, cpu: LogicalCpu) -> None:
        """A CPU went busy or idle; update its hyperthread sibling."""
        sibling = cpu.sibling
        if sibling is None or not sibling.frames:
            # No sibling, or it is idle: nothing to resample (that
            # needs both busy) and retime would be a no-op.
            return
        if cpu.frames:
            # Entering a both-busy episode: draw its contention factor.
            cpu.core.resample_factor(self._ht_rng)
        sibling.retime()

    def on_irq_affinity_changed(self, desc: IrqDescriptor) -> None:
        """Hook overridden by the kernel's shield controller.

        In a bare machine (no shield support) the effective affinity
        simply tracks the requested one.
        """
        desc.effective_affinity = desc.requested_affinity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Machine {self.spec.name} cpus={self.ncpus} "
                f"ht={self.spec.hyperthreading}>")
