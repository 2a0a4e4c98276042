"""Testbed assembly: machine + kernel + devices + drivers in one call.

A :class:`Bench` is a booted simulated system with every device the
paper's experiments touch already attached and its driver registered.
Experiment runners add workloads, configure shielding through
``/proc``, and drive the simulation until their measurement program
finishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.affinity import CpuMask
from repro.hw.devices.disk import ScsiDisk
from repro.hw.devices.gpu import GraphicsController
from repro.hw.devices.nic import EthernetNic, TrafficFlow
from repro.hw.devices.rcim import RcimCard
from repro.hw.devices.rtc import RtcDevice
from repro.hw.machine import Machine, MachineSpec, interrupt_testbed
from repro.kernel.config import KernelConfig
from repro.kernel.drivers.blockdev import BlockDriver
from repro.kernel.drivers.gfx import GfxDriver
from repro.kernel.drivers.net import NetDriver
from repro.kernel.drivers.rcim_dev import RcimDriver
from repro.kernel.drivers.rtc_dev import RtcDriver
from repro.kernel.kernel import Kernel
from repro.sim.engine import Simulator
from repro.sim.errors import SimulationStalledError
from repro.sim.simtime import MSEC, SEC, USEC


@dataclass
class Bench:
    """A fully assembled simulated system."""

    sim: Simulator
    machine: Machine
    kernel: Kernel
    rtc: RtcDevice
    rcim: RcimCard
    nic: EthernetNic
    disk: ScsiDisk
    gpu: GraphicsController
    rtc_driver: RtcDriver
    rcim_driver: RcimDriver
    net_driver: NetDriver
    block_driver: BlockDriver
    gfx_driver: GfxDriver

    # ------------------------------------------------------------------
    def start_devices(self) -> None:
        for device in (self.rtc, self.rcim, self.nic, self.disk, self.gpu):
            device.start()

    def add_background_broadcast(self, packets_per_sec: float = 40.0) -> None:
        """The 'standard broadcast traffic' of section 6.1's network."""
        self.nic.add_flow(TrafficFlow("broadcast", packets_per_sec,
                                      burst_mean=1.5))

    # ------------------------------------------------------------------
    def shield_cpu(self, cpu: int, procs: bool = True, irqs: bool = True,
                   ltmr: bool = True) -> None:
        """Shield *cpu* via the /proc interface (as an admin would)."""
        mask = CpuMask.single(cpu).to_proc()
        if procs:
            self.kernel.procfs.write("/proc/shield/procs", mask)
        if irqs:
            self.kernel.procfs.write("/proc/shield/irqs", mask)
        if ltmr:
            self.kernel.procfs.write("/proc/shield/ltmr", mask)

    def set_irq_affinity(self, irq: int, cpu: int) -> None:
        self.kernel.procfs.write(f"/proc/irq/{irq}/smp_affinity",
                                 CpuMask.single(cpu).to_proc())

    # ------------------------------------------------------------------
    def run_for(self, duration_ns: int) -> None:
        self.sim.run_until(self.sim.now + duration_ns)

    def run_until_done(self, test, limit_ns: int,
                       chunk_ns: int = 250 * MSEC,
                       strict_limit: bool = False) -> None:
        """Advance in chunks until *test.finished* or the time limit.

        If the event heap drains while the test is still unfinished the
        simulation can never progress again; rather than silently
        burning the remaining limit we raise a diagnostic immediately,
        naming what is still scheduled (periodic callbacks -- timer
        ticks, device pacers, fault-injector pacers -- by label, plus
        the one-shot count) so the missing event source is obvious.

        *strict_limit* additionally raises when the limit expires with
        the test unfinished (the default keeps the historical contract
        of returning silently: callers inspect ``test.finished``).
        """
        sim = self.sim
        deadline = sim.now + limit_ns
        while not test.finished and sim.now < deadline:
            if sim.peek_time() is None:
                name = getattr(test, "name", type(test).__name__)
                raise SimulationStalledError(
                    f"the event heap drained at t={sim.now} ns with "
                    f"measurement program {name!r} unfinished "
                    f"({deadline - sim.now} ns short of its limit); "
                    f"a workload or device stopped scheduling events; "
                    f"pending: {sim.pending_summary()}")
            sim.run_until(min(deadline, sim.now + chunk_ns))
        if strict_limit and not test.finished:
            name = getattr(test, "name", type(test).__name__)
            raise SimulationStalledError(
                f"time limit of {limit_ns} ns expired at t={sim.now} "
                f"ns with measurement program {name!r} unfinished "
                f"({sim.events_pending} events still pending); "
                f"pending: {sim.pending_summary()}")


def build_bench(config: KernelConfig, spec: Optional[MachineSpec] = None,
                seed: Optional[int] = None,
                rtc_hz: int = 2048,
                rcim_period_ns: int = 1000 * USEC) -> Bench:
    """Assemble and boot a complete testbed.

    *seed* defaults to :data:`repro.sim.rng.DEFAULT_SEED`; scenario
    runs always pass their ``ScenarioSpec.seed`` explicitly so the seed
    of a run is stated in exactly one place.
    """
    if spec is None:
        spec = interrupt_testbed()
    sim = Simulator(seed=seed)
    machine = Machine(sim, spec)
    kernel = Kernel(sim, machine, config)

    rtc = RtcDevice(hz=rtc_hz)
    rcim = RcimCard(period_ns=rcim_period_ns)
    nic = EthernetNic()
    disk = ScsiDisk()
    gpu = GraphicsController()
    for device in (rtc, rcim, nic, disk, gpu):
        machine.attach_device(device)

    kernel.boot()

    bench = Bench(
        sim=sim, machine=machine, kernel=kernel,
        rtc=rtc, rcim=rcim, nic=nic, disk=disk, gpu=gpu,
        rtc_driver=RtcDriver(kernel, rtc),
        rcim_driver=RcimDriver(kernel, rcim),
        net_driver=NetDriver(kernel, nic),
        block_driver=BlockDriver(kernel, disk),
        gfx_driver=GfxDriver(kernel, gpu),
    )
    return bench
