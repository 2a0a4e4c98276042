"""repro: shielded processors on a simulated SMP Linux kernel.

A reproduction of Brosky & Rotolo, "Shielded Processors: Guaranteeing
Sub-millisecond Response in Standard Linux" (IPPS 2003), built on a
discrete-event simulator of the hardware and kernel mechanisms the
paper analyses.

Quick start::

    from repro import build_bench, redhawk_1_4

    bench = build_bench(redhawk_1_4())
    bench.start_devices()
    bench.shield_cpu(1)                # /proc/shield under the hood
    ...

See ``examples/quickstart.py`` for a complete runnable program and
``repro.experiments`` for the scenario registry that reproduces each
figure.
"""

from repro.configs.kernels import redhawk_1_4, vanilla_2_4_21
from repro.core.affinity import CpuMask, effective_affinity
from repro.core.shield import ShieldController, ShieldState
from repro.experiments.harness import Bench, build_bench
from repro.hw.machine import (
    Machine,
    MachineSpec,
    determinism_testbed,
    interrupt_testbed,
)
from repro.kernel.config import KernelConfig
from repro.kernel.kernel import Kernel
from repro.kernel.syscalls import UserApi
from repro.kernel.task import SchedPolicy, Task, TaskState
from repro.sim.engine import Simulator

__version__ = "1.0.0"

__all__ = [
    "Bench",
    "build_bench",
    "CpuMask",
    "effective_affinity",
    "ShieldController",
    "ShieldState",
    "Machine",
    "MachineSpec",
    "determinism_testbed",
    "interrupt_testbed",
    "Kernel",
    "KernelConfig",
    "SchedPolicy",
    "Task",
    "TaskState",
    "Simulator",
    "UserApi",
    "redhawk_1_4",
    "vanilla_2_4_21",
    "__version__",
]
