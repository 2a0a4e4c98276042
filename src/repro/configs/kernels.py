"""Factory functions and a by-name registry for kernel configurations.

The registry lets declarative scenarios (and campaign workers in other
processes) refer to a kernel by a stable string instead of a callable,
keeping :class:`~repro.experiments.scenario.ScenarioSpec` picklable.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.configs.calibration import redhawk_timing_table, vanilla_timing_table
from repro.kernel.config import KernelConfig
from repro.sim.simtime import MSEC, USEC

KernelFactory = Callable[[], KernelConfig]

_KERNELS: Dict[str, KernelFactory] = {}


def register_kernel(name: str, factory: KernelFactory,
                    replace: bool = False) -> KernelFactory:
    """Register *factory* under *name* (e.g. a site-local kernel)."""
    if name in _KERNELS and not replace:
        raise ValueError(f"kernel {name!r} already registered")
    _KERNELS[name] = factory
    return factory


def kernel_factory(name: str) -> KernelFactory:
    try:
        return _KERNELS[name]
    except KeyError:
        raise KeyError(f"unknown kernel {name!r}; registered: "
                       f"{sorted(_KERNELS)}") from None


def kernel_config(name: str) -> KernelConfig:
    """Build a fresh config for the registered kernel *name*."""
    return kernel_factory(name)()


def vanilla_2_4_21() -> KernelConfig:
    """kernel.org 2.4.21: the paper's unpatched baseline.

    No preemption, no low-latency patches, goodness scheduler, softirqs
    drained without bound at interrupt exit, jiffies-resolution timers,
    no shield support.
    """
    return KernelConfig(
        name="kernel.org-2.4.21",
        version="2.4.21",
        preemptible=False,
        low_latency=False,
        o1_scheduler=False,
        shield_support=False,
        bkl_ioctl_flag=False,
        softirq_exit_budget_ns=50 * MSEC,
        ksoftirqd=True,
        highres_timers=False,
        hz=100,
        timing=vanilla_timing_table(),
    )


def redhawk_1_4() -> KernelConfig:
    """RedHawk Linux 1.4 (based on kernel.org 2.4.21).

    MontaVista preemption patch, Morton low-latency patches, Molnar
    O(1) scheduler, POSIX/high-res timers patch, shielded-processor
    support, the generic-ioctl BKL-avoidance flag, and bounded softirq
    processing at interrupt exit.
    """
    return KernelConfig(
        name="redhawk-1.4",
        version="2.4.21-rh1.4",
        preemptible=True,
        low_latency=True,
        o1_scheduler=True,
        shield_support=True,
        bkl_ioctl_flag=True,
        softirq_exit_budget_ns=400 * USEC,
        softirq_syscall_exit_drain=False,
        ksoftirqd=True,
        highres_timers=True,
        hz=100,
        timing=redhawk_timing_table(),
    )


register_kernel("vanilla-2.4.21", vanilla_2_4_21)
register_kernel("redhawk-1.4", redhawk_1_4)
