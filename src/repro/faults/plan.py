"""Declarative fault plans: typed interference, as plain data.

A :class:`FaultPlan` mirrors :class:`~repro.experiments.scenario.
ScenarioSpec`: a frozen, picklable description of *what* interference
to inject -- which injector kinds, with which parameters, at which
baseline intensity.  Plans carry no live state; the
:class:`~repro.faults.controller.FaultController` instantiates the
injectors against a bench at run time.

The plan *registry* maps stable names ("storm-fig6", "rogue-irqoff")
to plans, exactly like the scenario registry, so campaign workers can
rebuild a fault campaign from nothing but strings.  Intensity composes
multiplicatively: ``plan.scaled(2.0)`` doubles every rate, hold window
and drift the plan's injectors derive from it, which is what the
margin ladder (:mod:`repro.faults.margin`) sweeps.

Naming convention: every simfault-owned task, IRQ line and pacer is
named ``fault:*`` (:data:`repro.observe.attribution.FAULT_PREFIX`),
which is how simtrace attribution blames injected interference without
any extra plumbing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Tuple

from repro.sim.simtime import MSEC, USEC


class UnknownFaultPlanError(KeyError):
    """Lookup of a fault plan name that is not registered."""


def check_intensity(value: Any, name: str) -> None:
    """Reject an intensity multiplier unless finite and >= 0 (x0 is the
    disabled plan); the ValueError names *name*, the flag or field."""
    if (not isinstance(value, (int, float)) or not math.isfinite(value)
            or value < 0):
        raise ValueError(f"{name} must be finite and >= 0, "
                         f"got {value!r}")


@dataclass(frozen=True)
class InjectorSpec:
    """One typed injector: a kind plus its (sorted, hashable) params."""

    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def param(self, name: str, default: Any = None) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        return default


def injector(kind: str, **params: Any) -> InjectorSpec:
    """Build an :class:`InjectorSpec` with deterministically ordered
    params."""
    return InjectorSpec(kind=kind, params=tuple(sorted(params.items())))


@dataclass(frozen=True)
class FaultPlan:
    """A named, composable set of injectors (plain picklable data)."""

    name: str
    title: str
    injectors: Tuple[InjectorSpec, ...]
    intensity: float = 1.0
    description: str = ""

    def scaled(self, intensity: float) -> "FaultPlan":
        """Copy with the baseline intensity replaced (0 disables)."""
        return replace(self, intensity=float(intensity))

    def kinds(self) -> List[str]:
        return [spec.kind for spec in self.injectors]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_PLANS: Dict[str, FaultPlan] = {}


def register_fault_plan(plan: FaultPlan,
                        replace_existing: bool = False) -> FaultPlan:
    if plan.name in _PLANS and not replace_existing:
        raise ValueError(f"fault plan {plan.name!r} already registered")
    _PLANS[plan.name] = plan
    return plan


def fault_plan(name: str) -> FaultPlan:
    """Look up a registered fault plan by name."""
    try:
        return _PLANS[name]
    except KeyError:
        raise UnknownFaultPlanError(
            f"unknown fault plan {name!r}; registered: "
            f"{fault_plan_names()}") from None


def fault_plan_names() -> List[str]:
    return sorted(_PLANS)


def all_fault_plans() -> List[FaultPlan]:
    return [_PLANS[n] for n in sorted(_PLANS)]


# ----------------------------------------------------------------------
# Built-in plans
# ----------------------------------------------------------------------
# Storm plans: the interference ladders the storm-* scenarios rerun
# fig5-fig7 under.  The composition deliberately attacks through the
# mechanisms the paper measures: extra hardirq load (steerable, so the
# shield defends against it), rogue critical sections (BKL holds and
# irq-off windows the shield's process mask keeps off the shielded
# CPU), and tick drift (moot on a shielded CPU, whose ltmr is off).
register_fault_plan(FaultPlan(
    name="storm-fig5",
    title="Figure 5 storm (IRQ flood + rogue BKL + tick drift)",
    injectors=(
        injector("irq-storm", irq=96, name="storm0",
                 rate_hz=600.0, burst_max=4),
        injector("rogue-task", lock="bkl",
                 hold_ns=1_500 * USEC, period_ns=18 * MSEC),
        injector("tick-jitter", drift=0.05, period_ns=25 * MSEC),
    ),
    description="escalating interference on the unshielded fig5 testbed",
))

register_fault_plan(FaultPlan(
    name="storm-fig6",
    title="Figure 6 storm (two IRQ floods + rogue BKL/irq-off + drift)",
    injectors=(
        injector("irq-storm", irq=96, name="storm0",
                 rate_hz=800.0, burst_max=4),
        injector("irq-storm", irq=97, name="storm1",
                 rate_hz=400.0, burst_max=3),
        injector("rogue-task", lock="bkl",
                 hold_ns=2 * MSEC, period_ns=15 * MSEC),
        injector("rogue-task", lock="io_request_lock",
                 hold_ns=400 * USEC, period_ns=9 * MSEC),
        injector("irq-misroute", device="sda", target_cpu=0,
                 period_ns=30 * MSEC, window_ns=8 * MSEC),
        injector("tick-jitter", drift=0.05, period_ns=25 * MSEC),
    ),
    description="the shield-margin reference storm for the fig6 setup",
))

register_fault_plan(FaultPlan(
    name="storm-fig7",
    title="Figure 7 storm (IRQ flood + rogue BKL + spurious disk irqs)",
    injectors=(
        injector("irq-storm", irq=96, name="storm0",
                 rate_hz=700.0, burst_max=4),
        injector("rogue-task", lock="bkl",
                 hold_ns=1_200 * USEC, period_ns=12 * MSEC),
        injector("device-irq", device="sda", mode="spurious",
                 rate_hz=120.0),
        injector("tick-jitter", drift=0.05, period_ns=25 * MSEC),
    ),
    description="interference ladder for the RCIM ioctl path",
))

# Focused single-mechanism plans (lockdep composition, chaos testing).
register_fault_plan(FaultPlan(
    name="rogue-irqoff",
    title="Rogue irq-off windows (io_request_lock holds)",
    injectors=(
        injector("rogue-task", lock="io_request_lock",
                 hold_ns=500 * USEC, period_ns=5 * MSEC),
    ),
    description="long irq-disabled critical sections; trips lockdep "
                "hold budgets when they are configured",
))

register_fault_plan(FaultPlan(
    name="shield-flap",
    title="Shield mask flips mid-run",
    injectors=(
        injector("shield-flip", cpu=1,
                 period_ns=40 * MSEC, window_ns=5 * MSEC),
    ),
    description="periodically drops and restores the shield on CPU 1",
))

register_fault_plan(FaultPlan(
    name="device-chaos",
    title="Lost / spurious / stuck device interrupts",
    injectors=(
        injector("device-irq", device="eth0", mode="lost", prob=0.08),
        injector("device-irq", device="eth0", mode="spurious",
                 rate_hz=80.0),
        injector("device-irq", device="sda", mode="stuck",
                 prob=0.05, extra=3),
    ),
    description="flaky-hardware interrupt pathologies on eth0 and sda",
))
