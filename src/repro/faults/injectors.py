"""The typed fault injectors.

Each injector hooks one existing hw/kernel mechanism -- the APIC, a
device's interrupt line, the kernel task layer, the per-CPU local
timer, the shield controller -- and perturbs it on a deterministic
schedule drawn from the injector's own named RNG stream.  Injectors
are built by the :class:`~repro.faults.controller.FaultController`
from :class:`~repro.faults.plan.InjectorSpec` data and must:

* do **nothing** (no events, no RNG draws, no hooks) until
  :meth:`install` runs -- a constructed-but-uninstalled subsystem is
  invisible, which is what the disabled-byte-identity tests pin down;
* restore every hook they placed in :meth:`uninstall`;
* report each injection through :meth:`Injector.emit`, which lands on
  the controller's timeline and (when tracing is on) the
  ``TP.FAULT_INJECT`` tracepoint.

Intensity semantics are per-kind but uniformly monotonic: higher
intensity means more frequent storms, longer holds, larger drift.
Intensity 0 never reaches an injector -- the controller short-circuits
to a full no-op first.

Lockdep composition: injectors register IRQ handlers and spawn kernel
tasks through the public ``Kernel`` entry points, so when a
:class:`~repro.analysis.lockdep.LockdepValidator` is installed first
(the :func:`~repro.experiments.scenario.run_scenario` order), every
injected handler and rogue critical section runs under lockdep's
wrapped paths -- long irq-off windows trip the configured hold
budgets as ordinary violations instead of crashing the checker.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Type, TYPE_CHECKING

from repro.core.affinity import CpuMask
from repro.kernel import ops as op

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.experiments.harness import Bench
    from repro.faults.controller import FaultController
    from repro.faults.plan import InjectorSpec


class UnknownInjectorError(KeyError):
    """An :class:`InjectorSpec` names a kind with no implementation."""


class Injector:
    """Base class: one typed interference mechanism."""

    kind = "?"

    def __init__(self, key: str, spec: "InjectorSpec",
                 controller: "FaultController") -> None:
        self.key = key
        self.spec = spec
        self.controller = controller
        self.bench: Optional["Bench"] = None
        self.rng: Optional["np.random.Generator"] = None
        self.intensity = 1.0

    def param(self, name: str, default: Any = None) -> Any:
        return self.spec.param(name, default)

    def emit(self, cpu: int, detail: str) -> None:
        """Record one injection on the controller timeline."""
        self.controller.record(self.key, cpu, detail)

    # ------------------------------------------------------------------
    def install(self, bench: "Bench", rng: "np.random.Generator",
                intensity: float) -> "Injector":
        self.bench = bench
        self.rng = rng
        self.intensity = float(intensity)
        self.on_install()
        return self

    def uninstall(self) -> None:
        self.on_uninstall()

    def on_install(self) -> None:
        raise NotImplementedError

    def on_uninstall(self) -> None:
        """Undo every hook placed in :meth:`on_install`."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.key} x{self.intensity:g}>"


# ----------------------------------------------------------------------
class IrqStormInjector(Injector):
    """Floods its own interrupt line through the normal APIC path.

    The line behaves exactly like a device interrupt: it has a
    requested affinity the shield rewrites, so a shielded CPU never
    sees the storm -- which is the margin the storm scenarios measure.
    Bursts draw from the injector stream; the handler is the default
    (calibrated) no-op handler.
    """

    kind = "irq-storm"

    def on_install(self) -> None:
        bench = self.bench
        self._irq = int(self.param("irq", 96))
        name = str(self.param("name", "storm"))
        self._desc = bench.machine.apic.register_irq(
            self._irq, f"fault:{name}")
        bench.kernel.register_irq_handler(
            self._irq, "irq.handler.default", _storm_action)
        # Honour any shield already applied to this machine.
        bench.machine.on_irq_affinity_changed(self._desc)
        rate_hz = float(self.param("rate_hz", 500.0)) * self.intensity
        period = max(int(1e9 / rate_hz), 10_000)
        self._burst_max = max(int(self.param("burst_max", 3)), 1)
        self._pacer = bench.sim.periodic(
            period, self._fire, label=f"fault:{self.key}")

    def _fire(self) -> None:
        burst = int(self.rng.integers(1, self._burst_max + 1))
        apic = self.bench.machine.apic
        for _ in range(burst):
            apic.raise_irq(self._irq)
        self.emit(self._desc.effective_affinity.first(),
                  f"irq{self._irq} burst={burst}")

    def on_uninstall(self) -> None:
        self._pacer.cancel()


def _storm_action(cpu_idx: int) -> None:
    """Storm top half: ack and return (cost comes from the handler
    duration key)."""


# ----------------------------------------------------------------------
class IrqMisrouteInjector(Injector):
    """Periodically steers a device's interrupt to one fixed CPU.

    Models a flaky IO-APIC redirection entry: the *effective* affinity
    register is overwritten at the hardware level for a window, then
    recomputed through the kernel's normal shield-aware path.  Writing
    the effective mask (not the requested one) keeps delivery and mask
    consistent, so lockdep's shield-affinity check stays satisfied --
    the fault is misdirection, not a routing contract violation.
    """

    kind = "irq-misroute"

    def on_install(self) -> None:
        bench = self.bench
        device = bench.machine.device(str(self.param("device", "eth0")))
        self._desc = device.irq_desc
        self._target = int(self.param("target_cpu", 0))
        period = int(self.param("period_ns", 30_000_000))
        window = int(self.param("window_ns", 10_000_000) * self.intensity)
        self._window = min(window, (period * 9) // 10)
        self._pacer = bench.sim.periodic(
            period, self._start_window, label=f"fault:{self.key}")

    def _start_window(self) -> None:
        self._desc.effective_affinity = CpuMask.single(self._target)
        self.emit(self._target,
                  f"irq{self._desc.irq}->cpu{self._target} "
                  f"for {self._window}ns")
        self.bench.sim.after(self._window, self._end_window,
                             label=f"fault:{self.key}:restore")

    def _end_window(self) -> None:
        # Recompute from the requested mask through the shield path.
        self.bench.machine.on_irq_affinity_changed(self._desc)

    def on_uninstall(self) -> None:
        self._pacer.cancel()
        self.bench.machine.on_irq_affinity_changed(self._desc)


# ----------------------------------------------------------------------
class DeviceIrqInjector(Injector):
    """Lost, spurious or stuck interrupts on a real device's line.

    * ``lost``: each device raise is dropped with probability
      ``prob * intensity`` (the driver never hears about the event;
      block completions are recovered by the next real interrupt's
      drain loop, exactly like real lost-completion bugs).
    * ``spurious``: extra raises with no device event behind them, at
      ``rate_hz * intensity``.
    * ``stuck``: a raise re-asserts ``extra`` additional times with
      probability ``prob * intensity`` (a screaming line).
    """

    kind = "device-irq"

    def on_install(self) -> None:
        bench = self.bench
        self._device = bench.machine.device(str(self.param("device",
                                                           "nic")))
        self._mode = str(self.param("mode", "spurious"))
        self._pacer = None
        self._wrapped = False
        if self._mode == "spurious":
            rate_hz = float(self.param("rate_hz", 100.0)) * self.intensity
            period = max(int(1e9 / rate_hz), 10_000)
            self._pacer = bench.sim.periodic(
                period, self._spurious, label=f"fault:{self.key}")
            return
        prob = min(float(self.param("prob", 0.05)) * self.intensity, 1.0)
        self._prob = prob
        self._extra = max(int(self.param("extra", 2)), 1)
        device = self._device
        orig = device.raise_irq
        rng = self.rng
        if self._mode == "lost":
            def raise_irq() -> None:
                if float(rng.random()) < prob:
                    self.emit(0, f"lost irq{device.irq} ({device.name})")
                    return
                orig()
        elif self._mode == "stuck":
            def raise_irq() -> None:
                orig()
                if float(rng.random()) < prob:
                    for _ in range(self._extra):
                        orig()
                    self.emit(0, f"stuck irq{device.irq} "
                                 f"x{self._extra} ({device.name})")
        else:
            raise ValueError(f"device-irq mode {self._mode!r} "
                             f"(use lost/spurious/stuck)")
        device.raise_irq = raise_irq
        self._wrapped = True

    def _spurious(self) -> None:
        self._device.raise_irq()
        self.emit(0, f"spurious irq{self._device.irq} "
                     f"({self._device.name})")

    def on_uninstall(self) -> None:
        if self._pacer is not None:
            self._pacer.cancel()
        if self._wrapped:
            self._device.__dict__.pop("raise_irq", None)


# ----------------------------------------------------------------------
class RogueTaskInjector(Injector):
    """A kernel thread that periodically camps on a global lock.

    ``lock="bkl"`` reproduces the paper's millisecond BKL holds;
    ``lock="io_request_lock"`` (irq-disabling) produces long irq-off
    windows -- the two pathologies the shield exists to keep away from
    the real-time CPU.  Holds run as non-preemptible kernel compute,
    so an RT task on the same CPU waits out the full hold.
    """

    kind = "rogue-task"

    def on_install(self) -> None:
        kernel = self.bench.kernel
        lock_name = str(self.param("lock", "bkl"))
        lock = getattr(kernel.locks, lock_name)
        hold = max(int(int(self.param("hold_ns", 1_000_000))
                       * self.intensity), 1_000)
        period = max(int(self.param("period_ns", 15_000_000)), 100_000)
        self._active = True
        rng = self.rng
        injector = self

        def body():
            while True:
                gap = int(rng.integers(period // 2, period + 1))
                yield op.Sleep(gap)
                if not injector._active:
                    return
                injector.emit(kernel.dispatching_cpu or 0,
                              f"hold {lock_name} {hold}ns")
                yield op.Acquire(lock)
                yield op.Compute(hold, kernel=True, label="fault:rogue")
                yield op.Release(lock)

        self._task = kernel.create_task(
            f"fault:rogue-{lock_name}", body(), kernel_thread=True)

    def on_uninstall(self) -> None:
        # The loop parks itself at its next wakeup; no forced teardown
        # (killing a task mid-critical-section would trip the very
        # invariants lockdep watches).
        self._active = False


# ----------------------------------------------------------------------
class TickJitterInjector(Injector):
    """Drifts every live local-timer tick period around its nominal.

    Re-jitters each CPU's ``PeriodicHandle`` period every
    ``period_ns``; shielded CPUs with the ltmr mask set have no live
    handle and are untouched.  Uninstall restores the nominal tick.
    """

    kind = "tick-jitter"

    def on_install(self) -> None:
        kernel = self.bench.kernel
        self._tick = kernel.config.tick_ns
        self._drift = min(float(self.param("drift", 0.05))
                          * self.intensity, 0.9)
        period = int(self.param("period_ns", 25_000_000))
        self._pacer = self.bench.sim.periodic(
            period, self._fire, label=f"fault:{self.key}")

    def _live_handles(self):
        timer = self.bench.kernel.local_timer
        for cpu in sorted(timer._events):
            handle = timer._events[cpu]
            if handle is not None and handle.alive:
                yield cpu, handle

    def _fire(self) -> None:
        rng = self.rng
        tick = self._tick
        drift = self._drift
        jittered = 0
        for _cpu, handle in self._live_handles():
            skew = 1.0 + drift * (2.0 * float(rng.random()) - 1.0)
            handle.set_period(max(int(tick * skew), tick // 2))
            jittered += 1
        self.emit(0, f"tick drift<={drift:.3f} on {jittered} cpu(s)")

    def on_uninstall(self) -> None:
        self._pacer.cancel()
        for _cpu, handle in self._live_handles():
            handle.set_period(self._tick)


# ----------------------------------------------------------------------
class ShieldFlipInjector(Injector):
    """Drops the shield on one CPU for a window, then restores it.

    Models an operator (or init script) rewriting ``/proc/shield``
    mid-run.  A no-op on scenarios that never shielded the CPU, so the
    injector only perturbs configurations that had protection to lose.
    """

    kind = "shield-flip"

    def on_install(self) -> None:
        self._cpu = int(self.param("cpu", 1))
        period = int(self.param("period_ns", 40_000_000))
        window = int(self.param("window_ns", 5_000_000) * self.intensity)
        self._window = min(window, (period * 9) // 10)
        self._saved = None
        self._pacer = self.bench.sim.periodic(
            period, self._flip, label=f"fault:{self.key}")

    def _flip(self) -> None:
        shield = self.bench.kernel.shield
        if (shield is None or self._saved is not None
                or not shield.is_shielded(self._cpu)):
            return
        self._saved = shield.state
        shield.unshield_cpu(self._cpu)
        self.emit(self._cpu, f"unshield cpu{self._cpu} "
                             f"for {self._window}ns")
        self.bench.sim.after(self._window, self._restore,
                             label=f"fault:{self.key}:restore")

    def _restore(self) -> None:
        saved = self._saved
        self._saved = None
        if saved is None:
            return
        shield = self.bench.kernel.shield
        if shield is not None:
            shield.set_masks(procs=saved.procs, irqs=saved.irqs,
                             ltmr=saved.ltmr)
            self.emit(self._cpu, f"reshield cpu{self._cpu}")

    def on_uninstall(self) -> None:
        self._pacer.cancel()
        saved = self._saved
        self._saved = None
        if saved is not None:
            shield = self.bench.kernel.shield
            if shield is not None:
                shield.set_masks(procs=saved.procs, irqs=saved.irqs,
                                 ltmr=saved.ltmr)


# ----------------------------------------------------------------------
INJECTOR_KINDS: Dict[str, Type[Injector]] = {
    cls.kind: cls
    for cls in (IrqStormInjector, IrqMisrouteInjector, DeviceIrqInjector,
                RogueTaskInjector, TickJitterInjector, ShieldFlipInjector)
}


def build_injector(key: str, spec: "InjectorSpec",
                   controller: "FaultController") -> Injector:
    """Instantiate the implementation class for one spec."""
    try:
        cls = INJECTOR_KINDS[spec.kind]
    except KeyError:
        raise UnknownInjectorError(
            f"unknown injector kind {spec.kind!r}; known: "
            f"{sorted(INJECTOR_KINDS)}") from None
    return cls(key, spec, controller)
