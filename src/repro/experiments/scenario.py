"""Declarative experiment scenarios.

A :class:`ScenarioSpec` is plain picklable data describing one complete
experiment: the machine, the kernel (by registry name, plus config
overrides), the background loads and measurement program (by registry
name), the shield wiring and the seed.  :func:`run_scenario` turns a
spec into a booted bench, drives it, and returns a
:class:`ScenarioResult`.

Because specs are data, they can cross process boundaries: the campaign
runner (:mod:`repro.experiments.campaign`) ships them to worker
processes that rebuild the bench from the registries and ship the
result back.

The scenario *registry* maps stable names ("fig5", "a1-full",
"fbs-shielded") to specs; the built-in catalog in
:mod:`repro.experiments.catalog` registers every figure, ablation and
FBS run the repo reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.configs.kernels import kernel_config
from repro.core.affinity import CpuMask
from repro.experiments.harness import Bench, build_bench
from repro.hw.machine import MachineSpec, interrupt_testbed
from repro.kernel.config import KernelConfig
from repro.metrics.recorder import JitterRecorder, LatencyRecorder
from repro.metrics.report import (
    FIG5_THRESHOLDS_MS,
    FIG6_THRESHOLDS_MS,
    bucket_table,
    determinism_summary,
    latency_summary,
)
from repro.sim.rng import DEFAULT_SEED
from repro.sim.simtime import MSEC, SEC, USEC
from repro.workloads.base import spawn
from repro.workloads.determinism import PAPER_IDEAL_NS
from repro.workloads.registry import (
    PRE_START,
    load_entry,
    measurement_entry,
)

#: Seed offset for the unloaded ideal-baseline run (determinism tests).
IDEAL_SEED_OFFSET = 777


class UnknownScenarioError(KeyError):
    """Lookup of a scenario name that is not registered."""


# ----------------------------------------------------------------------
# Spec dataclasses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShieldSpec:
    """Shield wiring for one scenario.

    ``procs``/``irqs``/``ltmr`` select the shield components written to
    ``/proc/shield/*``; ``pin_irq`` names a device (machine registry
    name, e.g. ``"rtc"``) whose interrupt is steered to ``cpu`` --
    independent of shielding, as some ablations pin without shielding.
    """

    procs: bool = False
    irqs: bool = False
    ltmr: bool = False
    cpu: int = 1
    pin_irq: Optional[str] = None

    @property
    def any_component(self) -> bool:
        return self.procs or self.irqs or self.ltmr

    @classmethod
    def full(cls, cpu: int = 1, pin_irq: Optional[str] = None
             ) -> "ShieldSpec":
        return cls(procs=True, irqs=True, ltmr=True, cpu=cpu,
                   pin_irq=pin_irq)


@dataclass(frozen=True)
class MeasurementSpec:
    """The measurement program and its parameters.

    ``program`` names a builder in the workload registry.  Fields not
    used by a given program are ignored by its builder.
    """

    program: str
    samples: int = 40_000            # latency-style programs
    iterations: int = 25             # determinism-style programs
    loop_ns: int = PAPER_IDEAL_NS    # determinism sine-loop length
    interval_ns: int = 1 * MSEC      # cyclictest period
    duration_ns: int = 3 * SEC       # fixed-duration (FBS) runs
    rt_prio: int = 90
    pin_cpu: Optional[int] = None
    #: Run the unloaded baseline first and force its minimum as the
    #: recorder's ideal (the determinism protocol, section 5.1).
    measure_ideal: bool = False
    # FBS frame geometry
    fbs_cycle_ns: int = 2_500 * USEC
    fbs_cycles_per_frame: int = 20
    fbs_compute_ns: int = 600 * USEC


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to run one experiment, as plain data."""

    name: str
    title: str
    kernel: str                      # kernel registry name
    measurement: MeasurementSpec
    machine: MachineSpec = field(default_factory=interrupt_testbed)
    workloads: Tuple[str, ...] = ()
    shield: ShieldSpec = field(default_factory=ShieldSpec)
    config_overrides: Tuple[Tuple[str, Any], ...] = ()
    rtc_hz: int = 2048
    rcim_period_ns: int = 1000 * USEC
    rtc_periodic: bool = False
    rcim_timer: bool = False
    seed: int = DEFAULT_SEED
    group: str = ""                  # e.g. "figures", "a1", "fbs"
    report_style: str = "summary"    # latency report flavour
    description: str = ""
    #: Fault plan (registry name in :mod:`repro.faults.plan`) to run
    #: under, "" for none; ``fault_intensity`` scales the plan's
    #: baseline intensity multiplicatively (the margin ladder knob).
    fault_plan: str = ""
    fault_intensity: float = 1.0

    @property
    def kind(self) -> str:
        """Result family: "determinism", "latency" or "fbs"."""
        return measurement_entry(self.measurement.program).kind

    # ------------------------------------------------------------------
    def with_overrides(self, **changes: Any) -> "ScenarioSpec":
        """Copy with spec fields replaced."""
        return replace(self, **changes)

    def unshielded(self) -> "ScenarioSpec":
        """The unshielded twin: every shield component stripped, the
        shield CPU (where the measurement runs) kept."""
        return replace(self, shield=ShieldSpec(cpu=self.shield.cpu))

    def configured(self, samples: Optional[int] = None,
                   iterations: Optional[int] = None,
                   seed: Optional[int] = None,
                   duration_ns: Optional[int] = None,
                   config_overrides: Optional[Dict[str, Any]] = None,
                   fault_plan: Optional[str] = None,
                   fault_intensity: Optional[float] = None,
                   ) -> "ScenarioSpec":
        """Apply the common run-time knobs (CLI / campaign overrides)."""
        m = self.measurement
        m_changes: Dict[str, Any] = {}
        if samples is not None:
            m_changes["samples"] = samples
        if iterations is not None:
            m_changes["iterations"] = iterations
        if duration_ns is not None:
            m_changes["duration_ns"] = duration_ns
        spec = self
        if m_changes:
            spec = replace(spec, measurement=replace(m, **m_changes))
        if seed is not None:
            spec = replace(spec, seed=seed)
        if config_overrides:
            merged = dict(spec.config_overrides)
            merged.update(config_overrides)
            spec = replace(spec,
                           config_overrides=tuple(sorted(merged.items())))
        if fault_plan is not None:
            spec = replace(spec, fault_plan=fault_plan)
        if fault_intensity is not None:
            spec = replace(spec, fault_intensity=float(fault_intensity))
        return spec

    def build_config(self) -> KernelConfig:
        """The kernel config this scenario runs (overrides applied)."""
        config = kernel_config(self.kernel)
        if self.config_overrides:
            config = config.with_overrides(**dict(self.config_overrides))
        return config


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_SCENARIOS: Dict[str, ScenarioSpec] = {}
_CATALOG_LOADED = False


def _ensure_catalog() -> None:
    """Load the built-in catalog on first registry access."""
    global _CATALOG_LOADED
    if not _CATALOG_LOADED:
        _CATALOG_LOADED = True
        import repro.experiments.catalog  # noqa: F401  (registers specs)


def register_scenario(spec: ScenarioSpec, replace_existing: bool = False
                      ) -> ScenarioSpec:
    if spec.name in _SCENARIOS and not replace_existing:
        raise ValueError(f"scenario {spec.name!r} already registered")
    _SCENARIOS[spec.name] = spec
    return spec


def scenario(name: str) -> ScenarioSpec:
    """Look up a registered scenario by name."""
    _ensure_catalog()
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise UnknownScenarioError(
            f"unknown scenario {name!r}; registered: "
            f"{scenario_names()}") from None


def scenario_names(group: Optional[str] = None) -> List[str]:
    _ensure_catalog()
    if group is None:
        return sorted(_SCENARIOS)
    return sorted(n for n, s in _SCENARIOS.items() if s.group == group)


def scenario_groups() -> List[str]:
    _ensure_catalog()
    return sorted({s.group for s in _SCENARIOS.values() if s.group})


def all_scenarios() -> List[ScenarioSpec]:
    _ensure_catalog()
    return [_SCENARIOS[n] for n in sorted(_SCENARIOS)]


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class ScenarioResult:
    """Outcome of one scenario run.

    ``recorder`` is a :class:`JitterRecorder` for determinism runs and
    a :class:`LatencyRecorder` otherwise; ``details`` carries
    program-specific extras (FBS cycle counts, overruns, ...).
    """

    scenario: str
    title: str
    kind: str
    kernel_name: str
    seed: int
    recorder: Any
    report_style: str = "summary"
    ideal_ns: int = 0
    details: Dict[str, Any] = field(default_factory=dict)
    #: Lockdep observations when the run was instrumented: a list of
    #: violation dictionaries (empty = observed and clean), or None
    #: when lockdep was off.  Deliberately NOT part of ``details`` --
    #: exports must stay byte-identical with and without observation.
    lockdep: Optional[List[Dict[str, Any]]] = None
    #: Trace report when the run was traced (tracepoint hit counts,
    #: per-CPU accounting, latency attribution), or None.  Like
    #: ``lockdep``, deliberately NOT part of ``details``/exports.
    trace: Optional[Dict[str, Any]] = None
    #: Fault-injection report when the run had an enabled fault plan
    #: (injection counts, timeline digest), or None.  Like ``lockdep``
    #: and ``trace``, deliberately NOT part of ``details``/exports.
    faults: Optional[Dict[str, Any]] = None

    # -- common statistics ---------------------------------------------
    def max_ns(self) -> int:
        return self.recorder.max()

    def min_ns(self) -> int:
        return self.recorder.min() if hasattr(self.recorder, "min") else 0

    def mean_ns(self) -> float:
        return (self.recorder.mean()
                if hasattr(self.recorder, "mean") else 0.0)

    def jitter_ns(self) -> int:
        return (self.recorder.jitter_ns()
                if isinstance(self.recorder, JitterRecorder) else 0)

    def jitter_percent(self) -> float:
        return (100.0 * self.recorder.jitter_fraction()
                if isinstance(self.recorder, JitterRecorder) else 0.0)

    # -- reports --------------------------------------------------------
    def report(self, style: Optional[str] = None) -> str:
        title = f"{self.title}: {self.kernel_name}"
        if self.kind == "determinism":
            return determinism_summary(self.recorder, title)
        style = style or self.report_style
        if style == "buckets":
            return bucket_table(self.recorder, title, FIG5_THRESHOLDS_MS)
        if style == "fine-buckets":
            return bucket_table(self.recorder, title, FIG6_THRESHOLDS_MS)
        return latency_summary(self.recorder, title)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def build_scenario_bench(spec: ScenarioSpec,
                         config: Optional[KernelConfig] = None) -> Bench:
    """Assemble (but do not load or drive) the scenario's bench."""
    if config is None:
        config = spec.build_config()
    return build_bench(config, spec.machine, seed=spec.seed,
                       rtc_hz=spec.rtc_hz,
                       rcim_period_ns=spec.rcim_period_ns)


def _measure_ideal(spec: ScenarioSpec) -> int:
    """The unloaded baseline run (3 iterations, no load, no shield)."""
    baseline = spec.with_overrides(
        workloads=(),
        shield=ShieldSpec(cpu=spec.shield.cpu),
        rtc_periodic=False,
        rcim_timer=False,
        seed=spec.seed + IDEAL_SEED_OFFSET,
        fault_plan="",
        measurement=replace(spec.measurement, iterations=3,
                            measure_ideal=False),
    )
    result = run_scenario(baseline)
    return int(result.recorder.as_array().min())


def run_scenario(spec: ScenarioSpec,
                 lockdep: Optional[Any] = None,
                 trace: Optional[Any] = None,
                 faults: Optional[Any] = None) -> ScenarioResult:
    """Run one scenario end to end.

    *lockdep* enables invariant checking for the main run: ``True``
    for default observation, or a
    :class:`~repro.analysis.lockdep.LockdepConfig` (strict mode /
    hold budgets).  Observation never perturbs the simulation, so the
    result -- and its export -- is byte-identical either way; the
    violations land on ``ScenarioResult.lockdep``.

    *trace* enables typed tracing for the main run: ``True`` for the
    defaults, or a :class:`~repro.observe.tracer.TraceConfig`
    (ring capacity, attribution threshold, Chrome trace output path).
    Same observational contract as lockdep; the report lands on
    ``ScenarioResult.trace``.

    *faults* injects deterministic interference for the main run: a
    :class:`~repro.faults.plan.FaultPlan`, a registered plan name, or
    None to fall back to ``spec.fault_plan`` ("" = no faults).  The
    effective intensity is ``plan.intensity * spec.fault_intensity``;
    zero disables injection entirely (byte-identical to no faults).
    The injection report lands on ``ScenarioResult.faults``.  The
    install order is lockdep -> tracer -> faults, so injected IRQ
    handlers and rogue tasks run under lockdep's wrappers and every
    injection is traceable.
    """
    config = spec.build_config()

    if spec.shield.any_component and not config.shield_support:
        raise ValueError(f"{config.name} has no shield support")

    ideal: Optional[int] = None
    if spec.measurement.measure_ideal:
        ideal = _measure_ideal(spec)

    bench = build_scenario_bench(spec, config)

    validator = None
    if lockdep:
        from repro.analysis.lockdep import (LockdepConfig,
                                            LockdepValidator)
        ld_config = lockdep if isinstance(lockdep, LockdepConfig) else None
        validator = LockdepValidator(bench.kernel, ld_config).install()

    tracer = None
    if trace:
        from repro.observe.tracer import SimTracer, TraceConfig
        t_config = trace if isinstance(trace, TraceConfig) else None
        tracer = SimTracer(bench, t_config).install()

    fault_ctl = None
    plan = faults if faults is not None else (spec.fault_plan or None)
    if plan is not None:
        from repro.faults.controller import FaultController
        from repro.faults.plan import FaultPlan, fault_plan
        if not isinstance(plan, FaultPlan):
            plan = fault_plan(str(plan))
        fault_ctl = FaultController(
            bench, plan,
            intensity=plan.intensity * spec.fault_intensity)
        fault_ctl.install()

    loads = [load_entry(name) for name in spec.workloads]
    for entry in loads:
        if entry.phase == PRE_START:
            entry.apply(bench)
    bench.start_devices()
    if spec.rtc_periodic:
        bench.rtc.enable_periodic()
    if spec.rcim_timer:
        bench.rcim.enable_timer()
    for entry in loads:
        if entry.phase != PRE_START:
            entry.apply(bench)

    m = spec.measurement
    affinity = CpuMask.single(m.pin_cpu) if m.pin_cpu is not None else None
    program = measurement_entry(m.program).build(bench, m, affinity)
    if tracer is not None:
        tracer.watch_program(program)
    spawn(bench.kernel, program.spec())

    shield = spec.shield
    if shield.pin_irq is not None:
        device = bench.machine.device(shield.pin_irq)
        bench.set_irq_affinity(device.irq, shield.cpu)
    if shield.any_component:
        bench.shield_cpu(shield.cpu, procs=shield.procs,
                         irqs=shield.irqs, ltmr=shield.ltmr)

    drive = getattr(program, "drive", None)
    try:
        if drive is not None:
            drive(bench)
        else:
            # Nothing past the last sample reaches the result, so an
            # unobserved run stops there; observed runs keep the chunk
            # end that their reports and recordings cover.
            observed = (validator is not None or tracer is not None
                        or fault_ctl is not None)
            bench.run_until_done(program,
                                 limit_ns=program.estimated_sim_ns(),
                                 stop_at_finish=not observed)
    finally:
        if fault_ctl is not None:
            fault_ctl.uninstall()
        if tracer is not None:
            tracer.uninstall()
        if validator is not None:
            validator.uninstall()

    trace_report = None
    if tracer is not None:
        trace_report = tracer.report()
        if tracer.config.out:
            tracer.export_chrome(tracer.config.out,
                                 metadata={"scenario": spec.name,
                                           "seed": spec.seed})

    recorder = program.recorder
    if ideal is not None:
        recorder.set_ideal(ideal)

    details: Dict[str, Any] = {}
    stats = getattr(program, "stats", None)
    if stats is not None:
        cycle_stats = stats()
        details["cycles"] = cycle_stats.cycles
        details["overruns"] = cycle_stats.overruns

    result = ScenarioResult(
        scenario=spec.name,
        title=spec.title,
        kind=spec.kind,
        kernel_name=config.describe(),
        seed=spec.seed,
        recorder=recorder,
        report_style=spec.report_style,
        ideal_ns=ideal if ideal is not None else 0,
        details=details,
        lockdep=validator.to_dicts() if validator is not None else None,
        trace=trace_report,
        faults=fault_ctl.report() if fault_ctl is not None else None,
    )
    if tracer is not None:
        if tracer.config.record:
            from repro.observe.diff.recording import attach_recording
            attach_recording(tracer, spec, result)
        # The bench is a reference cycle, so its rings would keep every
        # row alive until a full collection.  Empty them now: a
        # recording's rows then die with its body.
        tracer.tp.clear()
    return result


def run_named(name: str, **configured: Any) -> ScenarioResult:
    """Convenience: run a registered scenario with knob overrides."""
    return run_scenario(scenario(name).configured(**configured))
