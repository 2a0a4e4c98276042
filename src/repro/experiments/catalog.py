"""The built-in scenario catalog.

Registers every experiment the repo reproduces as declarative data:

* ``fig1``..``fig4`` -- the execution-determinism figures (section 5);
* ``fig5``..``fig7`` -- the interrupt-response figures (section 6);
* ``a1-*``..``a6-*`` -- the six ablation families, each printed as
  one table by a ``benchmarks/test_ablation_*.py`` script;
* ``fbs-*`` -- the frequency-based-scheduling frame-jitter runs.

Importing this module (done lazily by the registry accessors in
:mod:`repro.experiments.scenario`) performs the registration; specs
carry the paper-scale defaults and are scaled down per run via
:meth:`ScenarioSpec.configured`.
"""

from __future__ import annotations

from repro.experiments.scenario import (
    MeasurementSpec,
    ScenarioSpec,
    ShieldSpec,
    register_scenario,
)
from repro.hw.machine import MachineSpec, determinism_testbed, interrupt_testbed

#: CPU hosting the measurement task, as in the paper's shielded runs.
MEASURE_CPU = 1

FIGURES = "figures"


# ----------------------------------------------------------------------
# Determinism figures (section 5): sine loop under scp + disknoise.
# ----------------------------------------------------------------------
def _determinism(name: str, title: str, kernel: str, hyperthreading: bool,
                 shielded: bool, iterations: int = 25,
                 group: str = FIGURES) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        title=title,
        kernel=kernel,
        machine=determinism_testbed(hyperthreading),
        workloads=("scp-copy", "disknoise"),
        shield=(ShieldSpec.full(MEASURE_CPU) if shielded else ShieldSpec()),
        measurement=MeasurementSpec(program="determinism",
                                    iterations=iterations,
                                    pin_cpu=MEASURE_CPU,
                                    measure_ideal=True),
        group=group,
        description=f"{title}: sine-loop determinism under load",
    )


register_scenario(_determinism(
    "fig1", "Figure 1 (kernel.org, HT)", "vanilla-2.4.21",
    hyperthreading=True, shielded=False))
register_scenario(_determinism(
    "fig2", "Figure 2 (RedHawk, shielded CPU)", "redhawk-1.4",
    hyperthreading=False, shielded=True))
register_scenario(_determinism(
    "fig3", "Figure 3 (RedHawk, unshielded CPU)", "redhawk-1.4",
    hyperthreading=False, shielded=False))
register_scenario(_determinism(
    "fig4", "Figure 4 (kernel.org, no HT)", "vanilla-2.4.21",
    hyperthreading=False, shielded=False))


# ----------------------------------------------------------------------
# Interrupt-response figures (section 6).
# ----------------------------------------------------------------------
register_scenario(ScenarioSpec(
    name="fig5",
    title="Figure 5 (kernel.org realfeel)",
    kernel="vanilla-2.4.21",
    machine=interrupt_testbed(),
    workloads=("broadcast", "stress-kernel"),
    measurement=MeasurementSpec(program="realfeel", samples=40_000),
    rtc_periodic=True,
    group=FIGURES,
    report_style="buckets",
    description="realfeel under stress-kernel, no patches, no shield",
))

register_scenario(ScenarioSpec(
    name="fig6",
    title="Figure 6 (RedHawk realfeel, shielded)",
    kernel="redhawk-1.4",
    machine=interrupt_testbed(),
    workloads=("broadcast", "stress-kernel"),
    shield=ShieldSpec.full(MEASURE_CPU, pin_irq="rtc"),
    measurement=MeasurementSpec(program="realfeel", samples=40_000,
                                pin_cpu=MEASURE_CPU),
    rtc_periodic=True,
    group=FIGURES,
    report_style="fine-buckets",
    description="realfeel on a fully shielded CPU 1",
))

register_scenario(ScenarioSpec(
    name="fig7",
    title="Figure 7 (RedHawk RCIM, shielded)",
    kernel="redhawk-1.4",
    machine=interrupt_testbed(),
    workloads=("broadcast", "stress-kernel", "x11perf", "ttcp"),
    shield=ShieldSpec.full(MEASURE_CPU, pin_irq="rcim"),
    measurement=MeasurementSpec(program="rcim", samples=40_000,
                                pin_cpu=MEASURE_CPU),
    rcim_timer=True,
    group=FIGURES,
    report_style="summary",
    description="RCIM ioctl response under the full Figure 7 load",
))


# ----------------------------------------------------------------------
# A1: cumulative shield components on the Figure 6 setup.
# ----------------------------------------------------------------------
for _variant, (_procs, _irqs, _ltmr) in {
        "none": (False, False, False),
        "procs": (True, False, False),
        "procs+irqs": (True, True, False),
        "full": (True, True, True)}.items():
    register_scenario(ScenarioSpec(
        name=f"a1-{_variant}",
        title=f"A1[{_variant}]",
        kernel="redhawk-1.4",
        machine=interrupt_testbed(),
        workloads=("broadcast", "stress-kernel"),
        shield=ShieldSpec(procs=_procs, irqs=_irqs, ltmr=_ltmr,
                          cpu=MEASURE_CPU, pin_irq="rtc"),
        measurement=MeasurementSpec(program="realfeel", samples=10_000,
                                    pin_cpu=MEASURE_CPU),
        rtc_periodic=True,
        group="a1",
        report_style="fine-buckets",
        description=f"shield components ablation: {_variant}",
    ))


# ----------------------------------------------------------------------
# A2: preemption / low-latency patch combinations on the Figure 5 setup.
# ----------------------------------------------------------------------
for _variant, _flags in {
        "stock": dict(preemptible=False, low_latency=False),
        "low-latency": dict(preemptible=False, low_latency=True),
        "preempt": dict(preemptible=True, low_latency=False),
        "preempt+lowlat": dict(preemptible=True, low_latency=True)}.items():
    register_scenario(ScenarioSpec(
        name=f"a2-{_variant}",
        title=f"A2[{_variant}]",
        kernel="vanilla-2.4.21",
        machine=interrupt_testbed(),
        workloads=("broadcast", "stress-kernel"),
        measurement=MeasurementSpec(program="realfeel", samples=10_000),
        config_overrides=tuple(sorted(_flags.items())),
        rtc_periodic=True,
        group="a2",
        report_style="buckets",
        description=f"patch-lineage ablation: {_variant}",
    ))


# ----------------------------------------------------------------------
# A3: the BKL-avoidance ioctl flag on the Figure 7 setup.
# ----------------------------------------------------------------------
for _variant, _flag in (("no-flag", False), ("flag", True)):
    register_scenario(ScenarioSpec(
        name=f"a3-{_variant}",
        title=f"A3[{_variant}]",
        kernel="redhawk-1.4",
        machine=interrupt_testbed(),
        workloads=("broadcast", "stress-kernel", "x11perf", "ttcp"),
        shield=ShieldSpec.full(MEASURE_CPU, pin_irq="rcim"),
        measurement=MeasurementSpec(program="rcim", samples=10_000,
                                    pin_cpu=MEASURE_CPU),
        config_overrides=(("bkl_ioctl_flag", _flag),),
        rcim_timer=True,
        group="a3",
        report_style="summary",
        description=f"generic-ioctl BKL flag ablation: {_variant}",
    ))


# ----------------------------------------------------------------------
# A4: hyperthreading on/off under RedHawk (determinism).
# ----------------------------------------------------------------------
for _variant, _ht in (("ht-off", False), ("ht-on", True)):
    register_scenario(_determinism(
        f"a4-{_variant}", f"A4[{_variant}]", "redhawk-1.4",
        hyperthreading=_ht, shielded=False, iterations=8, group="a4"))


# ----------------------------------------------------------------------
# A5: the high-res timers patch (cyclictest).
# ----------------------------------------------------------------------
for _variant, (_kernel, _shielded) in {
        "vanilla": ("vanilla-2.4.21", False),
        "highres": ("redhawk-1.4", False),
        "highres-shield": ("redhawk-1.4", True)}.items():
    register_scenario(ScenarioSpec(
        name=f"a5-{_variant}",
        title=f"A5[{_variant}]",
        kernel=_kernel,
        machine=interrupt_testbed(),
        workloads=("stress-kernel",),
        shield=(ShieldSpec.full(MEASURE_CPU) if _shielded
                else ShieldSpec()),
        measurement=MeasurementSpec(
            program="cyclictest", samples=3_000,
            pin_cpu=MEASURE_CPU if _shielded else None),
        group="a5",
        description=f"timer-resolution ablation: {_variant}",
    ))


# ----------------------------------------------------------------------
# A6: the uniprocessor case (no shield possible).
# ----------------------------------------------------------------------
for _variant, _kernel in (("vanilla-up", "vanilla-2.4.21"),
                          ("redhawk-up", "redhawk-1.4")):
    register_scenario(ScenarioSpec(
        name=f"a6-{_variant}",
        title=f"A6[{_variant}]",
        kernel=_kernel,
        machine=MachineSpec(cores=1, hyperthreading=False, name="up-xeon"),
        workloads=("broadcast", "stress-kernel"),
        measurement=MeasurementSpec(program="realfeel", samples=6_000),
        rtc_periodic=True,
        group="a6",
        description=f"uniprocessor ablation: {_variant}",
    ))


# ----------------------------------------------------------------------
# FBS: 400 Hz frame jitter with and without the shield.
# ----------------------------------------------------------------------
for _variant, _shielded in (("shielded", True), ("unshielded", False)):
    register_scenario(ScenarioSpec(
        name=f"fbs-{_variant}",
        title=f"FBS cycle jitter ({_variant})",
        kernel="redhawk-1.4",
        machine=interrupt_testbed(),
        workloads=("stress-kernel",),
        shield=(ShieldSpec.full(MEASURE_CPU, pin_irq="rcim") if _shielded
                else ShieldSpec()),
        measurement=MeasurementSpec(program="fbs-cycle", rt_prio=80,
                                    pin_cpu=MEASURE_CPU),
        rcim_period_ns=2_500_000,
        group="fbs",
        description=f"400 Hz FBS frame integrity, {_variant}",
    ))


# ----------------------------------------------------------------------
# Storm scenarios: fig5-fig7 rerun under escalating fault-plan
# interference (simfault).  The plan names match the scenario names;
# intensity is swept by the margin ladder (repro.faults.margin).
# ----------------------------------------------------------------------
from repro.experiments.scenario import scenario as _scenario  # noqa: E402

for _fig in ("fig5", "fig6", "fig7"):
    _base = _scenario(_fig)
    register_scenario(_base.with_overrides(
        name=f"storm-{_fig}",
        title=f"{_base.title} + storm interference",
        fault_plan=f"storm-{_fig}",
        group="storm",
        description=f"{_fig} rerun under the storm-{_fig} fault plan",
    ))
