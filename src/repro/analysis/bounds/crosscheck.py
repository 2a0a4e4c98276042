"""Observed-vs-predicted cross-check: runs a scenario and asserts
every runtime accounting maximum sits under its static bound.

The check is strictly *observational*: it runs the scenario through
the ordinary :func:`~repro.experiments.scenario.run_scenario` path
with typed tracing enabled (the tracer's contract -- enforced by the
composed-observer sweep in ``tests/experiments/test_golden_outputs.py``
-- is that it draws no RNG and shifts no simulated time), then reads
the per-CPU accounting maxima and the measurement recorder *after* the
run.  A violation means the bound model under-approximated real
behaviour -- a soundness bug in :mod:`repro.analysis.bounds.model` --
and is reported loudly with both numbers and the model's composition
trail for the window.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from repro.analysis.bounds.model import Assumptions, ScenarioBounds, compute_bounds

__all__ = [
    "BoundViolation",
    "BoundViolationError",
    "CrosscheckReport",
    "compare_result",
    "crosscheck_scenario",
]


@dataclass(frozen=True)
class BoundViolation:
    """One observed window that escaped its static bound."""

    scenario: str
    where: str         # "cpu0", "cpu1", ... or "response"
    metric: str        # "irq_off" / "preempt_off" / "bkl_hold" / "response"
    observed_ns: int
    predicted_ns: int
    detail: str = ""   # the model's composition trail for the bound

    def describe(self) -> str:
        over = self.observed_ns - self.predicted_ns
        msg = (f"{self.scenario}: {self.where} {self.metric} observed "
               f"{self.observed_ns} ns > predicted {self.predicted_ns} ns "
               f"(+{over} ns)")
        if self.detail:
            msg += f"\n    bound was composed as: {self.detail}"
        return msg


class BoundViolationError(AssertionError):
    """Observed behaviour escaped the static bounds (soundness bug)."""

    def __init__(self, violations: List[BoundViolation]) -> None:
        self.violations = violations
        lines = [f"{len(violations)} bound violation(s):"]
        lines += ["  " + v.describe() for v in violations]
        super().__init__("\n".join(lines))


@dataclass
class CrosscheckReport:
    """Everything one cross-check produced, violations included."""

    scenario: str
    bounds: ScenarioBounds
    checks: List[Dict[str, Any]] = field(default_factory=list)
    violations: List[BoundViolation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def raise_if_failed(self) -> None:
        if self.violations:
            raise BoundViolationError(self.violations)

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "passed": self.passed,
            "checks": list(self.checks),
            "violations": [v.__dict__ for v in self.violations],
        }


def _check(report: CrosscheckReport, where: str, metric: str,
           observed: int, predicted: int, detail: str = "") -> None:
    report.checks.append({"where": where, "metric": metric,
                          "observed_ns": int(observed),
                          "predicted_ns": int(predicted)})
    if observed > predicted:
        report.violations.append(BoundViolation(
            report.scenario, where, metric, int(observed),
            int(predicted), detail))


def compare_result(bounds: ScenarioBounds, result: Any) -> CrosscheckReport:
    """Compare one finished :class:`ScenarioResult` against *bounds*.

    *result* must have been produced with ``trace=True`` so the
    per-CPU accounting maxima are available; the recorder check
    applies only when the model predicted a response bound.
    """
    report = CrosscheckReport(bounds.scenario, bounds)

    trace = result.trace or {}
    accounting = trace.get("accounting") or {}
    cpus = accounting.get("cpus") or []
    if not cpus:
        raise ValueError(
            f"{bounds.scenario}: result carries no accounting data; "
            "run the scenario with trace=True")
    for entry in cpus:
        cpu = int(entry["cpu"])
        cls = bounds.class_for_cpu(cpu)
        where = f"cpu{cpu}"
        _check(report, where, "irq_off",
               entry["max_irq_off_ns"], cls.irq_off_ns,
               cls.detail.get("irq_off", ""))
        _check(report, where, "preempt_off",
               entry["max_preempt_off_ns"], cls.preempt_off_ns,
               cls.detail.get("preempt_off", ""))
        _check(report, where, "bkl_hold",
               entry["max_bkl_hold_ns"], cls.bkl_hold_ns,
               cls.detail.get("lock:bkl", ""))

    if bounds.response_ns is not None:
        _check(report, "response", "response",
               int(result.recorder.max()), bounds.response_ns,
               bounds.response_detail)
    return report


def crosscheck_scenario(spec: Any,
                        assumptions: Optional[Assumptions] = None,
                        samples: Optional[int] = None,
                        iterations: Optional[int] = None,
                        bounds: Optional[ScenarioBounds] = None,
                        ) -> CrosscheckReport:
    """Run *spec* and cross-check it against its static bounds.

    *samples* / *iterations* optionally shrink the latency sample
    count / determinism iteration count (CI runs a reduced sweep; the
    bounds are worst-case, so fewer samples can only make the check
    easier, never unsound to pass).
    """
    from repro.experiments.scenario import run_scenario

    if bounds is None:
        bounds = compute_bounds(spec, assumptions)
    overrides = {}
    if samples is not None:
        overrides["samples"] = int(samples)
    if iterations is not None:
        overrides["iterations"] = int(iterations)
    run_spec = spec
    if overrides:
        run_spec = spec.with_overrides(
            measurement=replace(spec.measurement, **overrides))
    result = run_scenario(run_spec, trace=True)
    return compare_result(bounds, result)
