"""Twin-diff: the paper's headline comparison as a simdiff report.

The paper's argument is differential -- the *same* workload, the
*same* interference, shielded vs. unshielded -- and the margin ladder
(:mod:`repro.faults.margin`) already runs those twins for its cells.
Twin-diff makes the comparison a first-class product: record both
twins of one storm scenario, diff them with
:mod:`repro.observe.diff`, and report exactly where the unshielded
run's extra response time went -- per mechanism bucket, closing
exactly against the end-to-end latency delta, with the first
divergent tracepoint span named in simulated-time coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.sim.simtime import MSEC

#: The paper's shielded response-time bound (1 ms).
PAPER_BOUND_NS = 1 * MSEC


@dataclass(frozen=True)
class TwinDiffSpec:
    """One twin-diff request (plain data, CLI- and test-friendly)."""

    scenario: str
    plan: str = ""                   # "" = scenario's own / storm-<base>
    intensity: float = 1.0
    samples: Optional[int] = None
    iterations: Optional[int] = None
    seed: Optional[int] = None
    capacity: int = 65536


@dataclass
class TwinDiffResult:
    """Both recordings plus the diff and the paper-style verdict."""

    spec: TwinDiffSpec
    shielded: Any                    # TraceRecording
    unshielded: Any                  # TraceRecording
    diff: Any                        # TraceDiff
    bound_ns: int = PAPER_BOUND_NS
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def shielded_within_bound(self) -> bool:
        return self.shielded.max_latency_ns() <= self.bound_ns

    def headline(self) -> str:
        s_max = self.shielded.max_latency_ns()
        u_max = self.unshielded.max_latency_ns()
        verdict = ("within" if self.shielded_within_bound
                   else "EXCEEDS")
        return (f"twin-diff {self.spec.scenario}: shielded max "
                f"{s_max / 1e3:.1f} us ({verdict} the "
                f"{self.bound_ns / 1e6:g} ms bound), unshielded max "
                f"{u_max / 1e3:.1f} us "
                f"({u_max / max(s_max, 1):.0f}x)")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.spec.scenario,
            "plan": self.details.get("plan", self.spec.plan),
            "intensity": self.spec.intensity,
            "seed": self.shielded.seed,
            "bound_ns": self.bound_ns,
            "shielded_max_ns": self.shielded.max_latency_ns(),
            "unshielded_max_ns": self.unshielded.max_latency_ns(),
            "shielded_within_bound": self.shielded_within_bound,
            "diff": self.diff.to_dict(),
        }

    def summary(self, top_spans: int = 5) -> str:
        return self.headline() + "\n\n" + self.diff.render(
            top_spans=top_spans)


def resolve_plan_name(spec: Any, scenario_name: str,
                      plan_name: str) -> str:
    """Default the fault plan from the scenario, storm-CLI style."""
    if plan_name:
        return plan_name
    base = (scenario_name[len("storm-"):]
            if scenario_name.startswith("storm-") else scenario_name)
    return spec.fault_plan or f"storm-{base}"


def twin_cells(twin: TwinDiffSpec) -> List[Any]:
    """The two record cells: the shielded run, then its unshielded twin.

    The one definition of the storm twin: :func:`run_twin_diff` and
    simserve's twin-diff jobs both run these cells.  Raises
    UnknownScenarioError, UnknownFaultPlanError, or ValueError when the
    scenario has no shield to strip.
    """
    from repro.experiments.cells import Cell
    from repro.experiments.scenario import scenario
    from repro.faults.plan import fault_plan

    base = scenario(twin.scenario)
    plan = fault_plan(resolve_plan_name(base, twin.scenario, twin.plan))
    if not base.shield.any_component:
        raise ValueError(
            f"scenario {twin.scenario!r} runs unshielded; twin-diff "
            f"needs a shielded baseline to strip")
    spec = base.configured(samples=twin.samples,
                           iterations=twin.iterations, seed=twin.seed,
                           fault_plan=plan.name,
                           fault_intensity=twin.intensity)
    return [Cell(index=0, op="record", spec=spec, capacity=twin.capacity),
            Cell(index=1, op="record", spec=spec.unshielded(),
                 capacity=twin.capacity)]


def twin_result(twin: TwinDiffSpec, bodies: List[Dict[str, Any]]
                ) -> TwinDiffResult:
    """Diff the twins' recording bodies (shielded first): the one way a
    twin-diff result is built."""
    from repro.observe.diff import TraceRecording, diff_recordings

    shielded, unshielded = (TraceRecording.from_body(b) for b in bodies)
    diff = diff_recordings(shielded, unshielded,
                           a_label="shielded", b_label="unshielded")
    return TwinDiffResult(spec=twin, shielded=shielded,
                          unshielded=unshielded, diff=diff,
                          details={"plan": shielded.fault_plan})


def run_twin_diff(twin: TwinDiffSpec) -> TwinDiffResult:
    """Record both twins of one storm scenario and diff them."""
    from repro.experiments.cells import execute_cells

    bodies: Dict[int, Dict[str, Any]] = {}
    execute_cells(twin_cells(twin),
                  lambda _run, batch, _cached: bodies.update(
                      (outcome.index, outcome.body) for outcome in batch))
    return twin_result(twin, [bodies[0], bodies[1]])
