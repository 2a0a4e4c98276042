"""Shield-margin measurement: how much interference can the shield eat?

The *shield margin* of a scenario is the maximum fault-plan intensity
at which the shielded configuration's worst-case latency still meets
its bound, measured against an unshielded twin of the same scenario
run under the identical storm.  The ladder sweeps an intensity axis
(default 0.25x .. 4x the plan baseline); each rung runs two cells:

* **shielded** -- the scenario as registered (full shield);
* **unshielded** -- the same spec with the shield stripped
  (``ShieldSpec()``), everything else identical.

Both cells of a rung share the scenario seed; fault injection draws
from named child streams, so a rung's injection timeline is a pure
function of (seed, plan, intensity) -- the per-cell digests in the
report prove byte-for-byte identical injection across worker counts.

Execution is the campaign's: deterministic job expansion, cells run
through :func:`~repro.experiments.cells.execute_cells` (inline or on a
fork pool), and reassembly in expansion order, so ``--workers 1`` and
``--workers 4`` produce identical JSON.

The ladder also shares the campaign's content-addressed result store:
each cell is keyed by its full :class:`ScenarioSpec` (which carries
the plan, intensity and shield wiring), so shielded/unshielded twins,
repeated ladder invocations, overlapping intensity ladders, and plain
campaign/storm runs of the same spec all reuse one cached run.  Cells
that stall (interference too heavy to finish) are cached as stalled
markers and reported as unbounded without re-running.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.campaign import check_count, check_seed
from repro.experiments.cells import Cell, CellOutcome, execute_cells
from repro.experiments.scenario import ScenarioSpec, run_scenario, scenario
from repro.faults.plan import check_intensity
from repro.sim.errors import SimulationStalledError
from repro.sim.simtime import MSEC
from repro.store import open_store
from repro.store.keys import code_version

#: Default intensity ladder (multiples of the plan's baseline).
DEFAULT_INTENSITIES = (0.25, 0.5, 1.0, 2.0, 4.0)


@dataclass(frozen=True)
class MarginSpec:
    """One margin sweep, as plain picklable data."""

    scenario: str
    plan: str
    intensities: Tuple[float, ...] = DEFAULT_INTENSITIES
    #: The latency bound the shielded config must hold (paper claim:
    #: sub-millisecond worst case on the shielded CPU).
    bound_ns: int = 1 * MSEC
    samples: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        for value in self.intensities:
            check_intensity(value, "intensities")
        if self.bound_ns <= 0:
            raise ValueError(f"bound_ns must be > 0, got {self.bound_ns}")
        if self.samples is not None:
            check_count(self.samples, "samples")
        if self.seed is not None:
            check_seed(self.seed, "seed")

    def expand(self) -> List["MarginJob"]:
        """Two cells (shielded, unshielded) per intensity rung."""
        if not self.intensities:
            raise ValueError("a margin sweep needs at least one intensity")
        base = scenario(self.scenario).configured(
            samples=self.samples, seed=self.seed,
            fault_plan=self.plan)
        jobs: List[MarginJob] = []
        for intensity in self.intensities:
            rung = base.configured(fault_intensity=intensity)
            jobs.append(MarginJob(index=len(jobs), intensity=intensity,
                                  shielded=True, spec=rung))
            jobs.append(MarginJob(index=len(jobs), intensity=intensity,
                                  shielded=False, spec=rung.unshielded()))
        return jobs


@dataclass(frozen=True)
class MarginJob:
    """One (intensity, shielded?) cell of the sweep."""

    index: int
    intensity: float
    shielded: bool
    spec: ScenarioSpec


def bound_ns_of(bound_us: Any, name: str) -> int:
    """A bound in us as ns; a ValueError names *name* unless it is a
    finite number > 0."""
    if (not isinstance(bound_us, (int, float))
            or not math.isfinite(bound_us) or bound_us <= 0):
        raise ValueError(f"{name} must be a finite number > 0, "
                         f"got {bound_us!r}")
    return int(bound_us * 1_000)


def _run_cell(cell: Cell) -> CellOutcome:
    """Worker entry point of a margin cell.

    A stalled simulation -- interference so heavy the measurement
    never finishes inside its budget -- is an unbounded cell, not an
    error: that is exactly the degradation the margin measures.
    """
    try:
        result = run_scenario(cell.spec)
    except SimulationStalledError as exc:
        return CellOutcome(index=cell.index, error=str(exc))
    return CellOutcome(index=cell.index, result=result)


def _ladder_cell(outcome: CellOutcome) -> Dict[str, Any]:
    """One ladder cell from its outcome.

    Every run becomes a cell here -- computed or loaded, by the CLI or
    by simserve -- which keeps a ladder's JSON byte-identical whatever
    executed its cells.  No result means the run stalled: unbounded.
    """
    result = outcome.result
    if result is None:
        return {"stalled": True, "max_ns": None,
                "error": outcome.error or "", "faults": None}
    faults = result.faults
    return {"stalled": False, "max_ns": int(result.recorder.max()),
            "faults": None if faults is None else {
                key: faults[key]
                for key in ("injections", "digest", "by_injector")}}


@dataclass
class MarginResult:
    """The sweep outcome plus the derived margin."""

    spec: MarginSpec
    jobs: List[MarginJob]
    cells: List[Dict[str, Any]]
    workers: int = 1
    rungs: List[Dict[str, Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.rungs:
            self.rungs = self._fold()

    @classmethod
    def from_outcomes(cls, spec: MarginSpec, outcomes: List[CellOutcome],
                      workers: int = 1) -> "MarginResult":
        """The ladder from its cells' outcomes, in expansion order."""
        return cls(spec=spec, jobs=spec.expand(),
                   cells=[_ladder_cell(o) for o in outcomes],
                   workers=workers)

    def _fold(self) -> List[Dict[str, Any]]:
        rungs: List[Dict[str, Any]] = []
        bound = self.spec.bound_ns
        for i in range(0, len(self.jobs), 2):
            shielded, unshielded = self.cells[i], self.cells[i + 1]
            rungs.append({
                "intensity": self.jobs[i].intensity,
                "shielded": shielded,
                "unshielded": unshielded,
                "shielded_within_bound": _within(shielded, bound),
                "unshielded_within_bound": _within(unshielded, bound),
            })
        return rungs

    # ------------------------------------------------------------------
    def attach_predictions(self, ladder: List[Dict[str, Any]]) -> None:
        """Annotate each rung with simbound's static prediction.

        *ladder* comes from :func:`predicted_ladder` -- the analytic
        twin of the measured sweep.  Each rung gains ``predicted_ns``
        (worst-case shielded response at that intensity, or None when
        the model found no finite bound) and
        ``predicted_within_bound``; a measured cell exceeding its own
        prediction is a model-soundness red flag surfaced in
        :meth:`summary`.
        """
        by_intensity = {r["intensity"]: r for r in ladder}
        for rung in self.rungs:
            pred = by_intensity.get(rung["intensity"])
            if pred is None:
                continue
            rung["predicted_ns"] = pred["predicted_ns"]
            rung["predicted_within_bound"] = pred["within_bound"]

    @property
    def predicted_margin(self) -> Optional[float]:
        """Max intensity whose *predicted* shielded response met the
        bound (None when no rung carries a finite passing bound)."""
        passing = [r["intensity"] for r in self.rungs
                   if r.get("predicted_ns") is not None
                   and r.get("predicted_within_bound")]
        return max(passing) if passing else None

    # ------------------------------------------------------------------
    @property
    def margin(self) -> Optional[float]:
        """Max intensity whose shielded cell met the bound (None if
        even the lowest rung blew it)."""
        passing = [r["intensity"] for r in self.rungs
                   if r["shielded_within_bound"]]
        return max(passing) if passing else None

    @property
    def unshielded_degraded(self) -> bool:
        """Did any rung push the unshielded twin over the bound?"""
        return any(not r["unshielded_within_bound"] for r in self.rungs)

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "scenario": self.spec.scenario,
            "plan": self.spec.plan,
            "bound_ns": self.spec.bound_ns,
            "samples": self.spec.samples,
            "seed": self.spec.seed,
            "rungs": self.rungs,
            "margin": self.margin,
            "unshielded_degraded": self.unshielded_degraded,
        }
        if any("predicted_ns" in r for r in self.rungs):
            data["predicted_margin"] = self.predicted_margin
        return data

    def summary(self) -> str:
        bound_us = self.spec.bound_ns / 1e3
        lines = [f"shield margin: {self.spec.scenario} under "
                 f"{self.spec.plan} (bound {bound_us:.0f}us)"]
        for rung in self.rungs:
            line = (f"  x{rung['intensity']:<5g} "
                    f"shielded {_cell_str(rung['shielded'])}  "
                    f"unshielded {_cell_str(rung['unshielded'])}")
            if "predicted_ns" in rung:
                pred = rung["predicted_ns"]
                line += ("  predicted<=unbounded" if pred is None
                         else f"  predicted<={pred / 1e3:8.1f}us")
                cell = rung["shielded"]
                if (pred is not None and not cell["stalled"]
                        and cell["max_ns"] > pred):
                    line += "  !! OBSERVED OVER PREDICTION"
            lines.append(line)
        margin = self.margin
        lines.append(
            f"  margin: x{margin:g}" if margin is not None
            else "  margin: none (shield over bound at every rung)")
        if any("predicted_ns" in r for r in self.rungs):
            pmargin = self.predicted_margin
            lines.append(
                f"  predicted margin: x{pmargin:g}" if pmargin is not None
                else "  predicted margin: none (static bound over 1 ms "
                     "at every rung)")
        if self.unshielded_degraded:
            lines.append("  unshielded twin degraded past the bound")
        return "\n".join(lines)


def predicted_ladder(spec: MarginSpec) -> List[Dict[str, Any]]:
    """simbound's analytic twin of the measured intensity ladder.

    For each rung, re-derives the static worst-case shielded response
    with the fault plan scaled to that intensity (the bound model
    scales injected IRQ rates and rogue hold times exactly as
    :class:`~repro.faults.controller.FaultController` does).  A rung
    where the window fixpoint diverges -- interference outrunning the
    softirq drain budget -- reports ``predicted_ns: None``: the model
    certifies no bound at that intensity, which is itself the margin.
    """
    from repro.analysis.bounds.model import BoundModelError, compute_bounds

    ladder: List[Dict[str, Any]] = []
    for job in spec.expand()[::2]:  # the shielded cell of each rung
        try:
            bounds = compute_bounds(job.spec)
            predicted = bounds.response_ns
            detail = bounds.response_detail
        except BoundModelError as exc:
            predicted = None
            detail = f"no finite bound: {exc}"
        ladder.append({
            "intensity": job.intensity,
            "predicted_ns": predicted,
            "within_bound": (predicted is not None
                             and predicted <= spec.bound_ns),
            "detail": detail,
        })
    return ladder


def _within(cell: Dict[str, Any], bound_ns: int) -> bool:
    """A stalled cell is over every bound by definition."""
    return not cell["stalled"] and cell["max_ns"] <= bound_ns


def _cell_str(cell: Dict[str, Any]) -> str:
    if cell["stalled"]:
        return "STALLED"
    return f"max={cell['max_ns'] / 1e3:8.1f}us"


def run_margin(spec: MarginSpec, workers: int = 1,
               store: Any = None, use_cache: bool = True
               ) -> MarginResult:
    """Expand and execute the sweep (campaign-runner execution model).

    With a *store* attached, each cell is first looked up by its
    spec's content key; hits (including cached stalled markers) are
    loaded instead of re-run, and every computed cell is persisted --
    so re-running a ladder, extending its intensity axis, or running
    the shielded twin after a campaign already ran that spec costs
    only the missing cells.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    jobs = spec.expand()
    result_store = open_store(store)
    outcomes: Dict[int, CellOutcome] = {}
    execute_cells(
        [Cell(index=job.index, op="margin", spec=job.spec) for job in jobs],
        lambda _run, batch, _cached: outcomes.update(
            (outcome.index, outcome) for outcome in batch),
        store=result_store,
        code=code_version() if result_store is not None else "",
        workers=workers, use_cache=use_cache)
    return MarginResult.from_outcomes(
        spec, [outcomes[job.index] for job in jobs], workers=workers)
