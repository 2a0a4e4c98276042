"""Declarative service jobs: expansion into cells, and the fold.

A :class:`JobSpec` is the wire format of one unit of service work --
a campaign, a shield-margin ladder, a storm twin-diff, or a single
figure export -- as plain JSON-able data.  Each job *expands* into
:class:`~repro.experiments.cells.Cell`\\ s: independent, picklable
work units (one scenario run or one trace recording each) that carry
their own content key into the result store.  The scheduler runs them
through :func:`~repro.experiments.cells.execute_cells` -- the same
executor the CLI's campaign, margin ladder and twin-diff use -- and
*folds* the ordered outcomes back into the job's artifact with
:func:`fold_job`.

The fold goes through exactly the code paths the one-shot CLI uses
(:func:`~repro.experiments.export.campaign_to_dict`,
:class:`~repro.faults.margin.MarginResult`,
:class:`~repro.faults.twindiff.TwinDiffResult`, ...), so the artifact
text is **byte-identical** to what ``python -m repro.experiments``
would have written to disk -- the service identity contract.

Job identity (:meth:`JobSpec.job_id`) is content-derived: the
canonical spec plus the code-tree digest.  Re-submitting the same
spec names the same job (idempotent submission); editing the source
tree names a new one, exactly like the store's cell keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.cells import (
    Cell,
    CellOutcome,
    cell_key,
    load_cached,
    persist,
    run_cell,
    run_cells,
)
from repro.experiments.scenario import UnknownScenarioError, scenario
from repro.store.keys import code_version, digest_of

#: The job kinds the service accepts.
JOB_KINDS = ("campaign", "figure", "margin", "twin-diff")

#: Default margin intensity ladder (mirrors the faults CLI default).
DEFAULT_INTENSITIES = (0.25, 0.5, 1.0, 2.0, 4.0)


class JobError(ValueError):
    """A job spec that cannot be accepted (unknown kind/scenario/...)."""


@dataclass(frozen=True)
class JobSpec:
    """One service job, as plain data (the POST /jobs body).

    Fields are a union over the kinds; each kind reads its own subset
    and :meth:`validate` rejects specs whose required fields are
    missing or name unknown registry entries.  ``priority`` and
    ``max_workers`` are scheduling hints: they never enter the job
    identity, so two clients racing to submit the same work at
    different priorities still dedupe onto one job.
    """

    kind: str
    # campaign
    scenarios: Tuple[str, ...] = ()
    seeds: Tuple[int, ...] = (1,)
    fault_plan: str = ""
    fault_intensity: Optional[float] = None
    # figure / margin / twin-diff
    scenario: str = ""
    seed: Optional[int] = None
    # margin / twin-diff
    plan: str = ""
    intensities: Tuple[float, ...] = DEFAULT_INTENSITIES
    bound_us: float = 1000.0
    # twin-diff
    intensity: float = 1.0
    capacity: int = 65536
    # shared knobs
    samples: Optional[int] = None
    iterations: Optional[int] = None
    # service hints (not part of the job identity)
    priority: int = 0
    max_workers: int = 0
    use_cache: bool = True

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        return {name: list(value) if isinstance(value, tuple) else value
                for name, value in data.items()}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        if not isinstance(data, dict):
            raise JobError("job spec must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise JobError(f"unknown job field(s): {', '.join(unknown)}")
        if "kind" not in data:
            raise JobError(f"job spec needs a 'kind' "
                           f"(one of {', '.join(JOB_KINDS)})")
        out = dict(data)
        for name, parse in (("scenarios", str), ("intensities", float)):
            if name in out:
                value = out[name]
                if isinstance(value, str):  # comma-separated
                    value = [x.strip() for x in value.split(",")
                             if x.strip()]
                try:
                    out[name] = tuple(parse(x) for x in value)
                except (TypeError, ValueError):
                    raise JobError(
                        f"malformed {name} {out[name]!r}") from None
        if "seeds" in out:
            value = out["seeds"]
            if isinstance(value, str):
                from repro.experiments.campaign import parse_seeds

                try:
                    value = parse_seeds(value)
                except ValueError as exc:
                    raise JobError(f"'seeds': {exc}") from None
            try:
                out["seeds"] = tuple(value)
            except TypeError:
                raise JobError(f"malformed seeds {value!r}") from None
        try:
            spec = cls(**out)
        except TypeError as exc:
            raise JobError(str(exc)) from None
        spec.validate()
        return spec

    # ------------------------------------------------------------------
    def identity(self) -> Dict[str, Any]:
        """The content identity: everything except scheduling hints."""
        data = self.to_dict()
        for hint in ("priority", "max_workers"):
            data.pop(hint)
        return data

    def job_id(self, code: Optional[str] = None) -> str:
        """Content-derived job name: same spec + same tree = same job."""
        return digest_of({
            "job": self.identity(),
            "code": code if code is not None else code_version(),
        })[:16]

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Reject specs the scheduler could never run (raises JobError)."""
        from repro.experiments.campaign import check_distinct
        from repro.faults.plan import UnknownFaultPlanError

        if self.kind not in JOB_KINDS:
            raise JobError(f"unknown job kind {self.kind!r} "
                           f"(one of {', '.join(JOB_KINDS)})")
        try:
            self._check_numbers()
            check_distinct(self.seeds, "'seeds'")
            check_distinct(self.scenarios, "'scenarios'")
            if self.kind == "campaign":
                if not self.scenarios:
                    raise JobError("a campaign job needs 'scenarios'")
                if not self.seeds:
                    raise JobError("a campaign job needs 'seeds'")
                for name in self.scenarios:
                    scenario(name)
            else:
                if not self.scenario:
                    raise JobError(
                        f"a {self.kind} job needs 'scenario'")
                scenario(self.scenario)
                if self.kind == "margin":
                    if not self.intensities:
                        raise JobError("a margin job needs 'intensities'")
                    _margin_spec(self)
                if self.kind == "twin-diff":
                    from repro.faults.twindiff import twin_cells

                    twin_cells(_twin_spec(self))
        except (UnknownScenarioError, UnknownFaultPlanError,
                ValueError) as exc:
            raise JobError(str(exc)) from None

    def _check_numbers(self) -> None:
        """Every numeric field in range, whatever the kind reads, by
        the checkers the CLI's flags use (raises ValueError naming the
        field)."""
        from repro.experiments.campaign import (check_count, check_int,
                                                check_seed)
        from repro.faults.margin import bound_ns_of
        from repro.faults.plan import check_intensity

        for value in self.intensities:
            check_intensity(value, "'intensities'")
        check_intensity(self.intensity, "'intensity'")
        if self.fault_intensity is not None:
            check_intensity(self.fault_intensity, "'fault_intensity'")
        bound_ns_of(self.bound_us, "'bound_us'")
        for name in ("samples", "iterations", "capacity"):
            value = getattr(self, name)
            if value is not None:
                check_count(value, f"'{name}'")
        if self.seed is not None:
            check_seed(self.seed, "'seed'")
        for seed in self.seeds:
            check_seed(seed, "every entry of 'seeds'")
        check_int(self.priority, "'priority'")
        check_int(self.max_workers, "'max_workers'", 0)


def expand_cells(job: JobSpec) -> List[Cell]:
    """The job's deterministic cell list (validates as a side effect)."""
    job.validate()
    if job.kind == "campaign":
        return [Cell(index=cj.index, op="scenario", spec=cj.spec)
                for cj in _campaign_spec(job).expand()]
    if job.kind == "figure":
        spec = scenario(job.scenario).configured(
            samples=job.samples, iterations=job.iterations,
            seed=job.seed)
        return [Cell(index=0, op="scenario", spec=spec)]
    if job.kind == "margin":
        return [Cell(index=mj.index, op="margin", spec=mj.spec)
                for mj in _margin_spec(job).expand()]
    from repro.faults.twindiff import twin_cells

    return twin_cells(_twin_spec(job))


# ----------------------------------------------------------------------
# Folding: ordered outcomes -> the job's artifact
# ----------------------------------------------------------------------
@dataclass
class JobArtifact:
    """The finished job: exact CLI bytes plus the human report."""

    #: The artifact text, byte-for-byte what the CLI would have
    #: written with ``--json`` (trailing newline included).
    artifact: str
    #: The rendered human report (campaign summary, margin ladder,
    #: twin-diff blame table, figure bucket table).
    report: str
    stats: Dict[str, Any] = field(default_factory=dict)


def fold_job(job: JobSpec, outcomes: List[CellOutcome]) -> JobArtifact:
    """Fold ordered cell outcomes into the job artifact.

    *outcomes* must be complete and in cell-index order; the fold is
    pure, so re-folding the same outcomes (e.g. after a server
    restart re-loads every cell from the store) reproduces the same
    bytes.
    """
    from repro.experiments.export import to_json

    if job.kind == "campaign":
        return _fold_campaign(job, outcomes, to_json)
    if job.kind == "figure":
        return _fold_figure(job, outcomes, to_json)
    if job.kind == "margin":
        return _fold_margin(job, outcomes, to_json)
    return _fold_twin(job, outcomes, to_json)


def _artifact_text(to_json: Any, data: Dict[str, Any]) -> str:
    # The CLI writes ``to_json(...) + "\n"`` to its --json sinks; the
    # served artifact must be those bytes exactly.
    return to_json(data) + "\n"


def _present(job: JobSpec, outcomes: List[CellOutcome],
             name: str) -> List[Any]:
    """Each outcome's *name* field; a cell without one fails the fold."""
    for outcome in outcomes:
        if getattr(outcome, name) is None:
            raise JobError(f"{job.kind} cell {outcome.index} has no "
                           f"{name} ({outcome.error or 'missing'})")
    return [getattr(outcome, name) for outcome in outcomes]


def _fold_campaign(job: JobSpec, outcomes: List[CellOutcome],
                   to_json: Any) -> JobArtifact:
    from repro.experiments.campaign import CampaignResult
    from repro.experiments.export import campaign_to_dict

    spec = _campaign_spec(job)
    jobs = spec.expand()
    result = CampaignResult(campaign=spec, jobs=jobs,
                            runs=_present(job, outcomes, "result"))
    stats = {name: {"count": rec.count, "max_ns": int(rec.max())}
             for name, rec in sorted(result.merged.items())}
    return JobArtifact(
        artifact=_artifact_text(to_json, campaign_to_dict(result)),
        report=result.summary(),
        stats={"jobs": len(jobs), "merged": stats})


def _fold_figure(job: JobSpec, outcomes: List[CellOutcome],
                 to_json: Any) -> JobArtifact:
    from repro.experiments.export import scenario_to_dict

    (result,) = _present(job, outcomes, "result")
    return JobArtifact(
        artifact=_artifact_text(to_json, scenario_to_dict(result)),
        report=result.report(),
        stats={"scenario": result.scenario, "seed": result.seed,
               "max_ns": int(result.recorder.max())})


def _fold_margin(job: JobSpec, outcomes: List[CellOutcome],
                 to_json: Any) -> JobArtifact:
    from repro.faults.margin import MarginResult

    result = MarginResult.from_outcomes(_margin_spec(job), outcomes)
    return JobArtifact(
        artifact=_artifact_text(to_json, result.to_dict()),
        report=result.summary(),
        stats={"margin": result.margin,
               "unshielded_degraded": result.unshielded_degraded})


def _fold_twin(job: JobSpec, outcomes: List[CellOutcome],
               to_json: Any) -> JobArtifact:
    from repro.faults.twindiff import twin_result

    result = twin_result(_twin_spec(job), _present(job, outcomes, "body"))
    return JobArtifact(
        artifact=_artifact_text(to_json, result.to_dict()),
        report=result.summary(),
        stats={"shielded_within_bound": result.shielded_within_bound,
               "shielded_max_ns": result.shielded.max_latency_ns(),
               "unshielded_max_ns": result.unshielded.max_latency_ns()})


# ----------------------------------------------------------------------
# Spec builders (shared by expansion and fold: one source of truth)
# ----------------------------------------------------------------------
def _campaign_spec(job: JobSpec) -> Any:
    from repro.experiments.campaign import CampaignSpec

    return CampaignSpec(
        scenarios=tuple(job.scenarios), seeds=tuple(job.seeds),
        samples=job.samples, iterations=job.iterations,
        fault_plan=job.fault_plan,
        fault_intensity=job.fault_intensity)


def _margin_spec(job: JobSpec) -> Any:
    from repro.faults.margin import MarginSpec, bound_ns_of
    from repro.faults.plan import fault_plan
    from repro.faults.twindiff import resolve_plan_name

    base = scenario(job.scenario)
    plan = fault_plan(resolve_plan_name(base, job.scenario, job.plan))
    return MarginSpec(
        scenario=base.name, plan=plan.name,
        intensities=tuple(job.intensities),
        bound_ns=bound_ns_of(job.bound_us, "'bound_us'"),
        samples=job.samples, seed=job.seed)


def _twin_spec(job: JobSpec) -> Any:
    from repro.faults.twindiff import TwinDiffSpec

    return TwinDiffSpec(scenario=job.scenario, plan=job.plan,
                        intensity=job.intensity, samples=job.samples,
                        iterations=job.iterations, seed=job.seed,
                        capacity=job.capacity)


__all__ = [
    "JOB_KINDS",
    "Cell",
    "CellOutcome",
    "JobArtifact",
    "JobError",
    "JobSpec",
    "cell_key",
    "expand_cells",
    "fold_job",
    "load_cached",
    "persist",
    "run_cell",
    "run_cells",
]
