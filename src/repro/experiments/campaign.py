"""Parallel, cacheable, resumable campaign execution.

A :class:`CampaignSpec` names a scenario x seed x config-override
matrix; :class:`CampaignRunner` expands it into jobs and executes them
as cells through :func:`~repro.experiments.cells.execute_cells`,
optionally across worker processes.  Each worker rebuilds its bench
from the picklable :class:`ScenarioSpec`, so runs are fully
independent; the merged :class:`CampaignResult` is **byte-identical
regardless of worker count, scheduling order, or cache state** because

* every job's seed and configuration live in its spec (no shared RNG),
* results are folded in the deterministic job-expansion order no
  matter when they arrive (an order-preserving streaming merge), and
* a cache hit loads the exact bytes a recomputation would produce
  (the store key embeds the code-tree digest, and the simulator is
  byte-deterministic -- pinned by the golden suites).

With a :class:`~repro.store.ResultStore` attached, the expanded job
list is partitioned into cache **hits** (loaded, never recomputed) and
**misses** (executed in adaptive chunks); every completed job is
persisted and journaled the moment it lands, so an interrupted
campaign (Ctrl-C, crashed worker, CI timeout) resumes from where it
stopped instead of starting over.

Usage::

    campaign = CampaignSpec(scenarios=("fig5", "fig6"),
                            seeds=tuple(range(1, 9)))
    result = CampaignRunner(campaign, workers=4,
                            store=".repro-store").run()
    result.merged["fig5"].max()
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments.cells import Cell, CellOutcome, CellRun, execute_cells
from repro.experiments.scenario import (
    ScenarioResult,
    ScenarioSpec,
    run_scenario,
    scenario,
)
from repro.metrics.recorder import JitterRecorder, LatencyRecorder
from repro.sim.rng import DEFAULT_SEED
from repro.store import open_store
from repro.store.keys import code_version


def check_int(value: Any, name: str, low: Optional[int] = None) -> int:
    """*value* as an integer parameter (a bool is not one), at least
    *low* when given; the ValueError names *name*, the flag or field."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or (low is not None and value < low)):
        floor = "" if low is None else f" >= {low}"
        raise ValueError(f"{name} must be an integer{floor}, "
                         f"got {value!r}")
    return value


def check_count(value: Any, name: str) -> int:
    """A count -- samples, iterations, ring capacity, workers: an
    integer >= 1.  No samples have no worst case, and no workers run
    no job."""
    return check_int(value, name, 1)


def check_seed(value: Any, name: str) -> int:
    """A seed: an integer >= 0, the range numpy's generators take."""
    return check_int(value, name, 0)


def check_distinct(values: Tuple[Any, ...], name: str) -> Tuple[Any, ...]:
    """*values*, a seed or scenario list, with no entry twice; the
    ValueError names *name*.  A repeated entry would run the same cell
    twice under one store key and double its weight in the merge."""
    repeated = [value for value, n in Counter(values).items() if n > 1]
    if repeated:
        raise ValueError(f"{name} repeats "
                         f"{', '.join(repr(v) for v in repeated)}: "
                         f"each entry must appear once")
    return values


def parse_seeds(text: str) -> Tuple[int, ...]:
    """Parse a seed list: ``"1..8"`` (inclusive) or ``"1,2,5"``.

    Rejects anything that would silently produce an empty, backwards
    or doubled matrix -- ``""``, ``"8..1"``, ``"1..x"``, ``","``,
    ``"1,1"`` -- and any seed :func:`check_seed` refuses.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty seed list (expected '1..8' or '1,2,5')")
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise ValueError(
                f"malformed seed range {text!r} "
                f"(expected '<lo>..<hi>', e.g. '1..8')") from None
        if hi < lo:
            raise ValueError(
                f"backwards seed range {text!r}: {lo} > {hi}")
        check_seed(lo, "seed")
        return tuple(range(lo, hi + 1))
    try:
        seeds = tuple(int(part) for part in text.split(",")
                      if part.strip())
    except ValueError:
        raise ValueError(
            f"malformed seed list {text!r} "
            f"(expected '1..8' or '1,2,5')") from None
    if not seeds:
        raise ValueError(
            f"seed list {text!r} names no seeds "
            f"(expected '1..8' or '1,2,5')")
    for seed in seeds:
        check_seed(seed, "seed")
    return check_distinct(seeds, f"seed list {text!r}")


@dataclass(frozen=True)
class CampaignJob:
    """One expanded (scenario, seed, override) cell of the matrix."""

    index: int
    spec: ScenarioSpec
    override_tag: str = ""
    trace: bool = False


@dataclass(frozen=True)
class CampaignSpec:
    """The campaign matrix, as data.

    ``config_overrides`` is an optional extra axis: each entry is a
    ``(tag, {field: value})`` pair applied to every scenario.  The
    default single empty entry runs each scenario as registered.
    """

    scenarios: Tuple[str, ...]
    seeds: Tuple[int, ...] = (DEFAULT_SEED,)
    config_overrides: Tuple[Tuple[str, Dict[str, Any]], ...] = (("", {}),)
    samples: Optional[int] = None
    iterations: Optional[int] = None
    duration_ns: Optional[int] = None
    #: Enable typed tracing in every worker.  Observational: the
    #: recorders -- and therefore the campaign export -- stay
    #: byte-identical; trace reports ride on each run's ``trace``.
    #: Traced jobs bypass the result store entirely (the trace report
    #: is not persisted, so a cache hit could not reproduce it).
    trace: bool = False
    #: Fault plan applied to every scenario ("" keeps each scenario's
    #: registered plan -- usually none), plus an intensity override.
    fault_plan: str = ""
    fault_intensity: Optional[float] = None

    def expand(self) -> List[CampaignJob]:
        """The deterministic job list: scenario-major, then override,
        then seed."""
        if not self.scenarios:
            raise ValueError("a campaign needs at least one scenario")
        if not self.seeds:
            raise ValueError("a campaign needs at least one seed")
        jobs: List[CampaignJob] = []
        for name in self.scenarios:
            base = scenario(name)
            for tag, overrides in self.config_overrides:
                for seed in self.seeds:
                    spec = base.configured(
                        samples=self.samples,
                        iterations=self.iterations,
                        duration_ns=self.duration_ns,
                        seed=seed,
                        config_overrides=overrides or None,
                        fault_plan=self.fault_plan or None,
                        fault_intensity=self.fault_intensity,
                    )
                    jobs.append(CampaignJob(index=len(jobs), spec=spec,
                                            override_tag=tag,
                                            trace=self.trace))
        return jobs


def _run_job(cell: Cell) -> CellOutcome:
    """Worker entry point of a scenario cell: rebuild the bench from
    the spec and run it; a stall raises (it fails the campaign)."""
    return CellOutcome(index=cell.index,
                       result=run_scenario(cell.spec,
                                           trace=cell.trace or None))


class _StreamingMerge:
    """Order-preserving incremental fold of per-scenario recorders.

    Results may arrive in any order (chunks land as they finish); they
    are buffered until the fold cursor reaches them and then merged in
    job-expansion order, so the merged recorders -- and every
    downstream export byte -- are independent of arrival order.  At
    any moment the buffer holds only the arrival-order skew, not the
    whole campaign.
    """

    def __init__(self, total: int) -> None:
        self._total = total
        self._cursor = 0
        self._buffer: Dict[int, ScenarioResult] = {}
        self._merged: Dict[str, Any] = {}
        self._periods: Dict[str, set] = {}

    def add(self, index: int, result: ScenarioResult) -> None:
        self._buffer[index] = result
        while self._cursor in self._buffer:
            self._fold(self._buffer.pop(self._cursor))
            self._cursor += 1

    def _fold(self, result: ScenarioResult) -> None:
        name = result.scenario
        rec = result.recorder
        merged = self._merged.get(name)
        if isinstance(rec, JitterRecorder):
            if merged is None:
                merged = self._merged[name] = JitterRecorder(name)
        else:
            if merged is None:
                merged = self._merged[name] = LatencyRecorder(name)
            self._periods.setdefault(name, set()).add(rec.period_ns)
        merged.merge_from(rec)

    def finish(self) -> Dict[str, Any]:
        if self._cursor != self._total or self._buffer:
            raise RuntimeError(
                f"merge incomplete: {self._cursor}/{self._total} folded, "
                f"{len(self._buffer)} buffered")
        # The merged period survives only if every contributing
        # recorder agreed on it.
        for name, periods in self._periods.items():
            self._merged[name].period_ns = (periods.pop()
                                            if len(periods) == 1 else None)
        return self._merged


@dataclass
class CampaignResult:
    """All runs of a campaign plus per-scenario merged recorders.

    ``cache`` summarises how the runner sourced the jobs (total /
    cache hits / journal-resumed / computed); it is diagnostic only
    and deliberately excluded from exports, which must stay
    byte-identical whatever the cache state.  With ``retain_runs``
    disabled on the runner, ``runs`` is empty and only ``merged``
    (O(per-scenario recorder)) is kept.
    """

    campaign: CampaignSpec
    jobs: List[CampaignJob]
    runs: List[ScenarioResult]
    workers: int = 1
    merged: Dict[str, Any] = field(default_factory=dict)
    cache: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.merged:
            merge = _StreamingMerge(len(self.runs))
            for index, result in enumerate(self.runs):
                merge.add(index, result)
            self.merged = merge.finish()

    def results_for(self, scenario_name: str) -> List[ScenarioResult]:
        return [r for r in self.runs if r.scenario == scenario_name]

    def summary(self) -> str:
        """One line per run plus one merged line per scenario."""
        def headline(rec) -> str:
            if isinstance(rec, JitterRecorder):
                return (f"n={rec.count} "
                        f"jitter={rec.jitter_ns() / 1e6:.2f}ms")
            return f"n={rec.count} max={rec.max() / 1e3:.1f}us"

        lines = []
        for job, result in zip(self.jobs, self.runs):
            tag = f" [{job.override_tag}]" if job.override_tag else ""
            line = (f"{result.scenario}{tag} seed={result.seed}: "
                    f"{headline(result.recorder)}")
            if result.trace is not None:
                att = result.trace["attribution"]
                agg = att.get("aggregate", {})
                if agg:
                    blame = ", ".join(
                        f"{k}={v / 1e3:.1f}us"
                        for k, v in sorted(agg.items(),
                                           key=lambda kv: -kv[1])[:3])
                    line += f"  blame[P{att['threshold_pct']:g}]: {blame}"
            lines.append(line)
        for name in sorted(self.merged):
            lines.append(f"{name} merged: {headline(self.merged[name])}")
        return "\n".join(lines)


class CampaignRunner:
    """Expand and execute a campaign, optionally across processes.

    Parameters
    ----------
    store:
        A :class:`~repro.store.ResultStore`, a path for one, or None
        (no persistence -- the pre-store behaviour).
    use_cache:
        When False, existing entries are ignored (every job
        recomputes) but fresh results are still persisted -- refresh
        semantics.
    resume:
        Trust the campaign journal from a prior (interrupted) run:
        journaled jobs whose key still matches are loaded from the
        store even under ``use_cache=False``.
    progress:
        Optional ``callable(str)`` receiving partition and completion
        lines (the CLI points this at stderr).
    retain_runs:
        When False, per-run results are dropped after the streaming
        merge folds them (and, with a store, after persistence), so
        memory stays O(per-scenario recorder) instead of O(all runs);
        ``CampaignResult.runs`` comes back empty.
    """

    def __init__(self, campaign: CampaignSpec, workers: int = 1,
                 store: Any = None, use_cache: bool = True,
                 resume: bool = False,
                 progress: Optional[Callable[[str], None]] = None,
                 retain_runs: bool = True) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.campaign = campaign
        self.workers = workers
        self.store = open_store(store)
        self.use_cache = use_cache
        self.resume = resume
        self.progress = progress
        self.retain_runs = retain_runs

    # ------------------------------------------------------------------
    def _emit(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    def run(self) -> CampaignResult:
        jobs = self.campaign.expand()
        merge = _StreamingMerge(len(jobs))
        runs: Optional[List[Optional[ScenarioResult]]] = (
            [None] * len(jobs) if self.retain_runs else None)

        def ingest(run: CellRun, batch: List[CellOutcome],
                   cached: bool) -> None:
            if cached:
                self._emit(f"campaign: {run.total} jobs | {run.hits} "
                           f"cache hits ({run.resumed} via journal) | "
                           f"{run.misses} to run")
            for outcome in batch:
                merge.add(outcome.index, outcome.result)
                if runs is not None:
                    runs[outcome.index] = outcome.result
            if not cached:
                step = max(1, run.misses // 10)
                for done in range(run.computed - len(batch) + 1,
                                  run.computed + 1):
                    if done % step == 0 or done == run.misses:
                        self._emit(f"campaign: {done}/{run.misses} "
                                   f"computed")

        cells = [Cell(index=job.index, op="scenario", spec=job.spec,
                      trace=job.trace) for job in jobs]
        run = execute_cells(
            cells, ingest, store=self.store,
            code=code_version() if self.store is not None else "",
            workers=self.workers, use_cache=self.use_cache,
            journal=True, resume=self.resume)
        return CampaignResult(
            campaign=self.campaign, jobs=jobs,
            runs=([r for r in runs if r is not None]
                  if runs is not None else []),
            workers=self.workers, merged=merge.finish(),
            cache={"jobs": run.total, "hits": run.hits,
                   "resumed": run.resumed, "computed": run.misses,
                   "campaign_key": run.journal})


def run_campaign(scenarios: Tuple[str, ...],
                 seeds: Tuple[int, ...] = (DEFAULT_SEED,),
                 workers: int = 1,
                 samples: Optional[int] = None,
                 iterations: Optional[int] = None,
                 duration_ns: Optional[int] = None,
                 config_overrides: Optional[
                     Tuple[Tuple[str, Dict[str, Any]], ...]] = None,
                 trace: bool = False,
                 fault_plan: str = "",
                 fault_intensity: Optional[float] = None,
                 store: Any = None,
                 use_cache: bool = True,
                 resume: bool = False,
                 progress: Optional[Callable[[str], None]] = None,
                 retain_runs: bool = True,
                 ) -> CampaignResult:
    """One-call campaign: expand the matrix and run it."""
    campaign = CampaignSpec(
        scenarios=tuple(scenarios), seeds=tuple(seeds),
        samples=samples, iterations=iterations, duration_ns=duration_ns,
        trace=trace, fault_plan=fault_plan,
        fault_intensity=fault_intensity)
    if config_overrides is not None:
        campaign = replace(campaign, config_overrides=config_overrides)
    return CampaignRunner(campaign, workers=workers, store=store,
                          use_cache=use_cache, resume=resume,
                          progress=progress,
                          retain_runs=retain_runs).run()
