"""Cells: the store-keyed work units of every sweep, and their executor.

A *cell* is one independent, picklable unit of work -- a scenario run
or a trace recording -- that carries its own content key into the
result store.  Campaigns, margin ladders, storm twin-diffs and simserve
jobs all expand into cells and run them through :func:`execute_cells`,
the one place that partitions cells into store hits and misses, runs
the misses (inline or on a fork-context process pool), persists and
journals every landed outcome, and drains on request.

The worker functions stay with their stall policy: :func:`run_cell`
sends a scenario cell to :mod:`repro.experiments.campaign` (a stall
raises) and a margin cell to :mod:`repro.faults.margin` (a stall is a
data point), looking each up at call time.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.scenario import ScenarioResult, ScenarioSpec
from repro.store.keys import digest_of, job_key, recording_key


@dataclass(frozen=True)
class Cell:
    """One picklable work unit: a scenario run or a trace recording.

    ``op`` selects the worker behaviour and the store entry kind:

    * ``"scenario"`` -- run and persist a full result; a stall is an
      error (campaign semantics);
    * ``"margin"`` -- run, but a stall is a *data point* (the ladder's
      unbounded cell), persisted as a stalled marker;
    * ``"record"`` -- run traced and persist the RTRACE1 body.

    A ``trace`` cell (campaign ``--trace``) is never loaded or stored:
    its trace report is not persisted, so a hit could not reproduce it.
    """

    index: int
    op: str
    spec: ScenarioSpec
    capacity: int = 0
    trace: bool = False


@dataclass
class CellOutcome:
    """What came back for one cell (exactly one field set per op)."""

    index: int
    result: Optional[ScenarioResult] = None
    error: Optional[str] = None
    body: Optional[Dict[str, Any]] = None


def cell_key(cell: Cell, code: str) -> str:
    """The content-store key this cell's outcome lives under."""
    if cell.op == "record":
        return recording_key(cell.spec, cell.capacity, code=code)
    return job_key(cell.spec, code)


def load_cached(store: Any, cell: Cell, code: str,
                key: Optional[str] = None) -> Optional[CellOutcome]:
    """The cell's outcome from the store, or None on a miss.

    A stalled marker is a *hit* for margin cells (the ladder caches
    unbounded rungs) and a miss for scenario cells (a campaign
    recomputes it).
    """
    key = key or cell_key(cell, code)
    if cell.op == "record":
        body = store.get_recording(key)
        return None if body is None else CellOutcome(cell.index, body=body)
    entry = store.get(key)
    if entry is None or (entry.stalled and cell.op != "margin"):
        return None
    if entry.stalled:
        return CellOutcome(cell.index, error=entry.error or "")
    return CellOutcome(cell.index, result=entry.result)


def persist(store: Any, cell: Cell, outcome: CellOutcome, code: str,
            key: Optional[str] = None) -> None:
    """Write one computed outcome to the store (atomic, keyed)."""
    key = key or cell_key(cell, code)
    if cell.op == "record":
        store.put_recording(key, outcome.body, code=code)
    elif outcome.result is not None:
        store.put(key, outcome.result, code)
    else:
        store.put_stalled(key, cell.spec.name, outcome.error or "", code)


def run_cell(cell: Cell) -> CellOutcome:
    """Execute one cell (in a worker process or inline)."""
    if cell.op == "record":
        from repro.observe.diff import record_scenario

        rec, _result = record_scenario(cell.spec, capacity=cell.capacity)
        return CellOutcome(index=cell.index, body=rec.to_body())
    if cell.op == "margin":
        from repro.faults import margin

        return margin._run_cell(cell)
    from repro.experiments import campaign

    return campaign._run_job(cell)


def run_cells(cells: List[Cell]) -> List[CellOutcome]:
    """One worker chunk: several cells, one IPC round trip."""
    return [run_cell(cell) for cell in cells]


def fork_pool(processes: int) -> Any:
    """A fork-context process pool: workers inherit the registries."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=processes,
                               mp_context=multiprocessing.get_context("fork"))


@dataclass
class CellRun:
    """How :func:`execute_cells` sourced a cell list (counts only);
    ``journal`` names its journal in the store ("" without one)."""

    total: int
    hits: int = 0
    resumed: int = 0
    misses: int = 0
    computed: int = 0
    journal: str = ""

    @property
    def complete(self) -> bool:
        return self.hits + self.computed == self.total


#: ``on_batch(run, outcomes, cached)``: one landed, persisted batch.
OnBatch = Callable[[CellRun, List[CellOutcome], bool], None]


def execute_cells(cells: Sequence[Cell], on_batch: OnBatch, *,
                  store: Any = None, code: str = "", workers: int = 1,
                  use_cache: bool = True, journal: bool = False,
                  resume: bool = False,
                  pool: Optional[Callable[[], Any]] = None,
                  stop: Callable[[], bool] = lambda: False) -> CellRun:
    """Run *cells*, handing every landed batch to *on_batch*.

    The hits come first, as one batch in index order (even when empty,
    so the caller has the partition counts before any cell computes),
    then one batch per landed chunk; each outcome is persisted, and its
    *journal* line written, before *on_batch* sees it.  The journal is
    named by the digest of the cells' keys; with *resume*, a journaled
    cell whose key still matches loads even when *use_cache* is False.

    Misses run inline when ``workers == 1`` or only one cell misses;
    otherwise in chunks of ``max(1, misses // (workers * 8))``, at most
    ``workers * 2`` in flight, on a pool of ``min(workers, misses)``
    processes owned by this call -- or, for every miss, on the pool
    the *pool* factory returns.  No pool exists unless a cell misses.
    *stop* is checked before each submission: once it is true, the
    in-flight chunks land and the call returns incomplete.  On an
    exception, queued chunks are cancelled and an owned pool's
    workers are killed.
    """
    run = CellRun(total=len(cells))
    keys: Dict[int, str] = {}
    if store is not None:
        keys = {cell.index: cell_key(cell, code)
                for cell in cells if not cell.trace}
    prior: Dict[int, str] = {}
    if store is not None and journal:
        run.journal = digest_of(
            {"jobs": [keys.get(cell.index) for cell in cells]})
        if resume:
            prior = store.read_journal(run.journal)

    hits: List[Tuple[Cell, CellOutcome]] = []
    misses: List[Cell] = []
    for cell in cells:
        key = keys.get(cell.index)
        outcome = None
        if key is not None:
            if prior.get(cell.index) == key:
                outcome = load_cached(store, cell, code, key)
                run.resumed += outcome is not None
            elif use_cache:
                outcome = load_cached(store, cell, code, key)
        if outcome is None:
            misses.append(cell)
        else:
            hits.append((cell, outcome))
    run.hits, run.misses = len(hits), len(misses)

    with (store.journal_writer(run.journal) if run.journal
          else nullcontext()) as writer:
        def land(pairs: List[Tuple[Cell, CellOutcome]],
                 cached: bool) -> None:
            for cell, outcome in pairs:
                key = keys.get(cell.index)
                if key is None:
                    continue
                if not cached:
                    persist(store, cell, outcome, code, key)
                if writer is not None:
                    writer.record(cell.index, key)
            if not cached:
                run.computed += len(pairs)
            on_batch(run, [outcome for _, outcome in pairs], cached)

        land(hits, True)
        if misses:
            _run_misses(misses, land, workers, pool, stop)
    return run


def _run_misses(misses: List[Cell], land: Callable[..., None],
                workers: int, pool: Optional[Callable[[], Any]],
                stop: Callable[[], bool]) -> None:
    if pool is None and (workers == 1 or len(misses) == 1):
        for cell in misses:
            if stop():
                return
            land([(cell, run_cell(cell))], False)
        return

    from concurrent.futures import FIRST_COMPLETED, wait

    size = max(1, len(misses) // (workers * 8))
    chunks = [misses[i:i + size] for i in range(0, len(misses), size)]
    executor = (fork_pool(min(workers, len(misses))) if pool is None
                else pool())
    in_flight: Dict[Any, List[Cell]] = {}
    try:
        submitted = 0
        while True:
            while (submitted < len(chunks)
                   and len(in_flight) < workers * 2 and not stop()):
                chunk = chunks[submitted]
                in_flight[executor.submit(run_cells, chunk)] = chunk
                submitted += 1
            if not in_flight:
                return
            done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            for future in sorted(done, key=lambda f: in_flight[f][0].index):
                chunk = in_flight.pop(future)
                land(list(zip(chunk, future.result())), False)
    except BaseException:
        for future in in_flight:
            future.cancel()
        if pool is None:
            # Kill our workers mid-chunk: an idle worker that never
            # receives its stop sentinel (a second SIGINT can cut the
            # pool's orderly shutdown short) would hold interpreter
            # exit for good.
            for process in executor._processes.values():
                process.terminate()
        raise
    finally:
        if pool is None:
            executor.shutdown(wait=True, cancel_futures=True)
