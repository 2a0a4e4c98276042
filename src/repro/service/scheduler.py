"""The simserve scheduler: store-deduped, pooled, drainable.

One asyncio task (:meth:`Scheduler.run`) owns the dispatch loop: it
pops jobs off the :class:`~repro.service.queue.JobQueue` in priority
order, runs up to ``parallel_jobs`` of them concurrently, and runs
each job on a worker thread through the CLI's own cell executor,
:func:`~repro.experiments.cells.execute_cells`: store hits load,
misses go to the scheduler's long-lived fork pool in adaptive chunks,
every outcome is persisted the moment its chunk lands, and the
ordered outcomes fold through the CLI's export code, so the artifact
is byte-identical whatever the worker count, chunk order, or cache
temperature.  A **fully cached job folds straight to its artifact
without ever creating the worker pool** (the pool is lazy, which is
how warm re-submission provably spawns nothing).

:meth:`drain` is the graceful-shutdown half: no new jobs start, no
new chunks are submitted, in-flight chunks finish and persist, and
interrupted jobs go back to ``queued`` in the journal -- a restarted
server picks them up and completes them mostly from cache.  While
draining, submissions raise :class:`ServiceDraining` (HTTP 503).

Every externally visible change bumps :attr:`Scheduler.version` and
wakes :attr:`Scheduler.condition`, which is what status long-polls
and streams wait on.
"""

from __future__ import annotations

import asyncio
import threading
import traceback
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.cells import (
    CellOutcome,
    CellRun,
    execute_cells,
    fork_pool,
)
from repro.service.jobs import JobArtifact, JobSpec, expand_cells, fold_job
from repro.service.queue import JobQueue, JobRecord
from repro.store.keys import code_version
from repro.store.store import ResultStore, open_store


class ServiceDraining(RuntimeError):
    """Submission refused: the server is shutting down (HTTP 503)."""


class Scheduler:
    """Owns the dispatch loop, the lazy worker pool, and the store."""

    def __init__(self, store: Any, queue: JobQueue,
                 workers: int = 2, parallel_jobs: int = 2) -> None:
        resolved: Optional[ResultStore] = open_store(store)
        if resolved is None:
            raise ValueError("the scheduler needs a result store")
        self.store: ResultStore = resolved
        self.queue = queue
        self.workers = max(1, workers)
        self.parallel_jobs = max(1, parallel_jobs)
        self.code = code_version()
        #: Bumped on every externally visible change; streams and
        #: long-polls wait for it to move.
        self.version = 0
        self.condition: asyncio.Condition = asyncio.Condition()
        self.cells_computed = 0
        self.cells_cached = 0
        self.jobs_finished = 0
        self._executor: Optional[Any] = None
        self._pool_lock = threading.Lock()
        self._pool_created = False
        self._draining = False
        self._stopped = asyncio.Event()
        self._active: Dict[str, asyncio.Task] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def workers_spawned(self) -> bool:
        """True once the process pool was ever created (a miss ran).

        Stays true after drain tears the pool down: the question the
        identity tests ask is "did this server ever need a worker",
        not "is one alive right now".
        """
        return self._pool_created

    @property
    def draining(self) -> bool:
        return self._draining

    def health(self) -> Dict[str, Any]:
        return {
            "draining": self._draining,
            "workers": self.workers,
            "workers_spawned": self.workers_spawned,
            "cells_computed": self.cells_computed,
            "cells_cached": self.cells_cached,
            "jobs_finished": self.jobs_finished,
            "queue": self.queue.stats(),
            "store": self.store.stats(),
        }

    # ------------------------------------------------------------------
    # Submission (called from HTTP handlers / tests, same event loop)
    # ------------------------------------------------------------------
    async def submit(self, spec: JobSpec) -> Tuple[JobRecord, bool]:
        """Validate, dedupe, and enqueue one job.

        Raises :class:`~repro.service.jobs.JobError` on a bad spec
        (400), :class:`~repro.service.queue.QueueFullError` at
        capacity (429), :class:`ServiceDraining` during shutdown
        (503).  Returns ``(record, created)``.
        """
        if self._draining:
            raise ServiceDraining("server is draining; resubmit to "
                                  "the restarted server")
        spec.validate()
        record, created = self.queue.submit(spec,
                                            spec.job_id(self.code))
        if created:
            await self._bump()
        return record, created

    async def wait_for(self, job_id: str,
                       timeout: Optional[float] = None) -> JobRecord:
        """Block until the job leaves the live states (long-poll)."""
        record = self.queue.get(job_id)

        async def _wait() -> None:
            async with self.condition:
                await self.condition.wait_for(lambda: record.finished)

        if not record.finished:
            await asyncio.wait_for(_wait(), timeout=timeout)
        return record

    async def wait_version(self, version: int,
                           timeout: Optional[float] = None) -> int:
        """Block until :attr:`version` moves past *version* (stream)."""

        async def _wait() -> None:
            async with self.condition:
                await self.condition.wait_for(
                    lambda: self.version > version)

        if self.version <= version:
            await asyncio.wait_for(_wait(), timeout=timeout)
        return self.version

    async def _bump(self) -> None:
        async with self.condition:
            self.version += 1
            self.condition.notify_all()

    # ------------------------------------------------------------------
    # The dispatch loop
    # ------------------------------------------------------------------
    async def run(self) -> None:
        """Dispatch until :meth:`drain` completes; then clean up."""
        try:
            while True:
                while (not self._draining
                       and len(self._active) < self.parallel_jobs):
                    record = self.queue.pop()
                    if record is None:
                        break
                    task = asyncio.create_task(
                        self._run_job(record),
                        name=f"job-{record.job_id}")
                    self._active[record.job_id] = task
                    task.add_done_callback(
                        lambda _t, jid=record.job_id:
                        self._job_slot_freed(jid))
                if self._draining and not self._active:
                    break
                async with self.condition:
                    await self.condition.wait_for(
                        lambda: self._draining
                        or (len(self._active) < self.parallel_jobs
                            and self.queue.has_queued()))
                if self._draining and self._active:
                    await asyncio.gather(*self._active.values(),
                                         return_exceptions=True)
        finally:
            self._shutdown_pool()
            self._stopped.set()
            await self._bump()

    def _job_slot_freed(self, job_id: str) -> None:
        # Done-callback: the job task bumped *before* leaving
        # ``_active``, so re-notify now that the slot is really free
        # or the dispatch loop could sleep through a queued job.
        self._active.pop(job_id, None)
        asyncio.ensure_future(self._bump())

    async def drain(self) -> None:
        """Graceful stop: finish in-flight chunks, requeue the rest."""
        self._draining = True
        await self._bump()
        await self._stopped.wait()

    def _shutdown_pool(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # ------------------------------------------------------------------
    # One job
    # ------------------------------------------------------------------
    async def _run_job(self, record: JobRecord) -> None:
        try:
            interrupted = await self._execute(record)
            if interrupted:
                self.queue.requeue(record.job_id)
        except Exception:
            self.queue.fail(record.job_id,
                            traceback.format_exc(limit=8))
        finally:
            if record.finished:
                self.jobs_finished += 1
            await self._bump()

    async def _execute(self, record: JobRecord) -> bool:
        """Run one job; True if drain interrupted it mid-cells."""
        loop = asyncio.get_running_loop()
        artifact = await loop.run_in_executor(None, self._compute,
                                              record, loop)
        if artifact is None:
            return True
        self.queue.finish(record.job_id, artifact)
        return False

    def _compute(self, record: JobRecord, loop: asyncio.AbstractEventLoop
                 ) -> Optional[JobArtifact]:
        """Expand, execute and fold one job (a worker thread).

        Every landed batch waits for its progress to be applied on the
        loop, so a drain set there is seen before the next submission.
        None if the drain interrupted the job.
        """
        spec = record.spec
        cells = expand_cells(spec)
        outcomes: Dict[int, CellOutcome] = {}

        def landed(run: CellRun, batch: List[CellOutcome],
                   cached: bool) -> None:
            outcomes.update((outcome.index, outcome) for outcome in batch)
            asyncio.run_coroutine_threadsafe(
                self._landed(record, run, len(batch), cached),
                loop).result()

        workers = self.workers
        if spec.max_workers:
            workers = max(1, min(workers, spec.max_workers))
        run = execute_cells(cells, landed, store=self.store,
                            code=self.code, workers=workers,
                            use_cache=spec.use_cache,
                            pool=self._ensure_pool,
                            stop=lambda: self._draining)
        if not run.complete:
            return None
        return fold_job(spec, [outcomes[cell.index] for cell in cells])

    async def _landed(self, record: JobRecord, run: CellRun, count: int,
                      cached: bool) -> None:
        if cached:
            self.cells_cached += count
        else:
            self.cells_computed += count
        self.queue.progress(record.job_id,
                            cells_done=run.hits + run.computed,
                            cells_total=run.total, cache_hits=run.hits)
        await self._bump()

    def _ensure_pool(self) -> Any:
        """The worker pool, created on the first cache miss (lazy).

        Job threads call this; the lock keeps two jobs that miss at
        once from forking two pools.
        """
        with self._pool_lock:
            if self._executor is None:
                self._executor = fork_pool(self.workers)
                self._pool_created = True
            return self._executor
