"""The scheduler: dedupe-instant completion, drain, resume, failure.

All tests drive the asyncio loop with ``asyncio.run`` (no event-loop
plugin needed) and use small fig7 jobs so the worker pool's work is
seconds, not minutes.
"""

import asyncio
import os

import pytest

from repro.service.jobs import JobArtifact, JobSpec
from repro.service.queue import JobJournal, JobQueue, QueueFullError
from repro.service.scheduler import Scheduler, ServiceDraining

FIGURE = {"kind": "figure", "scenario": "fig7", "samples": 80,
          "seed": 3}
CAMPAIGN = {"kind": "campaign", "scenarios": "fig7", "seeds": "1..4",
            "samples": 100}


def build(root, capacity=8, workers=2, parallel_jobs=2):
    journal = JobJournal(os.path.join(root, "service", "jobs"))
    queue = JobQueue(capacity=capacity, journal=journal)
    queue.recover()
    return Scheduler(root, queue, workers=workers,
                     parallel_jobs=parallel_jobs)


async def serve_jobs(sched, specs, timeout=300.0):
    """Run the loop, submit *specs*, drain once all finish."""
    run = asyncio.ensure_future(sched.run())
    records = []
    for spec in specs:
        record, _created = await sched.submit(JobSpec.from_dict(spec))
        records.append(record)
    for record in records:
        await sched.wait_for(record.job_id, timeout=timeout)
    await sched.drain()
    await run
    return records


class TestExecution:
    def test_cold_job_computes_and_persists(self, tmp_path):
        root = str(tmp_path / "store")
        sched = build(root)
        (record,) = asyncio.run(serve_jobs(sched, [FIGURE]))
        assert record.state == "done"
        assert record.cells_total == 1 and record.cache_hits == 0
        assert sched.cells_computed == 1
        assert record.artifact.artifact.endswith("\n")

    def test_fully_cached_job_never_spawns_a_worker(self, tmp_path):
        root = str(tmp_path / "store")
        cold = build(root)
        (first,) = asyncio.run(serve_jobs(cold, [FIGURE]))
        assert cold.workers_spawned

        # Fresh scheduler, fresh journal, same store: every cell is
        # a content-key hit, so the pool must never be created.
        for name in os.listdir(os.path.join(root, "service", "jobs")):
            os.remove(os.path.join(root, "service", "jobs", name))
        warm = build(root)
        (again,) = asyncio.run(serve_jobs(warm, [FIGURE]))
        assert again.state == "done"
        assert again.cache_hits == again.cells_total == 1
        assert not warm.workers_spawned
        assert warm.cells_computed == 0
        assert again.artifact.artifact == first.artifact.artifact

    def test_priority_orders_execution(self, tmp_path, monkeypatch):
        order = []
        real_execute = Scheduler._execute

        async def spying_execute(self, record):
            order.append(record.job_id)
            return await real_execute(self, record)

        monkeypatch.setattr(Scheduler, "_execute", spying_execute)
        sched = build(str(tmp_path / "store"), parallel_jobs=1)

        async def main():
            low = JobSpec.from_dict(dict(FIGURE, seed=11))
            mid = JobSpec.from_dict(dict(FIGURE, seed=12))
            high = JobSpec.from_dict(dict(FIGURE, seed=13,
                                          priority=5))
            records = []
            for spec in (low, mid, high):
                record, _ = await sched.submit(spec)
                records.append(record)
            run = asyncio.ensure_future(sched.run())
            for record in records:
                await sched.wait_for(record.job_id, timeout=300)
            await sched.drain()
            await run
            return records

        low, mid, high = asyncio.run(main())
        assert order == [high.job_id, low.job_id, mid.job_id]

    def test_worker_failure_fails_the_job(self, tmp_path,
                                          monkeypatch):
        import repro.experiments.campaign as campaign_mod

        def explode(_spec, **_kwargs):
            raise RuntimeError("injected worker crash")

        # The pool is forked lazily *after* this patch, so workers
        # inherit the exploding run_scenario.
        monkeypatch.setattr(campaign_mod, "run_scenario", explode)
        sched = build(str(tmp_path / "store"), workers=1)

        async def main():
            record, _ = await sched.submit(JobSpec.from_dict(FIGURE))
            run = asyncio.ensure_future(sched.run())
            await sched.wait_for(record.job_id, timeout=300)
            await sched.drain()
            await run
            return record

        record = asyncio.run(main())
        assert record.state == "failed"
        assert "injected worker crash" in record.error


class TestBackpressureAndDrain:
    def test_capacity_rejection_is_queue_full(self, tmp_path):
        sched = build(str(tmp_path / "store"), capacity=1)

        async def main():
            await sched.submit(JobSpec.from_dict(FIGURE))
            with pytest.raises(QueueFullError):
                await sched.submit(
                    JobSpec.from_dict(dict(FIGURE, seed=9)))

        asyncio.run(main())

    def test_submission_while_draining_is_refused(self, tmp_path):
        sched = build(str(tmp_path / "store"))

        async def main():
            run = asyncio.ensure_future(sched.run())
            await sched.drain()
            with pytest.raises(ServiceDraining):
                await sched.submit(JobSpec.from_dict(FIGURE))
            await run

        asyncio.run(main())

    def test_drain_mid_job_requeues_and_resume_completes(
            self, tmp_path, monkeypatch):
        """The kill-and-resume contract, end to end.

        Drain fires after the first chunk lands: in-flight cells
        persist, the job goes back to ``queued`` in the journal, and
        a brand-new scheduler over the same store finishes it with
        the already-computed cells arriving as cache hits.
        """
        root = str(tmp_path / "store")
        sched = build(root, workers=1, parallel_jobs=1)
        real_progress = JobQueue.progress

        def draining_progress(queue, job_id, cells_done, cells_total,
                              cache_hits):
            record = real_progress(queue, job_id, cells_done,
                                   cells_total, cache_hits)
            if 0 < cells_done < cells_total:
                sched._draining = True  # the SIGTERM path, minus race
            return record

        monkeypatch.setattr(JobQueue, "progress", draining_progress)

        async def interrupted_main():
            record, _ = await sched.submit(
                JobSpec.from_dict(CAMPAIGN))
            run = asyncio.ensure_future(sched.run())
            await run
            return record

        record = asyncio.run(interrupted_main())
        assert record.state == "queued"
        assert record.resumes == 1
        assert 0 < record.cells_done < record.cells_total

        # Restart: recover() re-queues it; completion is mostly hits.
        monkeypatch.setattr(JobQueue, "progress", real_progress)
        resumed = build(root, workers=1, parallel_jobs=1)
        requeued = resumed.queue.records()
        assert [r.job_id for r in requeued] == [record.job_id]

        async def resumed_main():
            run = asyncio.ensure_future(resumed.run())
            await resumed.wait_for(record.job_id, timeout=300)
            await resumed.drain()
            await run
            return resumed.queue.get(record.job_id)

        final = asyncio.run(resumed_main())
        assert final.state == "done"
        assert final.cache_hits >= record.cells_done
        assert final.cache_hits < final.cells_total

        # The resumed artifact equals a straight-through run's.
        from repro.experiments.campaign import run_campaign
        from repro.experiments.export import campaign_to_dict, to_json

        direct = run_campaign(("fig7",), seeds=(1, 2, 3, 4),
                              samples=100)
        assert final.artifact.artifact == \
            to_json(campaign_to_dict(direct)) + "\n"

    def test_cancelled_job_is_never_executed(self, tmp_path):
        sched = build(str(tmp_path / "store"), parallel_jobs=1)

        async def main():
            keep, _ = await sched.submit(JobSpec.from_dict(FIGURE))
            drop, _ = await sched.submit(
                JobSpec.from_dict(dict(FIGURE, seed=21)))
            sched.queue.cancel(drop.job_id)
            run = asyncio.ensure_future(sched.run())
            await sched.wait_for(keep.job_id, timeout=300)
            await sched.drain()
            await run
            return keep, drop

        keep, drop = asyncio.run(main())
        assert keep.state == "done"
        assert drop.state == "cancelled"
        assert drop.cells_total == 0


class TestDispatch:
    def test_a_long_history_still_dispatches_a_new_job(self, tmp_path):
        # 400 finished jobs and 100 cancelled ones whose heap entries
        # outrank the new job: dispatch must skip them, not stall.
        queue = JobQueue(capacity=8)
        for n in range(400):
            queue.submit(JobSpec.from_dict(dict(FIGURE, seed=100 + n)),
                         f"old-{n}")
            queue.pop()
            queue.finish(f"old-{n}", JobArtifact(artifact="{}\n",
                                                 report="old"))
        for n in range(100):
            queue.submit(JobSpec.from_dict(dict(FIGURE, seed=600 + n,
                                                priority=5)),
                         f"cancelled-{n}")
            queue.cancel(f"cancelled-{n}")
        sched = Scheduler(str(tmp_path / "store"), queue, workers=1,
                          parallel_jobs=1)
        (record,) = asyncio.run(serve_jobs(sched, [FIGURE]))
        assert record.state == "done"
        assert queue.stats()["by_state"] == {
            "queued": 0, "running": 0, "done": 401, "failed": 0,
            "cancelled": 100}


class TestHealth:
    def test_health_reports_queue_and_store(self, tmp_path):
        sched = build(str(tmp_path / "store"))
        (record,) = asyncio.run(serve_jobs(sched, [FIGURE]))
        health = sched.health()
        assert health["jobs_finished"] == 1
        assert health["queue"]["by_state"]["done"] == 1
        assert health["store"]["entries"] == record.cells_total
        assert health["workers_spawned"]
