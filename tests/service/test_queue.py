"""The queue state machine: admission, priority, journal recovery."""

import errno
import importlib
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.service.jobs import JobArtifact, JobSpec
from repro.service.queue import (
    JobJournal,
    JobQueue,
    QueueFullError,
    UnknownJobError,
)
from tests.store.test_concurrent import _FullDisk, _tmp_files


def fig_spec(seed, priority=0):
    return JobSpec.from_dict({"kind": "figure", "scenario": "fig7",
                              "samples": 60, "seed": seed,
                              "priority": priority})


class TestAdmission:
    def test_idempotent_by_job_id(self):
        queue = JobQueue(capacity=4)
        spec = fig_spec(1)
        first, created = queue.submit(spec, "job-a")
        again, created2 = queue.submit(spec, "job-a")
        assert created and not created2
        assert again is first
        assert queue.live_count() == 1

    def test_capacity_rejects_with_queue_full(self):
        queue = JobQueue(capacity=2)
        queue.submit(fig_spec(1), "a")
        queue.submit(fig_spec(2), "b")
        with pytest.raises(QueueFullError, match="2/2"):
            queue.submit(fig_spec(3), "c")
        # Known ids still dedupe fine at capacity.
        _, created = queue.submit(fig_spec(1), "a")
        assert not created

    def test_finished_jobs_free_their_slot(self):
        from repro.service.jobs import JobArtifact

        queue = JobQueue(capacity=1)
        queue.submit(fig_spec(1), "a")
        queue.pop()
        queue.finish("a", JobArtifact(artifact="{}\n", report="ok"))
        record, created = queue.submit(fig_spec(2), "b")
        assert created and record.state == "queued"

    def test_unknown_job_raises(self):
        with pytest.raises(UnknownJobError):
            JobQueue().get("nope")


class TestOrdering:
    def test_priority_major_fifo_minor(self):
        queue = JobQueue(capacity=8)
        queue.submit(fig_spec(1, priority=0), "low-1")
        queue.submit(fig_spec(2, priority=5), "high")
        queue.submit(fig_spec(3, priority=0), "low-2")
        order = [queue.pop().job_id for _ in range(3)]
        assert order == ["high", "low-1", "low-2"]
        assert queue.pop() is None

    def test_cancelled_jobs_are_skipped(self):
        queue = JobQueue(capacity=8)
        queue.submit(fig_spec(1), "a")
        queue.submit(fig_spec(2), "b")
        queue.cancel("a")
        assert queue.pop().job_id == "b"
        assert queue.pop() is None
        assert queue.get("a").state == "cancelled"


class TestStateMachine:
    def test_fail_and_finish_paths(self):
        from repro.service.jobs import JobArtifact

        queue = JobQueue(capacity=8)
        queue.submit(fig_spec(1), "a")
        queue.submit(fig_spec(2), "b")
        queue.pop(), queue.pop()
        done = queue.finish("a", JobArtifact(artifact="{}\n",
                                             report="ok"))
        failed = queue.fail("b", "worker exploded")
        assert done.finished and done.state == "done"
        assert failed.finished and failed.error == "worker exploded"
        stats = queue.stats()
        assert stats["by_state"]["done"] == 1
        assert stats["by_state"]["failed"] == 1
        assert stats["live"] == 0

    def test_requeue_marks_resume(self):
        queue = JobQueue(capacity=8)
        queue.submit(fig_spec(1), "a")
        record = queue.pop()
        queue.requeue("a")
        assert record.state == "queued"
        assert record.resumes == 1
        assert queue.pop() is record


class TestJournal:
    def test_recover_requeues_interrupted_jobs(self, tmp_path):
        root = str(tmp_path / "journal")
        journal = JobJournal(root)
        queue = JobQueue(capacity=8, journal=journal)
        queue.submit(fig_spec(1), "queued-job")
        queue.submit(fig_spec(2), "running-job")
        queue.submit(fig_spec(3), "done-job")
        from repro.service.jobs import JobArtifact

        # Drive running-job and done-job out of the queued state.
        popped = {queue.pop().job_id, queue.pop().job_id,
                  queue.pop().job_id}
        assert popped == {"queued-job", "running-job", "done-job"}
        queue.requeue("queued-job")
        queue.finish("done-job", JobArtifact(
            artifact='{"x": 1}\n', report="done", stats={"n": 1}))

        # A fresh queue on the same journal: the kill-and-restart.
        fresh = JobQueue(capacity=8, journal=JobJournal(root))
        requeued = fresh.recover()
        assert {r.job_id for r in requeued} == {"queued-job",
                                               "running-job"}
        assert fresh.get("running-job").state == "queued"
        assert fresh.get("running-job").resumes == 1
        done = fresh.get("done-job")
        assert done.state == "done"
        assert done.artifact.artifact == '{"x": 1}\n'
        assert done.artifact.stats == {"n": 1}
        # Recovery preserves dispatch order and new seqs continue on.
        record, created = fresh.submit(fig_spec(9), "new-job")
        assert created
        assert record.seq > done.seq

    def test_corrupt_journal_entry_is_skipped(self, tmp_path):
        root = str(tmp_path / "journal")
        journal = JobJournal(root)
        queue = JobQueue(capacity=8, journal=journal)
        queue.submit(fig_spec(1), "good")
        with open(os.path.join(root, "bad.json"), "w") as fh:
            fh.write("{torn")
        fresh = JobQueue(capacity=8, journal=JobJournal(root))
        fresh.recover()
        assert [r.job_id for r in fresh.records()] == ["good"]

    @pytest.mark.parametrize("body", [
        [1, 2], "x", 7, None,
        {"artifact": "s"},   # an artifact that is not an object
        {"seq": {}},         # a seq that is not a number
    ], ids=["list", "string", "number", "null", "artifact", "seq"])
    def test_json_that_is_not_a_record_is_skipped(self, tmp_path, body):
        root = str(tmp_path / "journal")
        queue = JobQueue(capacity=8, journal=JobJournal(root))
        queue.submit(fig_spec(1), "good")
        if isinstance(body, dict):
            body = {"id": "bad", "spec": fig_spec(2).to_dict(), **body}
        with open(os.path.join(root, "bad.json"), "w") as fh:
            json.dump(body, fh)
        fresh = JobQueue(capacity=8, journal=JobJournal(root))
        assert [r.job_id for r in fresh.recover()] == ["good"]
        assert [r.job_id for r in fresh.records()] == ["good"]

    def test_journal_files_are_valid_json(self, tmp_path):
        journal = JobJournal(str(tmp_path / "journal"))
        queue = JobQueue(capacity=8, journal=journal)
        record, _ = queue.submit(fig_spec(1), "a")
        with open(journal.path_for("a")) as fh:
            data = json.load(fh)
        assert data["state"] == "queued"
        assert data["spec"]["kind"] == "figure"
        # No tmp files linger after the atomic replace.
        assert [n for n in os.listdir(journal.root)
                if n.endswith(".tmp")] == []

    def test_saved_file_is_json_dumps_of_the_record(self, tmp_path):
        # The bytes json.dump wrote before the journal shared the
        # store's writer: sorted keys, default separators, ASCII.
        journal = JobJournal(str(tmp_path / "journal"))
        queue = JobQueue(capacity=8, journal=journal)
        queue.submit(fig_spec(1), "a")
        queue.pop()
        record = queue.finish("a", JobArtifact(
            artifact='{\n  "max_us": 12.5\n}\n',
            report="max 12.5 \u00b5s \u2713", stats={"cells": 1}))
        with open(journal.path_for("a"), "rb") as fh:
            raw = fh.read()
        assert raw == json.dumps(record.to_dict(),
                                 sort_keys=True).encode("ascii")
        assert JobJournal(journal.root).load_all()[0].artifact.report == (
            "max 12.5 \u00b5s \u2713")

    def test_failed_save_keeps_the_previous_file(self, tmp_path,
                                                  monkeypatch):
        journal = JobJournal(str(tmp_path / "journal"))
        queue = JobQueue(capacity=8, journal=journal)
        record, _ = queue.submit(fig_spec(1), "abc")
        with open(journal.path_for("abc"), "rb") as fh:
            before = fh.read()

        def full_open(file, mode="r", *args, **kwargs):
            return _FullDisk(open(file, mode, *args, **kwargs))

        monkeypatch.setattr(importlib.import_module("repro.store.store"),
                            "open", full_open, raising=False)
        record.state = "running"
        with pytest.raises(OSError) as excinfo:
            journal.save(record)
        assert excinfo.value.errno == errno.ENOSPC
        assert _tmp_files(journal.root) == []
        with open(journal.path_for("abc"), "rb") as fh:
            assert fh.read() == before


    def test_a_failed_first_save_admits_nothing(self, tmp_path):
        journal = _FullOnce(str(tmp_path / "journal"))
        queue = JobQueue(capacity=8, journal=journal)
        with pytest.raises(OSError) as excinfo:
            queue.submit(fig_spec(1), "abc")
        assert excinfo.value.errno == errno.ENOSPC
        assert queue.records() == []
        assert not queue.has_queued()
        record, created = queue.submit(fig_spec(1), "abc")
        assert created and record.state == "queued"
        assert [r.job_id for r in JobJournal(journal.root).load_all()] == [
            "abc"]


class _FullOnce(JobJournal):
    """A journal whose first save fails as on a full disk."""

    failed = False

    def save(self, record):
        if not self.failed:
            self.failed = True
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        super().save(record)


_OPS = ("submit", "pop", "cancel", "requeue", "finish", "fail", "recover")


class TestHasQueued:
    """``has_queued`` answers from the heap; a scan of every record is
    the oracle, whatever order of transitions led there."""

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(ops=st.lists(st.tuples(st.sampled_from(_OPS),
                                  st.integers(0, 9)), max_size=30))
    def test_agrees_with_a_scan_of_every_record(self, ops):
        with tempfile.TemporaryDirectory() as root:
            queue = JobQueue(capacity=64, journal=JobJournal(root))
            for n, (op, pick) in enumerate(ops):
                records = queue.records()
                target = records[pick % len(records)] if records else None
                if op == "submit":
                    queue.submit(fig_spec(n, priority=pick % 3), f"j{n}")
                elif op == "pop":
                    queue.pop()
                elif op == "recover":
                    queue = JobQueue(capacity=64, journal=JobJournal(root))
                    queue.recover()
                elif target is None:
                    continue
                elif op == "cancel":
                    queue.cancel(target.job_id)
                elif op == "requeue":
                    queue.requeue(target.job_id)
                elif target.state == "running":
                    if op == "finish":
                        queue.finish(target.job_id, JobArtifact(
                            artifact="{}\n", report="ok"))
                    else:
                        queue.fail(target.job_id, "boom")
                expected = any(r.state == "queued"
                               for r in queue.records())
                assert queue.has_queued() is expected, (op, n)
