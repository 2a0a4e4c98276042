"""The service's job queue: bounded, prioritised, journaled.

:class:`JobQueue` holds :class:`JobRecord`\\ s through the job state
machine ``queued -> running -> done | failed`` (plus ``cancelled``
from either live state).  Admission is **idempotent by job id** --
re-submitting a spec that is already queued, running, or finished
returns the existing record instead of a duplicate -- and **bounded**:
once ``capacity`` jobs are live (queued + running), further *new*
submissions raise :class:`QueueFullError`, which the HTTP layer maps
to 429 back-pressure.

Dispatch order is priority-major (higher first), FIFO within a
priority -- a plain heap on ``(-priority, seq)``.

Every state change is journaled through :class:`JobJournal` -- one
atomically-replaced JSON file per job under
``<store_root>/service/jobs/`` with the finished artifact embedded --
so a killed server :meth:`recovers <JobQueue.recover>` on restart:
finished jobs come back with their artifacts, and jobs that were
queued or mid-run come back ``queued`` (their completed cells are in
the result store, so re-running them is mostly cache hits).
"""

from __future__ import annotations

import heapq
import itertools
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.service.jobs import JobArtifact, JobError, JobSpec
from repro.store.store import write_atomic

#: The job state machine's states.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States in which a job still owns a queue slot.
LIVE_STATES = ("queued", "running")


class QueueFullError(RuntimeError):
    """Admission refused: the queue is at capacity (HTTP 429)."""


class UnknownJobError(KeyError):
    """Lookup of a job id the queue has never seen (HTTP 404)."""


@dataclass
class JobRecord:
    """One job's lifecycle, from submission to artifact."""

    job_id: str
    spec: JobSpec
    state: str = "queued"
    seq: int = 0
    cells_total: int = 0
    cells_done: int = 0
    cache_hits: int = 0
    resumes: int = 0
    error: str = ""
    artifact: Optional[JobArtifact] = None

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed", "cancelled")

    def status(self) -> Dict[str, Any]:
        """The wire status object (artifact text not included)."""
        out: Dict[str, Any] = {
            "id": self.job_id,
            "kind": self.spec.kind,
            "state": self.state,
            "priority": self.spec.priority,
            "cells_total": self.cells_total,
            "cells_done": self.cells_done,
            "cache_hits": self.cache_hits,
        }
        if self.resumes:
            out["resumes"] = self.resumes
        if self.error:
            out["error"] = self.error
        if self.artifact is not None:
            out["stats"] = dict(self.artifact.stats)
        return out

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "id": self.job_id,
            "spec": self.spec.to_dict(),
            "state": self.state,
            "seq": self.seq,
            "cells_total": self.cells_total,
            "cells_done": self.cells_done,
            "cache_hits": self.cache_hits,
            "resumes": self.resumes,
            "error": self.error,
        }
        if self.artifact is not None:
            data["artifact"] = {
                "artifact": self.artifact.artifact,
                "report": self.artifact.report,
                "stats": self.artifact.stats,
            }
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobRecord":
        if not isinstance(data, dict):
            raise JobError("job record must be a JSON object")
        artifact = None
        if data.get("artifact") is not None:
            blob = data["artifact"]
            artifact = JobArtifact(artifact=blob["artifact"],
                                   report=blob["report"],
                                   stats=dict(blob.get("stats", {})))
        return cls(job_id=data["id"],
                   spec=JobSpec.from_dict(data["spec"]),
                   state=data.get("state", "queued"),
                   seq=int(data.get("seq", 0)),
                   cells_total=int(data.get("cells_total", 0)),
                   cells_done=int(data.get("cells_done", 0)),
                   cache_hits=int(data.get("cache_hits", 0)),
                   resumes=int(data.get("resumes", 0)),
                   error=data.get("error", ""),
                   artifact=artifact)


# ----------------------------------------------------------------------
class JobJournal:
    """Atomic per-job JSON files: the queue's crash-safe memory."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    def path_for(self, job_id: str) -> str:
        return os.path.join(self.root, f"{job_id}.json")

    def save(self, record: JobRecord) -> None:
        # json.dumps encodes in C; the text is json.dump's, and ASCII.
        write_atomic(self.path_for(record.job_id),
                     json.dumps(record.to_dict(),
                                sort_keys=True).encode("utf-8"))

    def delete(self, job_id: str) -> None:
        try:
            os.remove(self.path_for(job_id))
        except OSError:
            pass

    def load_all(self) -> List[JobRecord]:
        """Every decodable journaled record, in submission order."""
        records = []
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return []
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.root, name)
            try:
                with open(path, encoding="utf-8") as fh:
                    records.append(JobRecord.from_dict(json.load(fh)))
            except (OSError, ValueError, KeyError, TypeError):
                continue  # torn/corrupt journal: the job is just lost
        records.sort(key=lambda r: r.seq)
        return records


# ----------------------------------------------------------------------
class JobQueue:
    """Bounded priority admission + the job state machine."""

    def __init__(self, capacity: int = 64,
                 journal: Optional[JobJournal] = None) -> None:
        self.capacity = capacity
        self.journal = journal
        self._records: Dict[str, JobRecord] = {}
        self._heap: List[Tuple[int, int, str]] = []
        self._seq = itertools.count(1)

    # ------------------------------------------------------------------
    def recover(self) -> List[JobRecord]:
        """Reload journaled jobs; interrupted ones re-queue.

        Returns the records that went back to ``queued`` (so the
        caller can log/kick the scheduler).
        """
        if self.journal is None:
            return []
        requeued = []
        top = 0
        for record in self.journal.load_all():
            self._records[record.job_id] = record
            top = max(top, record.seq)
            if record.state in LIVE_STATES:
                if record.state == "running":
                    record.state = "queued"
                    record.resumes += 1
                    self.journal.save(record)
                self._push(record)
                requeued.append(record)
        self._seq = itertools.count(top + 1)
        return requeued

    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec, job_id: str
               ) -> Tuple[JobRecord, bool]:
        """Admit a job; idempotent on *job_id*.

        Returns ``(record, created)``.  A known id returns its
        existing record untouched (same spec + same code = same work,
        whatever its state); a new one must fit under ``capacity``
        live jobs or :class:`QueueFullError` is raised.
        """
        existing = self._records.get(job_id)
        if existing is not None:
            return existing, False
        if self.live_count() >= self.capacity:
            raise QueueFullError(
                f"queue full ({self.live_count()}/{self.capacity} "
                f"jobs live); retry after one finishes")
        record = JobRecord(job_id=job_id, spec=spec,
                           seq=next(self._seq))
        # Journaled before it is admitted: a save that raises (a full
        # disk) leaves no trace, so a resubmit creates the job.
        self._save(record)
        self._records[job_id] = record
        self._push(record)
        return record, True

    def _push(self, record: JobRecord) -> None:
        heapq.heappush(self._heap,
                       (-record.spec.priority, record.seq,
                        record.job_id))

    # ------------------------------------------------------------------
    def pop(self) -> Optional[JobRecord]:
        """The next queued job (highest priority, FIFO), now running."""
        if not self.has_queued():
            return None
        _, _, job_id = heapq.heappop(self._heap)
        record = self._records[job_id]
        record.state = "running"
        self._save(record)
        return record

    def has_queued(self) -> bool:
        """True if a job waits to run.

        Heap entries of jobs no longer queued (a cancel leaves its
        entry behind) are dropped from the top first, so the answer
        never scans every job the queue has seen.
        """
        while self._heap:
            record = self._records.get(self._heap[0][2])
            if record is not None and record.state == "queued":
                return True
            heapq.heappop(self._heap)
        return False

    def requeue(self, job_id: str) -> None:
        """Put an interrupted running job back in line (drain path)."""
        record = self.get(job_id)
        if record.state == "running":
            record.state = "queued"
            record.resumes += 1
            self._push(record)
            self._save(record)

    def finish(self, job_id: str, artifact: JobArtifact) -> JobRecord:
        record = self.get(job_id)
        record.state = "done"
        record.artifact = artifact
        record.error = ""
        self._save(record)
        return record

    def fail(self, job_id: str, error: str) -> JobRecord:
        record = self.get(job_id)
        record.state = "failed"
        record.error = error
        self._save(record)
        return record

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a queued job (running jobs finish their chunks)."""
        record = self.get(job_id)
        if record.state == "queued":
            record.state = "cancelled"
            self._save(record)
        return record

    def progress(self, job_id: str, cells_done: int,
                 cells_total: int, cache_hits: int) -> JobRecord:
        record = self.get(job_id)
        record.cells_done = cells_done
        record.cells_total = cells_total
        record.cache_hits = cache_hits
        self._save(record)
        return record

    # ------------------------------------------------------------------
    def get(self, job_id: str) -> JobRecord:
        try:
            return self._records[job_id]
        except KeyError:
            raise UnknownJobError(job_id) from None

    def records(self) -> List[JobRecord]:
        """All known jobs in submission order."""
        return sorted(self._records.values(), key=lambda r: r.seq)

    def live_count(self) -> int:
        return sum(1 for r in self._records.values()
                   if r.state in LIVE_STATES)

    def stats(self) -> Dict[str, Any]:
        by_state = {state: 0 for state in JOB_STATES}
        for record in self._records.values():
            by_state[record.state] += 1
        return {"capacity": self.capacity,
                "live": self.live_count(),
                "by_state": by_state}

    def _save(self, record: JobRecord) -> None:
        if self.journal is not None:
            self.journal.save(record)
