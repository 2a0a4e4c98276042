"""simserve: the asynchronous campaign service.

Three layers over the content-addressed result store:

* a **job queue + scheduler** (:mod:`repro.service.queue`,
  :mod:`repro.service.scheduler`) accepting campaign / margin /
  twin-diff / figure jobs as declarative specs, running their cells
  through the CLI's own executor
  (:func:`~repro.experiments.cells.execute_cells`: store hits load,
  misses go to a long-lived process pool in adaptive chunks), and
  journaling job state so a killed server resumes on restart;
* an **HTTP API** (:mod:`repro.service.http`, stdlib asyncio only)
  serving submissions, status polling/streaming, artifact and report
  fetches, and store/queue health to any number of concurrent
  clients -- every artifact byte-identical to the direct CLI's;
* a **client + CLI** (:mod:`repro.service.client`, the ``serve`` /
  ``submit`` / ``status`` subcommands) used by tests and CI.

The correctness contract is byte-identity: a payload served over HTTP
equals the same artifact produced by the one-shot CLI, whatever the
worker count, scheduling order, or cache temperature.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import (
    JOB_KINDS,
    Cell,
    CellOutcome,
    JobArtifact,
    JobError,
    JobSpec,
    expand_cells,
    fold_job,
    run_cell,
)
from repro.service.queue import (
    JOB_STATES,
    JobJournal,
    JobQueue,
    JobRecord,
    QueueFullError,
    UnknownJobError,
)
from repro.service.scheduler import Scheduler, ServiceDraining

__all__ = [
    "JOB_KINDS",
    "JOB_STATES",
    "Cell",
    "CellOutcome",
    "JobArtifact",
    "JobError",
    "JobJournal",
    "JobQueue",
    "JobRecord",
    "JobSpec",
    "QueueFullError",
    "Scheduler",
    "ServiceClient",
    "ServiceDraining",
    "ServiceError",
    "UnknownJobError",
    "expand_cells",
    "fold_job",
    "run_cell",
]
