"""Memory management effects: page faults and ``mlockall``.

Section 5 of the paper: "Linux supports the ability to lock an
application's pages in memory, preventing the jitter that would be
caused when a program first accesses a page not resident in memory and
turning a simple memory access into a page fault."

The model: user-mode computation by a task that has *not* locked its
pages takes minor faults at a Poisson rate (a few per millisecond of
execution), each costing a few microseconds of kernel time, and
occasionally a major fault requiring disk I/O.  ``mlockall`` disables
both.  Faults are injected by the :class:`~repro.kernel.syscalls.UserApi`
compute helper, since whether memory is locked is a property of the
calling program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernel.timing import bounded_int
from repro.sim.simtime import MSEC, USEC


@dataclass(slots=True)
class FaultModel:
    """Parameters of the page-fault process."""

    #: Minor faults per millisecond of unlocked user execution.
    minor_rate_per_ms: float = 0.8
    #: Minor fault service time bounds (kernel-mode, ns).
    minor_cost_lo: int = 2 * USEC
    minor_cost_hi: int = 9 * USEC
    #: Probability that a fault is major (requires disk I/O).
    major_fraction: float = 0.004

    def sample_fault_count(self, work_ns: int,
                           rng: np.random.Generator) -> int:
        """Number of minor faults in *work_ns* of unlocked execution."""
        if work_ns <= 0:
            return 0
        lam = self.minor_rate_per_ms * (work_ns / MSEC)
        if lam <= 0:
            return 0
        return int(rng.poisson(lam))

    def sample_fault_cost(self, rng: np.random.Generator) -> int:
        """Kernel time to service one minor fault."""
        return bounded_int(rng, self.minor_cost_lo, self.minor_cost_hi)

    def is_major(self, rng: np.random.Generator) -> bool:
        return bool(rng.random() < self.major_fraction)
