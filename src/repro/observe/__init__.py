"""Observability: typed tracepoints, per-CPU accounting, attribution.

The package is linsim's analogue of the kernel's ftrace/perf stack:

* :mod:`repro.observe.tracepoints` -- the static tracepoint registry
  and per-CPU ring buffers (zero-alloc when disabled),
* :mod:`repro.observe.accounting` -- ``/proc/stat`` /
  ``/proc/interrupts``-style counters maintained O(1) at tracepoints,
* :mod:`repro.observe.attribution` -- the latency attribution engine
  decomposing each recorded sample into mechanism buckets,
* :mod:`repro.observe.chrometrace` -- Chrome trace-event (Perfetto)
  JSON export with CPUs as tracks,
* :mod:`repro.observe.tracer` -- the :class:`SimTracer` orchestration
  that installs all of the above on a bench for one run,
* :mod:`repro.observe.diff` -- simdiff: trace recordings persisted as
  ``RTRACE1`` store entries, cross-run attribution diffing with
  first-divergence reports, and the semantic-golden CI mode.

Everything here is observational: enabling tracing must never add
simulated time, consume RNG draws, or otherwise perturb the run (the
golden byte-identity sweep enforces this for every scenario).
"""

from repro.observe.tracepoints import TP, Tracepoints
from repro.observe.tracer import SimTracer, TraceConfig

__all__ = [
    "TP",
    "Tracepoints",
    "SimTracer",
    "TraceConfig",
]
