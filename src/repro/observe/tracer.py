"""SimTracer: one-run orchestration of the observability stack.

Installs typed tracing on an assembled bench for the duration of one
scenario run: it enables the simulator's tracepoints (every layer,
locks included, emits through ``sim.tp`` at its call site) with the
attribution engine as their listener, and wraps the watched program's
recorder methods so every recorded sample feeds that engine.
``uninstall()`` restores everything.

Nothing here consumes simulated time or randomness: a traced run is
byte-identical to an untraced one (the golden sweep enforces this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.observe.attribution import AttributionEngine
from repro.observe.chrometrace import export_chrome_trace
from repro.observe.tracepoints import Tracepoints


def check_percentile(value: Any, name: str) -> float:
    """A percentile: a number in [0, 100]; the ValueError names *name*,
    the flag or field."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0 <= value <= 100):
        raise ValueError(f"{name} must be a number in [0, 100], "
                         f"got {value!r}")
    return value


@dataclass(frozen=True)
class TraceConfig:
    """Knobs for one traced run."""

    #: Per-CPU ring capacity (events).
    capacity: int = 65536
    #: Attribution report covers samples at/above this percentile.
    threshold_pct: float = 99.0
    #: How many worst samples to itemise in the report.
    top: int = 10
    #: Chrome trace-event JSON output path ("" = no export).
    out: str = ""
    #: Attach a full trace recording (events + accounting + per-sample
    #: attribution) to ``ScenarioResult.trace["recording"]`` for
    #: simdiff (:mod:`repro.observe.diff`).
    record: bool = False

    def __post_init__(self) -> None:
        # Refused here, before any bench is built for the run.
        if self.capacity < 1:
            raise ValueError(f"trace capacity must be >= 1, "
                             f"got {self.capacity!r}")
        check_percentile(self.threshold_pct, "trace threshold_pct")


class SimTracer:
    """Per-run tracing session over one :class:`Bench`."""

    def __init__(self, bench: Any,
                 config: Optional[TraceConfig] = None) -> None:
        self.bench = bench
        self.config = config or TraceConfig()
        self.tp: Tracepoints = bench.sim.tp
        preemptible = getattr(bench.kernel.config, "preemptible", False)
        self.engine = AttributionEngine(bench.machine.ncpus, preemptible)
        self._watched: list = []
        self._installed = False

    # ==================================================================
    # Installation
    # ==================================================================
    def install(self) -> "SimTracer":
        if self._installed:
            return self
        self._installed = True
        tp = self.tp
        if tp.capacity != self.config.capacity:
            tp.capacity = self.config.capacity
            tp.configure(self.bench.machine.ncpus)
        tp.clear()
        tp.listener = self.engine
        tp.enable()
        return self

    def uninstall(self) -> None:
        if not self._installed:
            return
        self._installed = False
        for recorder, orig_return, orig_latency in self._watched:
            if orig_return is None:
                recorder.__dict__.pop("record_return", None)
            else:
                recorder.record_return = orig_return
            if orig_latency is None:
                recorder.__dict__.pop("record_latency", None)
            else:
                recorder.record_latency = orig_latency
        self._watched.clear()
        tp = self.tp
        tp.listener = None
        tp.disable()

    # ==================================================================
    # The watched measurement program
    # ==================================================================
    def watch_program(self, program: Any) -> None:
        """Attribute every sample *program*'s recorder records.

        Determinism programs carry a ``JitterRecorder`` (durations,
        not latencies); those runs still get tracepoints and
        accounting, just no attribution samples.
        """
        self.engine.watch = program.spec().name
        recorder = program.recorder
        if not hasattr(recorder, "record_return"):
            return
        orig_return = recorder.__dict__.get("record_return")
        orig_latency = recorder.__dict__.get("record_latency")
        bound_return = recorder.record_return
        bound_latency = recorder.record_latency

        def record_return(tsc_now):
            latency = bound_return(tsc_now)
            if latency is not None:
                self._on_sample(latency)
            return latency

        def record_latency(latency_ns):
            bound_latency(latency_ns)
            self._on_sample(latency_ns if latency_ns > 0 else 0)

        recorder.record_return = record_return
        recorder.record_latency = record_latency
        self._watched.append((recorder, orig_return, orig_latency))

    def _on_sample(self, latency: int) -> None:
        now = self.bench.sim.now
        self.engine.on_sample(now, latency)
        tp = self.tp
        if tp.enabled:
            tp.latency_sample(now, self.engine.current_cpu(),
                              self.engine.watch or "?", latency)

    # ==================================================================
    # Results
    # ==================================================================
    def report(self) -> Dict[str, Any]:
        """Plain-data trace report (rides on ``ScenarioResult.trace``)."""
        tp = self.tp
        return {
            "hits": tp.hit_counts(),
            "dropped": tp.dropped(),
            "accounting": tp.accounting.to_dict(),
            "attribution": self.engine.report(self.config.threshold_pct,
                                              self.config.top),
        }

    def export_chrome(self, path: str,
                      metadata: Optional[Dict[str, Any]] = None) -> None:
        export_chrome_trace(self.tp, path, metadata)
