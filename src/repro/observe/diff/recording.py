"""Trace recordings: one traced run, frozen into plain data.

A :class:`TraceRecording` captures everything simdiff needs to compare
two runs after the fact: the typed tracepoint stream (merged across
CPUs, time-ordered), the per-CPU accounting snapshot, and the
attribution timeline -- one ``(end, latency, breakdown)`` row per
recorded sample, with any bookkeeping residue folded into the
``other`` bucket so every row sums to its latency **exactly** (the
invariant the diff engine's bucket-delta closure rests on).

The body is JSON-able data, so recordings cross process boundaries
(campaign workers pickle them on ``ScenarioResult.trace``) and persist
as ``RTRACE1`` entries.  A fresh body's event rows are the tracepoint
rings' own ``(time, cpu, code, args)`` tuples; a loaded body holds the
same rows as JSON lists.  JSON encodes a tuple exactly as a list, so
both forms have one digest and one frame, and the diff engine compares
rows by value.  Entries are stored either as standalone files
(:meth:`TraceRecording.save` / :meth:`TraceRecording.load`) or in a
content-addressed :class:`~repro.store.store.ResultStore` keyed by
:func:`~repro.store.keys.recording_key`.

A recording also embeds its run knobs (sample count, seed, capacity,
fault plan/intensity, shield state), so :func:`spec_for_recording`
can rebuild the spec and re-record the same run against the *current*
code tree -- the semantic-golden mode: the committed baseline says
what the run should look like, and a diff explains any drift in
mechanism terms instead of a CRC mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.store.entry import (StoreCorruptError, decode_recording,
                               encode_recording)
from repro.store.keys import code_version, digest_of
from repro.store.store import write_atomic

#: Recording body schema version (inside the RTRACE1 payload).
RECORDING_FORMAT = 1

#: Fault-report fields worth persisting (the timeline is O(injections)
#: and only these summaries are ever compared).
_FAULT_FIELDS = ("plan", "intensity", "enabled", "injections",
                 "by_injector", "digest")


class RecordingError(ValueError):
    """A recording body failed validation or could not be loaded."""


@dataclass
class TraceRecording:
    """One traced run as plain data (see module docstring)."""

    scenario: str
    kind: str
    kernel_name: str
    seed: int
    ncpus: int
    watched: Optional[str]
    shielded: bool
    shield: Dict[str, Any]
    fault_plan: str
    fault_intensity: float
    samples_target: int
    iterations: int
    capacity: int
    code: str
    #: Tracepoint stream: ``(time, cpu, tp, (args...))`` rows, merged
    #: across CPUs and time-ordered (ties by CPU index).  Tuples when
    #: fresh from a run, lists when loaded from JSON.
    events: List[Sequence[Any]] = field(default_factory=list)
    dropped: int = 0
    accounting: Dict[str, Any] = field(default_factory=dict)
    #: Attribution timeline: ``[end, latency, {bucket: ns}]`` rows in
    #: record order; each breakdown sums to its latency exactly.
    samples: List[List[Any]] = field(default_factory=list)
    hits: Dict[str, int] = field(default_factory=dict)
    faults: Optional[Dict[str, Any]] = None

    # -- derived --------------------------------------------------------
    def total_latency_ns(self) -> int:
        return sum(int(s[1]) for s in self.samples)

    def max_latency_ns(self) -> int:
        return max((int(s[1]) for s in self.samples), default=0)

    def describe(self) -> str:
        shield = "shielded" if self.shielded else "unshielded"
        fault = (f", faults={self.fault_plan}"
                 f"@{self.fault_intensity:g}" if self.fault_plan else "")
        return (f"{self.scenario} seed={self.seed} {shield}"
                f" samples={len(self.samples)}{fault}"
                f" code={self.code[:12]}")

    # -- body <-> dataclass --------------------------------------------
    def to_body(self) -> Dict[str, Any]:
        return {
            "recording_format": RECORDING_FORMAT,
            "scenario": self.scenario,
            "kind": self.kind,
            "kernel_name": self.kernel_name,
            "seed": self.seed,
            "ncpus": self.ncpus,
            "watched": self.watched,
            "shielded": self.shielded,
            "shield": dict(self.shield),
            "fault_plan": self.fault_plan,
            "fault_intensity": self.fault_intensity,
            "samples_target": self.samples_target,
            "iterations": self.iterations,
            "capacity": self.capacity,
            "code": self.code,
            "events": self.events,
            "dropped": self.dropped,
            "accounting": self.accounting,
            "samples": self.samples,
            "hits": dict(self.hits),
            "faults": self.faults,
        }

    @classmethod
    def from_body(cls, body: Dict[str, Any]) -> "TraceRecording":
        if not isinstance(body, dict):
            raise RecordingError("recording body is not an object")
        if body.get("recording_format") != RECORDING_FORMAT:
            raise RecordingError(
                f"unsupported recording format "
                f"{body.get('recording_format')!r}")
        try:
            return cls(
                scenario=body["scenario"],
                kind=body["kind"],
                kernel_name=body["kernel_name"],
                seed=int(body["seed"]),
                ncpus=int(body["ncpus"]),
                watched=body.get("watched"),
                shielded=bool(body["shielded"]),
                shield=dict(body["shield"]),
                fault_plan=body.get("fault_plan", ""),
                fault_intensity=float(body.get("fault_intensity", 1.0)),
                samples_target=int(body["samples_target"]),
                iterations=int(body["iterations"]),
                capacity=int(body["capacity"]),
                code=body["code"],
                events=list(body["events"]),
                dropped=int(body.get("dropped", 0)),
                accounting=dict(body.get("accounting", {})),
                samples=list(body["samples"]),
                hits=dict(body.get("hits", {})),
                faults=body.get("faults"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RecordingError(
                f"malformed recording body: {exc}") from None

    # -- persistence ----------------------------------------------------
    def save(self, path: str) -> str:
        """Write this recording as a standalone RTRACE1 file.

        The file *is* a store entry (same frame, same CRC trailer),
        keyed by the digest of its own body so it self-validates:
        :meth:`load` recomputes that digest and refuses a mismatch.
        """
        body = self.to_body()
        return write_atomic(
            path, encode_recording(body, digest_of(body), self.code))

    @classmethod
    def load(cls, path: str) -> "TraceRecording":
        """Read a standalone RTRACE1 file back into a recording."""
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError as exc:
            raise RecordingError(f"cannot read {path}: {exc}") from None
        try:
            meta, body = decode_recording(blob)
        except StoreCorruptError as exc:
            raise RecordingError(f"{path}: {exc}") from None
        digest = digest_of(body)
        if meta.get("key") != digest:
            raise RecordingError(
                f"{path}: body digest {digest} does not match "
                f"its key {meta.get('key')}")
        return cls.from_body(body)


# ----------------------------------------------------------------------
# Capture
# ----------------------------------------------------------------------
def _fold_residue(latency: int,
                  breakdown: Dict[str, int]) -> Dict[str, int]:
    """Exact-closure normalisation of one sample's breakdown.

    The attribution partition is exact by construction; any residue
    from state lag at the window edges lands in ``other`` so the row
    sums to *latency* exactly (zero-valued buckets are dropped).
    """
    out = {k: int(v) for k, v in sorted(breakdown.items()) if v}
    residue = int(latency) - sum(out.values())
    if residue:
        out["other"] = out.get("other", 0) + residue
        if out["other"] == 0:
            del out["other"]
    return out


def recording_from_run(tracer: Any, spec: Any,
                       result: Any) -> TraceRecording:
    """Freeze one traced run (post-uninstall) into a recording.

    *tracer* is the run's :class:`~repro.observe.tracer.SimTracer`
    (rings retain their events after ``uninstall()``), *spec* the
    :class:`~repro.experiments.scenario.ScenarioSpec` that ran, and
    *result* the finished ``ScenarioResult`` (for the fault summary
    and kernel description).
    """
    tp = tracer.tp
    # Body rows are the rings' own tuples, not copies: they encode to
    # the same JSON as lists, and the diff engine compares by value.
    events = tp.events()
    samples = [[int(end), int(latency), _fold_residue(latency, breakdown)]
               for end, latency, breakdown in tracer.engine.samples]
    faults = None
    if result.faults is not None:
        faults = {k: result.faults[k] for k in _FAULT_FIELDS
                  if k in result.faults}
    shield = spec.shield
    return TraceRecording(
        scenario=spec.name,
        kind=spec.kind,
        kernel_name=result.kernel_name,
        seed=spec.seed,
        ncpus=tp.ncpus,
        watched=tracer.engine.watch,
        shielded=shield.any_component,
        shield={"procs": shield.procs, "irqs": shield.irqs,
                "ltmr": shield.ltmr, "cpu": shield.cpu,
                "pin_irq": shield.pin_irq},
        fault_plan=spec.fault_plan,
        fault_intensity=spec.fault_intensity,
        samples_target=spec.measurement.samples,
        iterations=spec.measurement.iterations,
        capacity=tracer.config.capacity,
        code=code_version(),
        events=events,
        dropped=tp.dropped(),
        accounting=tp.accounting.to_dict(),
        samples=samples,
        hits=tp.hit_counts(),
        faults=faults,
    )


def attach_recording(tracer: Any, spec: Any,
                     result: Any) -> Dict[str, Any]:
    """Hook for ``run_scenario``: ride the recording on the result.

    The body is plain data, so it survives the campaign runner's
    worker pickling -- which is what makes the "recordings are
    byte-identical across worker counts" guarantee testable.
    """
    body = recording_from_run(tracer, spec, result).to_body()
    if result.trace is None:
        result.trace = {}
    result.trace["recording"] = body
    return body


def record_scenario(spec: Any, capacity: int = 65536,
                    faults: Optional[Any] = None
                    ) -> Tuple[TraceRecording, Any]:
    """Run *spec* traced with recording on; returns (recording, result)."""
    from repro.experiments.scenario import run_scenario
    from repro.observe.tracer import TraceConfig

    result = run_scenario(
        spec, trace=TraceConfig(capacity=capacity, record=True),
        faults=faults)
    body = (result.trace or {}).get("recording")
    if body is None:
        raise RecordingError("traced run produced no recording")
    return TraceRecording.from_body(body), result


# ----------------------------------------------------------------------
# Replay: recording -> the spec that would re-record it
# ----------------------------------------------------------------------
def spec_for_recording(rec: TraceRecording) -> Any:
    """Rebuild the ScenarioSpec a recording's run knobs describe.

    Resolves the scenario from the *current* catalog and re-applies
    the recorded knobs (samples, iterations, seed, fault plan and
    intensity, unshielded twin override) -- re-recording under the
    current code tree is exactly the semantic-golden check.
    """
    from repro.experiments.scenario import scenario

    spec = scenario(rec.scenario).configured(
        samples=rec.samples_target,
        iterations=rec.iterations,
        seed=rec.seed,
        fault_plan=rec.fault_plan,
        fault_intensity=rec.fault_intensity,
    )
    if not rec.shielded and spec.shield.any_component:
        spec = spec.unshielded()
    return spec


def rerecord(rec: TraceRecording) -> TraceRecording:
    """Re-record a recording's run under the current code tree."""
    fresh, _result = record_scenario(spec_for_recording(rec),
                                     capacity=rec.capacity)
    return fresh
