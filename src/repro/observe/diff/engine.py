"""The simdiff engine: pair two recordings, explain the first change.

Two recordings are comparable when they ran the *same experiment* --
same scenario, kind, seed, sample target and ring capacity; the code
tree, kernel config and shield state may differ (that difference is
usually the point).  :func:`diff_recordings` then:

1. pairs the attribution timelines sample-by-sample (the measurement
   program records samples in a deterministic order, so index *i* in
   both runs is the same logical sample);
2. aggregates a per-bucket delta table over the paired samples.
   Because every recorded breakdown sums to its latency exactly (the
   recording layer folds residue into ``other``), the bucket deltas
   sum to the end-to-end latency delta **exactly** -- the engine
   verifies this closure and refuses to emit a table that lies;
3. finds the *first divergence*: the earliest paired sample whose
   ``(end, latency, breakdown)`` row differs, names the buckets whose
   contribution changed, and aligns the two runs' tracepoint spans
   inside that sample window (:mod:`repro.observe.diff.align`) to
   name the span that introduced or lost the time, with simulated-
   time coordinates;
4. reports per-CPU accounting drift (irq-off / preempt-off / BKL max
   windows and event counters).

``identical`` is the strong form of emptiness: every sample row,
the accounting snapshot, the drop counts and the full event streams
agree -- byte-identical runs are identical recordings, and identical
recordings render as an empty diff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.observe.diff.align import (
    align_spans,
    extract_spans,
    spans_in_window,
)
from repro.observe.diff.recording import TraceRecording


class TraceDiffError(ValueError):
    """Recordings are not comparable, or a closure check failed."""


#: Accounting counters compared per CPU (name -> human label).
_ACCT_FIELDS = (("max_irq_off_ns", "max irq-off"),
                ("max_preempt_off_ns", "max preempt-off"),
                ("max_bkl_hold_ns", "max BKL hold"),
                ("ticks", "ticks"),
                ("switches", "switches"),
                ("syscalls", "syscalls"),
                ("wakes", "wakes"))


def _recording_summary(rec: TraceRecording) -> Dict[str, Any]:
    return {
        "scenario": rec.scenario,
        "kind": rec.kind,
        "kernel_name": rec.kernel_name,
        "seed": rec.seed,
        "shielded": rec.shielded,
        "fault_plan": rec.fault_plan,
        "fault_intensity": rec.fault_intensity,
        "samples": len(rec.samples),
        "events": len(rec.events),
        "dropped": rec.dropped,
        "code": rec.code,
        "total_latency_ns": rec.total_latency_ns(),
        "max_latency_ns": rec.max_latency_ns(),
    }


@dataclass
class TraceDiff:
    """The full outcome of diffing recording A against recording B."""

    a: Dict[str, Any]
    b: Dict[str, Any]
    a_label: str = "A"
    b_label: str = "B"
    identical: bool = False
    paired: int = 0
    unpaired_a: int = 0
    unpaired_b: int = 0
    #: (bucket, a_ns, b_ns) over the paired samples, report order.
    bucket_rows: List[Tuple[str, int, int]] = field(default_factory=list)
    total_a_ns: int = 0
    total_b_ns: int = 0
    first: Optional[Dict[str, Any]] = None
    accounting_deltas: List[Dict[str, Any]] = field(default_factory=list)
    events_equal: bool = True
    code_changed: bool = False
    config_changed: bool = False

    @property
    def latency_delta_ns(self) -> int:
        """End-to-end latency delta over the paired samples (B - A)."""
        return self.total_b_ns - self.total_a_ns

    @property
    def empty(self) -> bool:
        return self.identical

    def bucket_deltas(self) -> Dict[str, int]:
        """Nonzero per-bucket deltas (B - A), report order."""
        return {bucket: b_ns - a_ns
                for bucket, a_ns, b_ns in self.bucket_rows
                if b_ns - a_ns != 0}

    def divergent_buckets(self) -> List[str]:
        """Buckets implicated in the divergence, strongest first.

        The union of the first-divergence sample's changed buckets and
        the aggregate nonzero deltas, ordered by absolute aggregate
        delta (aggregate-only buckets follow first-sample ones).
        """
        deltas = self.bucket_deltas()
        first: List[str] = []
        if self.first is not None:
            first = [row["bucket"] for row in self.first["buckets"]]
        rest = sorted((b for b in deltas if b not in first),
                      key=lambda b: (-abs(deltas[b]), b))
        return first + rest

    def named_mechanisms(self) -> List[str]:
        """Every mechanism the diff implicates, strongest first.

        The divergent attribution buckets, then mechanisms implicated
        only by per-CPU accounting drift (a grown max irq-off /
        preempt-off / BKL window names its mechanism even when the
        sample windows attribute the time downstream -- e.g. an
        irq-off storm whose cost lands in the softirq drain).  This
        is the set the ``--expect-buckets`` gate checks.
        """
        named = self.divergent_buckets()
        drift_map = (("max_irq_off_ns", "irq_off"),
                     ("max_preempt_off_ns", "preempt_off"),
                     ("max_bkl_hold_ns", "bkl"))
        for row in self.accounting_deltas:
            for fld, bucket in drift_map:
                if fld in row and bucket not in named:
                    named.append(bucket)
        return named

    def to_dict(self) -> Dict[str, Any]:
        return {
            "a": dict(self.a),
            "b": dict(self.b),
            "a_label": self.a_label,
            "b_label": self.b_label,
            "identical": self.identical,
            "paired": self.paired,
            "unpaired_a": self.unpaired_a,
            "unpaired_b": self.unpaired_b,
            "buckets": [
                {"bucket": bucket, "a_ns": a_ns, "b_ns": b_ns,
                 "delta_ns": b_ns - a_ns}
                for bucket, a_ns, b_ns in self.bucket_rows
            ],
            "total_a_ns": self.total_a_ns,
            "total_b_ns": self.total_b_ns,
            "latency_delta_ns": self.latency_delta_ns,
            "divergent_buckets": self.divergent_buckets(),
            "named_mechanisms": self.named_mechanisms(),
            "first_divergence": self.first,
            "accounting_deltas": list(self.accounting_deltas),
            "events_equal": self.events_equal,
            "code_changed": self.code_changed,
            "config_changed": self.config_changed,
        }

    def render(self, top_spans: int = 5) -> str:
        from repro.observe.diff.render import render_diff

        return render_diff(self, top_spans=top_spans)


def _bucket_order(buckets: List[str]) -> List[str]:
    from repro.observe.attribution import BUCKETS

    known = [b for b in BUCKETS if b in buckets]
    extra = sorted(b for b in buckets if b not in BUCKETS)
    return known + extra


def _check_comparable(a: TraceRecording, b: TraceRecording) -> None:
    mismatches = []
    for fld in ("scenario", "kind", "seed", "samples_target",
                "iterations", "capacity", "ncpus"):
        va, vb = getattr(a, fld), getattr(b, fld)
        if va != vb:
            mismatches.append(f"{fld}: {va!r} != {vb!r}")
    if mismatches:
        raise TraceDiffError(
            "recordings are not comparable (same scenario/seed/knobs "
            "required; code and config may differ): "
            + "; ".join(mismatches))


def _first_divergence(a: TraceRecording, b: TraceRecording,
                      index: int) -> Dict[str, Any]:
    end_a, lat_a, bd_a = a.samples[index]
    end_b, lat_b, bd_b = b.samples[index]
    buckets = _bucket_order(sorted(set(bd_a) | set(bd_b)))
    rows = []
    for bucket in buckets:
        va, vb = int(bd_a.get(bucket, 0)), int(bd_b.get(bucket, 0))
        if va != vb:
            rows.append({"bucket": bucket, "a_ns": va, "b_ns": vb,
                         "delta_ns": vb - va})
    rows.sort(key=lambda r: (-abs(r["delta_ns"]), r["bucket"]))

    # Span evidence: align both runs' spans inside the union of the
    # two sample windows [end - latency, end).
    start = min(int(end_a) - int(lat_a), int(end_b) - int(lat_b))
    end = max(int(end_a), int(end_b))
    spans_a = spans_in_window(extract_spans(a.events), start, end)
    spans_b = spans_in_window(extract_spans(b.events), start, end)
    alignment = align_spans(spans_a, spans_b)
    return {
        "sample_index": index,
        "window_ns": [start, end],
        "a": {"end_ns": int(end_a), "latency_ns": int(lat_a)},
        "b": {"end_ns": int(end_b), "latency_ns": int(lat_b)},
        "latency_delta_ns": int(lat_b) - int(lat_a),
        "buckets": rows,
        "spans": alignment.to_dict(),
    }


def _accounting_deltas(a: TraceRecording,
                       b: TraceRecording) -> List[Dict[str, Any]]:
    cpus_a = a.accounting.get("cpus", [])
    cpus_b = b.accounting.get("cpus", [])
    deltas: List[Dict[str, Any]] = []
    for cpu_a, cpu_b in zip(cpus_a, cpus_b):
        changed: Dict[str, Any] = {}
        for fld, _label in _ACCT_FIELDS:
            va, vb = cpu_a.get(fld, 0), cpu_b.get(fld, 0)
            if va != vb:
                changed[fld] = [va, vb]
        if changed:
            changed["cpu"] = cpu_a.get("cpu", len(deltas))
            deltas.append(changed)
    return deltas


def _events_equal(a: Sequence[Sequence[Any]],
                  b: Sequence[Sequence[Any]]) -> bool:
    """Whether two event streams hold the same rows by value.

    A fresh recording's rows are the rings' tuples and a loaded one's
    are JSON lists; a tuple never equals a list, so a fresh/loaded
    pair is compared field by field instead of with ``==``.
    """
    if len(a) != len(b):
        return False
    if not a or type(a[0]) is type(b[0]):
        return a == b
    return all(map(_row_equal, a, b))


def _row_equal(ra: Sequence[Any], rb: Sequence[Any]) -> bool:
    """One ``(time, cpu, code, args)`` row against another, either form."""
    return (len(ra) == len(rb) == 4
            and ra[0] == rb[0] and ra[1] == rb[1] and ra[2] == rb[2]
            and tuple(ra[3]) == tuple(rb[3]))


def diff_recordings(a: TraceRecording, b: TraceRecording,
                    a_label: str = "A",
                    b_label: str = "B") -> TraceDiff:
    """Diff two comparable recordings (see module docstring)."""
    _check_comparable(a, b)
    diff = TraceDiff(a=_recording_summary(a), b=_recording_summary(b),
                     a_label=a_label, b_label=b_label)
    diff.code_changed = a.code != b.code
    diff.config_changed = (a.kernel_name != b.kernel_name
                           or a.shielded != b.shielded
                           or a.shield != b.shield
                           or a.fault_plan != b.fault_plan
                           or a.fault_intensity != b.fault_intensity)

    paired = min(len(a.samples), len(b.samples))
    diff.paired = paired
    diff.unpaired_a = len(a.samples) - paired
    diff.unpaired_b = len(b.samples) - paired

    totals_a: Dict[str, int] = {}
    totals_b: Dict[str, int] = {}
    first_index: Optional[int] = None
    for i in range(paired):
        sample_a, sample_b = a.samples[i], b.samples[i]
        for bucket, ns in sample_a[2].items():
            totals_a[bucket] = totals_a.get(bucket, 0) + int(ns)
        for bucket, ns in sample_b[2].items():
            totals_b[bucket] = totals_b.get(bucket, 0) + int(ns)
        if first_index is None and sample_a != sample_b:
            first_index = i
    diff.total_a_ns = sum(int(s[1]) for s in a.samples[:paired])
    diff.total_b_ns = sum(int(s[1]) for s in b.samples[:paired])
    diff.bucket_rows = [
        (bucket, totals_a.get(bucket, 0), totals_b.get(bucket, 0))
        for bucket in _bucket_order(sorted(set(totals_a) | set(totals_b)))
    ]

    # Closure: the bucket table must sum exactly to the end-to-end
    # latency delta.  Recording-time residue folding makes this hold
    # by construction; a violation means the recording is corrupt.
    table_delta = sum(b_ns - a_ns for _bkt, a_ns, b_ns in diff.bucket_rows)
    if table_delta != diff.latency_delta_ns:
        raise TraceDiffError(
            f"bucket delta table ({table_delta} ns) does not close "
            f"against the latency delta ({diff.latency_delta_ns} ns); "
            f"corrupt recording")

    if first_index is not None:
        diff.first = _first_divergence(a, b, first_index)
    diff.accounting_deltas = _accounting_deltas(a, b)
    diff.events_equal = (_events_equal(a.events, b.events)
                         and a.dropped == b.dropped)

    diff.identical = (first_index is None
                      and diff.unpaired_a == 0
                      and diff.unpaired_b == 0
                      and diff.events_equal
                      and not diff.accounting_deltas
                      and a.accounting == b.accounting)
    return diff
