"""Span extraction and cross-run alignment for simdiff.

Recordings carry the raw tracepoint stream; diffing needs *spans* --
``(cpu, kind, name, start, end)`` intervals a human can be pointed at:
execution frames (task / hardirq / softirq / switch / spin, from
``FRAME_PUSH``/``FRAME_POP``) plus the pseudo-frames for irq-off and
preempt-off windows (from their on/off toggle tracepoints).

Extraction is ring-wrap tolerant, mirroring the Chrome exporter's
discipline: an unmatched pop (its push was overwritten by the ring)
synthesises a span opening at that CPU's first buffered timestamp,
and frames still open at the end of the stream close at the last
timestamp -- so a recording taken after an overwrite-oldest wrap
still yields a balanced, alignable span set.

Alignment pairs two runs' spans by *signature* ``(cpu, kind, name)``
using :class:`difflib.SequenceMatcher` (``autojunk=False`` -- span
streams are long and repetitive, and the junk heuristic would discard
exactly the hot signatures we care about).  Matched spans with equal
durations are the common timeline; the rest classify as *introduced*
(only in B), *lost* (only in A) or *changed* (same signature, a
different duration) -- the evidence the diff engine attaches to a
first divergence.
"""

from __future__ import annotations

from difflib import SequenceMatcher
from operator import attrgetter
from typing import Any, Dict, List, Optional, Tuple

from repro.observe.tracepoints import TP


class Span:
    """One attributable interval on one CPU."""

    __slots__ = ("cpu", "kind", "name", "start", "end", "synthetic")

    def __init__(self, cpu: int, kind: str, name: str, start: int,
                 end: int, synthetic: bool = False) -> None:
        self.cpu = cpu
        self.kind = kind
        self.name = name
        self.start = start
        self.end = end
        #: True when an edge was synthesised (ring wrap / open tail).
        self.synthetic = synthetic

    @property
    def dur(self) -> int:
        return self.end - self.start

    @property
    def signature(self) -> Tuple[int, str, str]:
        return (self.cpu, self.kind, self.name)

    def to_dict(self) -> Dict[str, Any]:
        return {"cpu": self.cpu, "kind": self.kind, "name": self.name,
                "start_ns": self.start, "end_ns": self.end,
                "dur_ns": self.dur, "synthetic": self.synthetic}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<span {self.kind}:{self.name or '?'} cpu{self.cpu} "
                f"[{self.start}, {self.end})>")


def _frame_name(kind: str, label: str, owner: str) -> str:
    return owner if owner else label


# Plain-int codes: a row's code compares against these without an
# enum attribute lookup per row.
_FRAME_PUSH, _FRAME_POP = int(TP.FRAME_PUSH), int(TP.FRAME_POP)
_IRQS_OFF, _IRQS_ON = int(TP.IRQS_OFF), int(TP.IRQS_ON)
_PREEMPT_OFF, _PREEMPT_ON = int(TP.PREEMPT_OFF), int(TP.PREEMPT_ON)
_SPAN_ORDER = attrgetter("start", "cpu", "kind", "name")


def extract_spans(events: List[List[Any]]) -> List[Span]:
    """Extract the span set from a recording's event rows.

    *events* are ``[time, cpu, tp, [args...]]`` rows, time-ordered
    (a :class:`~repro.observe.diff.recording.TraceRecording`'s
    ``events``).  Returns spans sorted by (start, cpu, kind, name).
    """
    frames: Dict[int, List[Span]] = {}
    toggles: Dict[Tuple[int, str], Span] = {}
    first_time: Dict[int, int] = {}
    spans: List[Span] = []
    last_time = 0

    for row in events:
        t, cpu, tp, args = int(row[0]), int(row[1]), int(row[2]), row[3]
        if t > last_time:
            last_time = t
        if cpu not in first_time:
            first_time[cpu] = t
        if tp == _FRAME_PUSH:
            kind, label, owner = args
            frames.setdefault(cpu, []).append(
                Span(cpu, kind, _frame_name(kind, label, owner), t, t))
        elif tp == _FRAME_POP:
            kind, label, owner = args
            stack = frames.get(cpu)
            if stack:
                span = stack.pop()
                span.end = t
            else:
                # Wrap orphan: the push fell off the ring; the frame
                # was open since (at least) the window start.
                span = Span(cpu, kind, _frame_name(kind, label, owner),
                            first_time[cpu], t, synthetic=True)
            spans.append(span)
        elif tp == _IRQS_OFF:
            toggles[(cpu, "irq_off")] = Span(cpu, "irq_off", "", t, t)
        elif tp == _IRQS_ON:
            span = toggles.pop((cpu, "irq_off"), None)
            if span is None:
                span = Span(cpu, "irq_off", "", first_time[cpu], t,
                            synthetic=True)
            else:
                span.end = t
            spans.append(span)
        elif tp == _PREEMPT_OFF:
            toggles[(cpu, "preempt_off")] = Span(
                cpu, "preempt_off", args[0] if args else "", t, t)
        elif tp == _PREEMPT_ON:
            span = toggles.pop((cpu, "preempt_off"), None)
            if span is None:
                span = Span(cpu, "preempt_off",
                            args[0] if args else "", first_time[cpu], t,
                            synthetic=True)
            else:
                span.end = t
            spans.append(span)

    # Close everything still open at the end of the stream.
    for stack in frames.values():
        for span in stack:
            span.end = last_time
            span.synthetic = True
            spans.append(span)
    for span in toggles.values():
        span.end = last_time
        span.synthetic = True
        spans.append(span)

    spans.sort(key=_SPAN_ORDER)
    return spans


def spans_in_window(spans: List[Span], start: int,
                    end: int) -> List[Span]:
    """Spans overlapping ``[start, end)`` (original coordinates)."""
    return [s for s in spans if s.end > start and s.start < end]


class SpanAlignment:
    """The classified outcome of aligning two span sequences."""

    __slots__ = ("matched", "changed", "introduced", "lost")

    def __init__(self) -> None:
        #: (span_a, span_b) pairs with identical durations.
        self.matched: List[Tuple[Span, Span]] = []
        #: (span_a, span_b) same-signature pairs whose durations differ.
        self.changed: List[Tuple[Span, Span]] = []
        #: Spans only present in B.
        self.introduced: List[Span] = []
        #: Spans only present in A.
        self.lost: List[Span] = []

    def first_divergent(self) -> Optional[Dict[str, Any]]:
        """The earliest span-level change, in simulated time.

        Introduced/lost spans anchor at their own start; changed
        pairs anchor at the earlier of the two starts.  Ties break
        toward the larger absolute duration delta.
        """
        candidates: List[Tuple[int, int, str, Dict[str, Any]]] = []
        for span in self.introduced:
            candidates.append((span.start, -span.dur, "introduced",
                               {"change": "introduced",
                                "span": span.to_dict()}))
        for span in self.lost:
            candidates.append((span.start, -span.dur, "lost",
                               {"change": "lost",
                                "span": span.to_dict()}))
        for a, b in self.changed:
            delta = b.dur - a.dur
            candidates.append((min(a.start, b.start), -abs(delta),
                               "changed",
                               {"change": "changed",
                                "delta_ns": delta,
                                "a": a.to_dict(), "b": b.to_dict()}))
        if not candidates:
            return None
        candidates.sort(key=lambda c: (c[0], c[1], c[2]))
        return candidates[0][3]

    def to_dict(self, top: int = 5) -> Dict[str, Any]:
        def _delta(pair: Tuple[Span, Span]) -> int:
            return pair[1].dur - pair[0].dur

        changed = sorted(self.changed,
                         key=lambda p: (-abs(_delta(p)), p[0].start))
        return {
            "matched": len(self.matched),
            "introduced": [s.to_dict() for s in
                           self.introduced[:top]],
            "introduced_count": len(self.introduced),
            "lost": [s.to_dict() for s in self.lost[:top]],
            "lost_count": len(self.lost),
            "changed": [{"a": a.to_dict(), "b": b.to_dict(),
                         "delta_ns": _delta((a, b))}
                        for a, b in changed[:top]],
            "changed_count": len(self.changed),
            "first": self.first_divergent(),
        }


def align_spans(spans_a: List[Span],
                spans_b: List[Span]) -> SpanAlignment:
    """Align two span sequences by signature (see module docstring)."""
    out = SpanAlignment()
    sig_a = [s.signature for s in spans_a]
    sig_b = [s.signature for s in spans_b]
    matcher = SequenceMatcher(a=sig_a, b=sig_b, autojunk=False)
    for op, i1, i2, j1, j2 in matcher.get_opcodes():
        if op == "equal":
            for a, b in zip(spans_a[i1:i2], spans_b[j1:j2]):
                if a.dur == b.dur:
                    out.matched.append((a, b))
                else:
                    out.changed.append((a, b))
        else:
            if op in ("delete", "replace"):
                out.lost.extend(spans_a[i1:i2])
            if op in ("insert", "replace"):
                out.introduced.extend(spans_b[j1:j2])
    return out
