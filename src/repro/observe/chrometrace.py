"""Chrome trace-event (Perfetto-loadable) JSON export.

Converts the typed tracepoint rings into the Trace Event Format that
``chrome://tracing`` and https://ui.perfetto.dev consume: one process
("linsim"), one thread track per CPU, duration events (``ph: B``/``E``)
from execution-frame push/pop, instant events (``ph: i``) for wakes,
irq raises, softirq raises, shield updates and latency samples, and
counter tracks (``ph: C``) mirroring the per-CPU accounting: an
irq-off / preempt-off / BKL-held 0/1 state series plus the running
max-window series (microseconds) for each -- the same maxima
``/proc``-style accounting reports, but positioned on the timeline so
the window that set the max is visible.

Timestamps are microseconds (float), converted from simulated
nanoseconds.  The builder reads the rings' ``(time, cpu, code, args)``
rows as they are, so its tables are keyed by the plain-int code: a
dict keyed by :class:`TP` members hashes by identity and would miss
an int.  The builder is ring-wrap tolerant: a ``frame_pop`` whose
``B`` was evicted gets a synthesized ``B`` at the window start, and
frames still open at the end are closed at the last event time, so the
export never produces unbalanced B/E pairs.
"""

from __future__ import annotations

import json
from typing import Any, Deque, Dict, List

from repro.observe.tracepoints import TP, Row, Tracepoints

_PID = 1

#: Instant-event rendering: code -> (name, args) formatter.
_INSTANTS = {
    int(TP.SCHED_WAKE): lambda a: ("wake " + a[0], {"from_cpu": a[1]}),
    int(TP.IRQ_RAISE): lambda a: (f"irq{a[0]} raise", {"name": a[1]}),
    int(TP.IRQ_PEND): lambda a: (f"irq{a[0]} pend", {"name": a[1]}),
    int(TP.SOFTIRQ_RAISE): lambda a: (f"softirq{a[0]} raise", {}),
    int(TP.TIMER_TICK): lambda a: ("tick", {}),
    int(TP.SHIELD_UPDATE): lambda a: ("shield update", {
        "procs": a[0], "irqs": a[1], "ltmr": a[2]}),
    int(TP.LATENCY_SAMPLE): lambda a: ("sample " + a[0],
                                       {"latency_ns": a[1]}),
    int(TP.TASK_EXIT): lambda a: ("exit " + a[0], {}),
    int(TP.FAULT_INJECT): lambda a: (a[0], {"detail": a[1]}),
}


def _frame_name(kind: str, label: str, owner: str) -> str:
    if kind == "task":
        return owner or label or "task"
    if label:
        return f"{kind}:{label}"
    return kind


#: Counter series: state tracepoint code -> (track, on?).  BKL tracking
#: keys off the ``is_bkl`` flag instead (lock events carry it).
_COUNTER_TOGGLES = {
    int(TP.IRQS_OFF): ("irq-off", True),
    int(TP.IRQS_ON): ("irq-off", False),
    int(TP.PREEMPT_OFF): ("preempt-off", True),
    int(TP.PREEMPT_ON): ("preempt-off", False),
}


def _counter_events(cpu: int, ring: Deque[Row]) -> List[Dict[str, Any]]:
    """Per-CPU accounting counter tracks (``ph: C``) for one ring.

    Ring-wrap tolerant the same way the duration builder is: an ON
    whose OFF was evicted measures its window from the surviving
    window's start (an under-estimate, never an invention).  BKL max
    windows use the ``hold_ns`` the release event carries, so they
    stay exact even when the acquire was evicted.
    """
    events: List[Dict[str, Any]] = []
    window_start = ring[0][0]
    since: Dict[str, int] = {}
    max_ns: Dict[str, int] = {"irq-off": 0, "preempt-off": 0, "bkl": 0}

    def emit(ts_ns: int, track: str, series: str, value: float) -> None:
        events.append({"ph": "C", "pid": _PID, "tid": cpu,
                       "ts": ts_ns / 1000.0,
                       "name": f"cpu{cpu} {track}",
                       "args": {series: value}})

    def toggle(ts_ns: int, track: str, on: bool,
               window_ns: int = -1) -> None:
        emit(ts_ns, track, "on", 1 if on else 0)
        if on:
            since[track] = ts_ns
            return
        if window_ns < 0:
            window_ns = ts_ns - since.pop(track, window_start)
        else:
            since.pop(track, None)
        if window_ns > max_ns[track]:
            max_ns[track] = window_ns
            emit(ts_ns, f"max {track} (us)", "us", window_ns / 1000.0)

    for track in max_ns:
        emit(window_start, track, "on", 0)
        emit(window_start, f"max {track} (us)", "us", 0.0)
    for time, _cpu, code, args in ring:
        state = _COUNTER_TOGGLES.get(code)
        if state is not None:
            toggle(time, state[0], state[1])
        elif code == TP.LOCK_ACQUIRE and args[2]:
            toggle(time, "bkl", True)
        elif code == TP.LOCK_RELEASE and args[3]:
            toggle(time, "bkl", False, window_ns=int(args[2]))
    last = ring[-1][0]
    for track in [t for t in since]:
        toggle(last, track, False)
    return events


def build_trace_events(tp: Tracepoints) -> List[Dict[str, Any]]:
    """Build the ``traceEvents`` list from the registry's rings."""
    events: List[Dict[str, Any]] = [
        {"ph": "M", "pid": _PID, "tid": 0, "name": "process_name",
         "args": {"name": "linsim"}},
    ]
    for cpu in range(tp.ncpus):
        events.append({"ph": "M", "pid": _PID, "tid": cpu,
                       "name": "thread_name",
                       "args": {"name": f"cpu{cpu}"}})
        events.append({"ph": "M", "pid": _PID, "tid": cpu,
                       "name": "thread_sort_index",
                       "args": {"sort_index": cpu}})

    for cpu, ring in enumerate(tp.rings):
        if not ring:
            continue
        window_start_us = ring[0][0] / 1000.0
        last_us = ring[-1][0] / 1000.0
        open_depth = 0
        for time, _cpu, code, args in ring:
            ts = time / 1000.0
            if code == TP.FRAME_PUSH:
                kind, label, owner = args
                events.append({"ph": "B", "pid": _PID, "tid": cpu,
                               "ts": ts,
                               "name": _frame_name(kind, label, owner),
                               "cat": kind})
                open_depth += 1
            elif code == TP.FRAME_POP:
                kind, label, owner = args
                if open_depth == 0:
                    # The matching B was evicted by ring wrap --
                    # synthesize one at the window start.
                    events.append({"ph": "B", "pid": _PID, "tid": cpu,
                                   "ts": window_start_us,
                                   "name": _frame_name(kind, label, owner),
                                   "cat": kind})
                else:
                    open_depth -= 1
                events.append({"ph": "E", "pid": _PID, "tid": cpu,
                               "ts": ts})
            else:
                fmt = _INSTANTS.get(code)
                if fmt is not None:
                    name, fields = fmt(args)
                    events.append({"ph": "i", "pid": _PID, "tid": cpu,
                                   "ts": ts, "s": "t", "name": name,
                                   "cat": TP(code).name.lower(),
                                   "args": fields})
        # Close frames still open at the end of the window.
        for _ in range(open_depth):
            events.append({"ph": "E", "pid": _PID, "tid": cpu,
                           "ts": last_us})
        events.extend(_counter_events(cpu, ring))
    return events


def to_chrome_trace(tp: Tracepoints,
                    metadata: Dict[str, Any] = None) -> Dict[str, Any]:
    """The full Trace Event Format document."""
    doc: Dict[str, Any] = {
        "traceEvents": build_trace_events(tp),
        "displayTimeUnit": "ns",
    }
    if metadata:
        doc["otherData"] = dict(metadata)
    return doc


def export_chrome_trace(tp: Tracepoints, path: str,
                        metadata: Dict[str, Any] = None) -> None:
    """Write the Perfetto-loadable JSON trace to *path*."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(tp, metadata), fh)
