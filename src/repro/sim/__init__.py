"""Discrete-event simulation engine underlying the linsim kernel model.

The engine provides an integer-nanosecond clock, one cancellable event
heap holding both one-shot and periodic events, named deterministic
random-number substreams (plain numpy ``Generator`` objects), and a
lightweight tracing facility.  Everything above this package (hardware, kernel,
workloads) is written in terms of :class:`~repro.sim.engine.Simulator`
events.
"""

from repro.sim.engine import Simulator
from repro.sim.events import EventHandle
from repro.sim.rng import RngStreams
from repro.sim.simtime import (
    NSEC,
    USEC,
    MSEC,
    SEC,
    ns_to_ms,
    ns_to_us,
    ns_to_s,
    format_ns,
)
from repro.sim.trace import TraceBuffer, TraceRecord

__all__ = [
    "Simulator",
    "EventHandle",
    "RngStreams",
    "TraceBuffer",
    "TraceRecord",
    "NSEC",
    "USEC",
    "MSEC",
    "SEC",
    "ns_to_ms",
    "ns_to_us",
    "ns_to_s",
    "format_ns",
]
