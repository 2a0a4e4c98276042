"""Host speed, sampled while a run measures, to put timings in fixed units.

The shared hosts this benchmark runs on change speed by up to 1.8x, per
core, in waves from tenths of a second to minutes: other tenants' load
on the same physical cores.  The CPU time of one and the same piece of
Python code swings with it, so raw timings of two runs of the same code
can differ by a third.

:class:`HostSpeed` starts this file as one sampler process per CPU, pinned
to it, that runs a fixed reference kernel every :data:`INTERVAL_S`
seconds and appends its CPU time to a file.  Cores change speed
independently, so a timing is scaled by the samplers of the cores it ran
on: single-threaded work is pinned to one core (:meth:`HostSpeed.pinned`)
and scaled by that core's sampler -- scaled by the other core's, fig6's
quartiles spread 15% instead of 8% -- and work spread over every core by
all samplers together.  The kernel walks a shuffled ring of 40 000 small
objects and keeps a heap of events, so it misses the caches as the
simulator does; on the host the benchmark was tuned on, a slow wave
stretched its time by the same factor as a fig6 run (slope 1.06 on a
log-log fit over 38 windows).  CPU time, not wall time, is recorded, so
the sampler measures how fast a core executes, not how long it waited
for one.  It is a process rather than a thread because the program's
worker pools fork, and forking a process while another of its threads
runs can leave the child blocked on a lock for good.

A timing of the interval ``[start, end]`` is reported in *reference
seconds*: measured seconds times :data:`REFERENCE_S` over the mean
sample in that interval, i.e. seconds on a host on which the kernel
takes :data:`REFERENCE_S`.  A change to the program moves its timings
and not the kernel's, so it shows in full.

Run as a script (``hostspeed.py OUT CPU``) it is the sampler of one CPU;
it stops when its standard input closes.
"""

from __future__ import annotations

import bisect
import contextlib
import heapq
import math
import os
import random
import select
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterator, List, Tuple

#: Seconds between two samples.
INTERVAL_S = 0.1
#: Events the kernel runs per sample (a few ms of CPU time).
KERNEL_EVENTS = 3000
#: Mean CPU seconds of one sample over the runs on the host the benchmark
#: was tuned on (2 vCPUs of a shared x86-64 VM, CPython 3.11).  It fixes
#: the unit of every reported time and is never re-measured.
REFERENCE_S = 0.0046
RING = 40_000


class _Node:
    __slots__ = ("value", "mark", "next", "attrs")

    def __init__(self, value: int) -> None:
        self.value = value
        self.mark = 0
        self.next: "_Node" = self
        self.attrs = {"v": value}


def build_ring(seed: int = 5) -> _Node:
    """A ring of :data:`RING` nodes linked in a shuffled order."""
    nodes = [_Node(i) for i in range(RING)]
    order = list(range(RING))
    random.Random(seed).shuffle(order)
    for i in range(RING):
        nodes[order[i]].next = nodes[order[(i + 1) % RING]]
    return nodes[0]


def kernel(node: _Node, events: int = KERNEL_EVENTS) -> Tuple[_Node, int]:
    """Pop and push *events* heap events, chasing the ring for each."""
    heap = [(i, i) for i in range(64)]
    total = 0
    for _ in range(events):
        when, key = heapq.heappop(heap)
        node = node.next
        total += node.value + node.attrs["v"]
        node = node.next.next
        node.mark = total & 1023
        heapq.heappush(heap, (when + 1 + (total & 15), key))
    return node, total


def sample_until_stdin_closes(out_path: str, cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    node = build_ring()
    with open(out_path, "a", encoding="ascii") as out:
        while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
            now = time.perf_counter()
            cpu_s = time.process_time()
            node, _ = kernel(node)
            out.write(f"{now!r} {time.process_time() - cpu_s!r}\n")
            out.flush()


class _Sampler:
    """One pinned sampler process and the samples it has written."""

    def __init__(self, path: str, cpu: int) -> None:
        self.path = path
        open(path, "w").close()
        self.proc = subprocess.Popen(
            [sys.executable, __file__, path, str(cpu)],
            stdin=subprocess.PIPE)
        #: (perf_counter at the start, CPU seconds), in time order.
        self._samples: List[Tuple[float, float]] = []

    def samples(self) -> List[Tuple[float, float]]:
        """Every complete sample written so far."""
        with open(self.path, encoding="ascii") as fh:
            lines = fh.read().split("\n")[:-1]
        self._samples[len(self._samples):] = [
            (float(t), float(cpu)) for t, cpu in
            (line.split() for line in lines[len(self._samples):])]
        return self._samples

    def near(self, start: float, end: float) -> List[float]:
        """CPU seconds of the samples in ``[start, end]``, or of the four
        nearest its middle when it holds fewer than three."""
        samples = self.samples()
        lo = bisect.bisect_left(samples, (start,))
        hi = bisect.bisect_right(samples, (end, math.inf))
        if hi - lo < 3:
            mid = bisect.bisect_left(samples, ((start + end) / 2,))
            lo, hi = max(0, mid - 2), mid + 2
        return [cpu for _, cpu in samples[lo:hi]]

    def stop(self) -> None:
        if self.proc.poll() is not None:
            return
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class HostSpeed:
    """A sampler per CPU this process may run on."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.cpus = sorted(os.sched_getaffinity(0))
        #: The core single-threaded work is pinned to.
        self.home = self.cpus[0]
        self.samplers: Dict[int, _Sampler] = {}

    def start(self) -> "HostSpeed":
        """Start the samplers; return once each has written a sample."""
        for cpu in self.cpus:
            self.samplers[cpu] = _Sampler(
                os.path.join(self.workdir, f"cpu{cpu}.txt"), cpu)
        deadline = time.perf_counter() + 30
        for sampler in self.samplers.values():
            while not sampler.samples():
                if (sampler.proc.poll() is not None
                        or time.perf_counter() > deadline):
                    raise RuntimeError("host speed: a sampler wrote nothing")
                time.sleep(INTERVAL_S / 4)
        return self

    def stop(self) -> None:
        for sampler in self.samplers.values():
            sampler.stop()

    @contextlib.contextmanager
    def pinned(self) -> Iterator[None]:
        """Run the body, and processes it starts, on the home core."""
        before = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self.home})
        try:
            yield
        finally:
            os.sched_setaffinity(0, before)

    def factor(self, start: float, end: float, home: bool) -> float:
        """Reference seconds per measured second over ``[start, end]``,
        for work pinned to the home core or spread over every core."""
        cpus = [self.home] if home else self.cpus
        cpu_s = [s for cpu in cpus
                 for s in self.samplers[cpu].near(start, end)]
        if not cpu_s:
            raise RuntimeError("host speed: no samples were taken")
        return REFERENCE_S / statistics.fmean(cpu_s)

    def mean_sample_s(self) -> float:
        """Mean CPU seconds of every sample so far (for the notes)."""
        return statistics.fmean(cpu for sampler in self.samplers.values()
                                for _, cpu in sampler.samples())


if __name__ == "__main__":
    sample_until_stdin_closes(sys.argv[1], int(sys.argv[2]))
