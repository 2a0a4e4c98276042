"""The user-level API: syscall generator helpers.

A workload body is a generator; it obtains a :class:`UserApi` bound to
its kernel and composes these helpers with ``yield from``.  The
helpers translate POSIX-ish calls into the primitive ops of
:mod:`repro.kernel.ops`, inserting the costs and lock acquisitions of
the corresponding 2.4 kernel paths.

The crucial helper for the paper's analysis is
:meth:`UserApi.kernel_section`: a (possibly long) stretch of kernel
work, optionally under a spinlock.  On a kernel with the low-latency
patches the work is broken into bounded chunks with ``cond_resched``
points between them -- which is literally what those patches do -- so
the same workload produces 90 ms non-preemptible windows on vanilla
2.4 and sub-millisecond ones on RedHawk.
"""

from __future__ import annotations

from typing import Generator, Iterable, Optional, TYPE_CHECKING

from repro.core.affinity import CpuMask
from repro.kernel import ops as op
from repro.kernel.mm import FaultModel
from repro.kernel.task import SchedPolicy
from repro.kernel.timekeeping import sleep_quantum
from repro.sim.simtime import MSEC, USEC

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel
    from repro.kernel.sync.spinlock import SpinLock

#: Work chunk between low-latency reschedule points.  Morton's patches
#: bound preemption-off stretches to roughly this scale.
LOWLAT_CHUNK_NS = 250 * USEC


class UserApi:
    """Per-task façade over the kernel's syscall machinery."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self.config = kernel.config
        self.timing = kernel.config.timing
        self.rng = kernel.sim.rng.stream("userapi")
        self.fault_model = FaultModel()
        self.mem_locked = False

    # ------------------------------------------------------------------
    # Time and instrumentation
    # ------------------------------------------------------------------
    def tsc(self) -> op.Call:
        """Read the time-stamp counter (yield the result)."""
        return op.Call(self.kernel.machine.tsc.read)

    def call(self, fn, *args) -> op.Call:
        """Zero-cost instrumentation callback."""
        return op.Call(fn, args)

    # ------------------------------------------------------------------
    # Computation
    # ------------------------------------------------------------------
    def compute(self, work_ns: int, label: str = "") -> Generator:
        """User-mode computation, with page faults unless mlocked."""
        if self.mem_locked or work_ns <= 0:
            yield op.Compute(work_ns, kernel=False, label=label)
            return
        faults = self.fault_model.sample_fault_count(work_ns, self.rng)
        if faults == 0:
            yield op.Compute(work_ns, kernel=False, label=label)
            return
        # Spread the faults through the segment.
        slice_ns = work_ns // (faults + 1)
        for _ in range(faults):
            yield op.Compute(slice_ns, kernel=False, label=label)
            yield from self._page_fault()
        yield op.Compute(work_ns - slice_ns * faults, kernel=False,
                         label=label)

    def _page_fault(self) -> Generator:
        """Service one fault: kernel entry, maybe disk I/O."""
        yield op.EnterSyscall("page_fault")
        yield op.Compute(self.fault_model.sample_fault_cost(self.rng),
                         kernel=True, label="minor-fault")
        if self.fault_model.is_major(self.rng):
            disk = self.kernel.drivers.get("/dev/sda")
            if disk is not None:
                yield from disk.submit_and_wait(self, sectors=8)
        yield op.ExitSyscall()

    # ------------------------------------------------------------------
    # Syscall scaffolding
    # ------------------------------------------------------------------
    def syscall(self, name: str, body: Optional[Generator] = None
                ) -> Generator:
        """Wrap *body* in kernel entry/exit with their costs."""
        yield op.EnterSyscall(name)
        yield op.Compute(self.timing.sample("syscall.entry", self.rng),
                         kernel=True, label="sys:entry")
        result = None
        if body is not None:
            result = yield from body
        yield op.Compute(self.timing.sample("syscall.exit", self.rng),
                         kernel=True, label="sys:exit")
        yield op.ExitSyscall()
        return result

    def kernel_section(self, total_ns: int,
                       lock: Optional["SpinLock"] = None,
                       label: str = "ksection") -> Generator:
        """Kernel work, optionally under a spinlock.

        Vanilla kernel: one unbroken non-preemptible stretch.  With the
        low-latency patches: bounded chunks with reschedule points --
        and when a lock is held, the patched algorithms also drop and
        retake it around the preemption point (that is how Morton's
        rewrites shortened lock hold times).
        """
        remaining = total_ns
        if not self.config.low_latency:
            if lock is not None:
                yield op.Acquire(lock)
            yield op.Compute(remaining, kernel=True, label=label)
            if lock is not None:
                yield op.Release(lock)
            return
        while remaining > 0:
            chunk = min(remaining, LOWLAT_CHUNK_NS)
            if lock is not None:
                yield op.Acquire(lock)
            yield op.Compute(chunk, kernel=True, label=label)
            if lock is not None:
                yield op.Release(lock)
            remaining -= chunk
            if remaining > 0:
                yield op.PreemptPoint()

    # ------------------------------------------------------------------
    # Sleeping locks
    # ------------------------------------------------------------------
    def sem_down(self, sem) -> Generator:
        """``down()`` on a kernel semaphore (sleeping lock).

        Blocks -- never spins -- when the semaphore is unavailable, so
        it must not be attempted with preemption disabled; the kernel
        panics (and lockdep reports sleep-in-atomic) if a task tries
        to ``down()`` while holding a spinlock.
        """
        yield op.SemDown(sem)  # lint: ok(paired-acquire-release)

    def sem_up(self, sem) -> Generator:
        """``up()`` on a kernel semaphore; wakes the oldest waiter."""
        yield op.SemUp(sem)  # lint: ok(paired-acquire-release)

    # ------------------------------------------------------------------
    # Scheduling control
    # ------------------------------------------------------------------
    def sched_setscheduler(self, policy: SchedPolicy,
                           rt_prio: int = 0, nice: int = 0) -> Generator:
        yield from self.syscall("sched_setscheduler")
        yield op.SetScheduler(policy, rt_prio, nice)

    def sched_setaffinity(self, mask: CpuMask) -> Generator:
        yield from self.syscall("sched_setaffinity")
        yield op.SetAffinity(mask)

    def sched_yield(self) -> Generator:
        yield from self.syscall("sched_yield")
        yield op.YieldCpu()

    def mlockall(self) -> Generator:
        """Pin all current and future pages (MCL_CURRENT|MCL_FUTURE)."""
        yield from self.syscall("mlockall")
        yield op.MlockAll()
        self.mem_locked = True

    def nanosleep(self, duration_ns: int) -> Generator:
        """Sleep; granularity depends on the kernel's timer support."""
        actual = sleep_quantum(self.config, duration_ns,
                               self.config.highres_timers)
        yield op.EnterSyscall("nanosleep")
        yield op.Compute(self.timing.sample("syscall.entry", self.rng),
                         kernel=True, label="nanosleep:entry")
        yield op.Sleep(actual)
        yield op.Compute(self.timing.sample("syscall.exit", self.rng),
                         kernel=True, label="nanosleep:exit")
        yield op.ExitSyscall()

    # ------------------------------------------------------------------
    # Device access
    # ------------------------------------------------------------------
    def open(self, path: str):
        """Look up the driver registered at *path* (no syscall cost --
        opens happen once at workload start)."""
        driver = self.kernel.drivers.get(path)
        if driver is None:
            raise KeyError(f"no driver registered at {path}")
        return driver

    def read(self, driver) -> Generator:
        """``read()`` on a character device."""
        result = yield from driver.read_body(self)
        return result

    def ioctl(self, driver, cmd: str = "") -> Generator:
        """``ioctl()`` on a character device.

        Implements the generic-ioctl BKL convention the paper patches:
        the BKL is taken around the driver routine unless this kernel
        honours the driver's multithreaded flag.
        """
        needs_bkl = not (self.config.bkl_ioctl_flag
                         and getattr(driver, "multithreaded", False))
        result = yield from driver.ioctl_body(self, cmd, needs_bkl)
        return result

    # ------------------------------------------------------------------
    # IPC / networking building blocks
    # ------------------------------------------------------------------
    def loopback_send(self, packets: int) -> Generator:
        """Send over the loopback device (TTCP / NFS-over-loopback).

        The protocol work for the "received" packets is NET_RX softirq
        work raised on the sending CPU, exactly like 2.4's
        ``netif_rx`` on lo; it is processed on the way out of the
        syscall or by ksoftirqd.
        """
        net = self.kernel.drivers.get("net")

        def body() -> Generator:
            send_cost = packets * self.timing.sample(
                "net.tx_per_packet", self.rng)
            yield op.Compute(send_cost, kernel=True, label="lo:send")
            if net is not None:
                yield op.Call(net.loopback_deliver, (packets,))

        result = yield from self.syscall("sendmsg", body())
        return result

    def pipe_transfer(self, wq_peer, bytes_count: int = 4096) -> Generator:
        """Write one pipe buffer and wake the reader."""
        def body() -> Generator:
            yield op.Compute(self.timing.sample("pipe.copy", self.rng),
                             kernel=True, label="pipe:copy")
            yield op.Wake(wq_peer)

        yield from self.syscall("write", body())

    def pipe_wait(self, wq_own) -> Generator:
        """Block reading an empty pipe."""
        def body() -> Generator:
            yield op.Compute(self.timing.sample("syscall.entry", self.rng),
                             kernel=True, label="pipe:wait")
            yield op.Block(wq_own)

        yield from self.syscall("read", body())
