"""Block layer: request submission under ``io_request_lock``.

2.4's block layer serialises request queueing under the global,
interrupt-disabling ``io_request_lock``; completion interrupts raise a
(short) BLOCK softirq that wakes the task waiting on the request.
Filesystem workloads use :meth:`submit_and_wait` for every buffered
read/write that misses the cache.
"""

from __future__ import annotations

from typing import Dict, Generator, TYPE_CHECKING

from repro.kernel import ops as op
from repro.kernel.drivers.base import CharDriver
from repro.kernel.irqflow.softirq import SoftirqVector
from repro.kernel.sync.waitqueue import WaitQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.devices.disk import ScsiDisk
    from repro.kernel.kernel import Kernel
    from repro.kernel.syscalls import UserApi

#: Enum members this module's functions read, bound once (see
#: tests/test_hot_enum_reads.py).
_BLOCK = SoftirqVector.BLOCK


class BlockDriver(CharDriver):
    """SCSI block driver."""

    multithreaded = False

    def __init__(self, kernel: "Kernel", disk: "ScsiDisk") -> None:
        super().__init__(kernel, "/dev/sda")
        self.disk = disk
        self._wait: Dict[int, WaitQueue] = {}
        self.completed = 0
        kernel.register_irq_handler(disk.irq, "irq.handler.disk",
                                    self._handle_irq)

    def _handle_irq(self, cpu_idx: int) -> None:
        """Completion top half: collect finished requests, raise BLOCK."""
        while True:
            req = self.disk.take_completion()
            if req is None:
                break
            self.completed += 1
            wq = self._wait.pop(req.req_id, None)
            work = self.sample("softirq.block_complete")

            def done(wq=wq) -> None:
                if wq is not None:
                    self.kernel.wake_up(wq, from_cpu=None)

            self.kernel.raise_softirq(cpu_idx, _BLOCK, work, done,
                                      from_irq=True)

    def submit_and_wait(self, api: "UserApi", sectors: int = 8) -> Generator:
        """Queue one request and block until its completion softirq."""
        yield op.Acquire(self.kernel.locks.io_request_lock)
        yield op.Compute(self.sample("block.submit"), kernel=True,
                         label="blk:submit")
        req = self.disk.submit(sectors)
        wq = WaitQueue(f"blkreq:{req.req_id}")
        self._wait[req.req_id] = wq
        yield op.Release(self.kernel.locks.io_request_lock)
        yield op.Block(wq)
        return req
