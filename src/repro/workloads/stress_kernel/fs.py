"""FS: filesystem torture.

    "The FS test performs all sorts of unnatural acts on a set of
    files, such as creating large files with holes in the middle, then
    truncating and extending those files."

This is the workload with the longest 2.4 kernel sections: truncate
and extend paths walk and modify large block mappings without
rescheduling.  On the vanilla kernel these sections are the dominant
cause of the 92 ms worst-case interrupt response (Figure 5); with the
low-latency patches the same operations run in bounded chunks.
"""

from __future__ import annotations

from typing import Generator, TYPE_CHECKING

from repro.kernel.syscalls import UserApi
from repro.workloads.base import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel


def fs_stress(kernel: "Kernel", name: str = "fs") -> WorkloadSpec:
    """The file-torture process."""

    def body(api: UserApi) -> Generator:
        disk = kernel.drivers.get("/dev/sda")
        locks = kernel.locks
        rng = api.rng
        while True:
            heavy = rng.random() < 0.12

            def fs_op(heavy=heavy) -> Generator:
                # Path lookup under dcache_lock.
                yield from api.kernel_section(
                    api.timing.sample("fs.lock_section", api.rng),
                    lock=locks.dcache_lock, label="fs:lookup")
                if heavy:
                    # Truncate/extend a large holey file: the
                    # long-tailed block-map walk plus real disk I/O.
                    yield from api.kernel_section(
                        api.timing.sample("fs.section", api.rng),
                        label="fs:blockmap")
                    if disk is not None and api.rng.random() < 0.5:
                        yield from disk.submit_and_wait(
                            api, sectors=int(rng.integers(8, 128)))
                else:
                    # In-cache metadata churn: short kernel stretch.
                    yield from api.kernel_section(
                        int(rng.uniform(3e3, 2e4)), label="fs:meta")
                # File-table churn under file_lock on every op.
                yield from api.kernel_section(
                    api.timing.sample("fs.lock_section", api.rng),
                    lock=locks.file_lock, label="fs:ftable")

            yield from api.syscall("truncate", fs_op())
            # Brief user-mode gap between operations.
            yield from api.compute(int(rng.uniform(2e4, 8e4)), label="fs:gap")

    return WorkloadSpec(name=name, body=body)
