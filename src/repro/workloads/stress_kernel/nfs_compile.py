"""NFS-COMPILE: kernel compilation over NFS-on-loopback.

    "The NFS-COMPILE script is the repeated compilation of a Linux
    kernel via an NFS file system exported over the loopback device."

Two processes: the compiler (gcc: user-mode CPU bursts, then file
accesses that become NFS RPCs over loopback) and nfsd (kernel thread
servicing the RPCs with filesystem sections and disk I/O).  The RPC
traffic raises NET_RX softirq work on the sending CPU -- this load is
the main source of the multi-millisecond bottom-half bursts the paper
describes.
"""

from __future__ import annotations

from typing import Generator, List, TYPE_CHECKING

from repro.kernel import ops as op
from repro.kernel.syscalls import UserApi
from repro.kernel.sync.waitqueue import WaitQueue
from repro.workloads.base import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel


def nfs_compile(kernel: "Kernel") -> List[WorkloadSpec]:
    """The gcc + nfsd pair."""
    net = kernel.drivers["net"]
    nfsd_sock = net.socket("nfs-rpc")

    def gcc_body(api: UserApi) -> Generator:
        rng = api.rng
        while True:
            # Compile a unit: heavy user-mode CPU.
            yield from api.compute(int(rng.uniform(2e6, 12e6)),
                                   label="gcc:compile")
            # Source/include reads and object writes over NFS: each is
            # an RPC round trip through the loopback stack.
            for _ in range(int(rng.integers(2, 6))):
                packets = int(rng.integers(4, 24))

                def rpc(packets=packets) -> Generator:
                    cost = packets * api.timing.sample(
                        "net.tx_per_packet", api.rng)
                    yield op.Compute(cost, kernel=True, label="nfs:rpc-tx")
                    yield op.Call(net.loopback_deliver, (packets, "nfs-rpc"))

                yield from api.syscall("sendmsg", rpc())
                # Think briefly while nfsd answers (reply handled as
                # anonymous softirq work).
                yield from api.compute(int(rng.uniform(2e4, 1e5)),
                                       label="gcc:wait")

    def nfsd_body(api: UserApi) -> Generator:
        disk = kernel.drivers.get("/dev/sda")
        while True:
            if not nfsd_sock.has_data:
                yield from api.pipe_wait(nfsd_sock.wq)
            while nfsd_sock.has_data:
                nfsd_sock.take()

                def service() -> Generator:
                    # Queue the RPC reply first (NET_RX work for the
                    # client side of the loopback), *then* do the
                    # filesystem work.  If this task is preempted
                    # during the section, the reply work sits pending
                    # and the next interrupt exit on this CPU runs it
                    # -- the bottom-half burst of section 6.2.
                    reply = int(api.rng.integers(2, 16))
                    yield op.Call(net.loopback_deliver, (reply,))
                    # Exported-filesystem work: a potentially long
                    # kernel stretch plus dcache traffic.
                    yield from api.kernel_section(
                        api.timing.sample("nfs.section", api.rng),
                        label="nfsd:fs")
                    yield from api.kernel_section(
                        api.timing.sample("fs.lock_section", api.rng),
                        lock=kernel.locks.dcache_lock, label="nfsd:dcache")
                    if disk is not None and api.rng.random() < 0.4:
                        yield from disk.submit_and_wait(api, sectors=16)

                yield from api.syscall("nfsd", service())

    return [
        WorkloadSpec(name="nfs-compile:gcc", body=gcc_body),
        WorkloadSpec(name="nfs-compile:nfsd", body=nfsd_body),
    ]
