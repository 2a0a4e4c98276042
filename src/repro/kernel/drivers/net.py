"""Network driver: NIC interrupts, NET_RX softirq work, loopback.

The receive path that matters for the paper's latency analysis:

* NIC raises an interrupt per received burst; the top half is short
  (ack + queue the frames) and raises NET_RX;
* protocol processing happens in the NET_RX softirq at interrupt
  exit -- with per-packet costs that make heavy flows (the scp loop,
  ttcp) into multi-hundred-microsecond bottom-half bursts;
* loopback traffic (ttcp over lo, NFS-over-loopback) skips the NIC
  entirely: the sending syscall raises NET_RX on its own CPU.

:class:`SimSocket` is the minimal socket abstraction the workloads
block on: the softirq completion action wakes the receiving task.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, TYPE_CHECKING

from repro.kernel.drivers.base import CharDriver
from repro.kernel.irqflow.softirq import SoftirqVector
from repro.kernel.sync.waitqueue import WaitQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.devices.nic import EthernetNic
    from repro.kernel.kernel import Kernel

#: Enum members this module's functions read, bound once (see
#: tests/test_hot_enum_reads.py).
_NET_RX = SoftirqVector.NET_RX


class SimSocket:
    """A receive endpoint tasks can block on."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.wq = WaitQueue(f"sock:{name}")
        self.rx_queue: Deque[int] = deque()   # packet counts
        self.received_packets = 0

    def deliver(self, packets: int) -> None:
        self.rx_queue.append(packets)
        self.received_packets += packets

    @property
    def has_data(self) -> bool:
        return bool(self.rx_queue)

    def take(self) -> int:
        return self.rx_queue.popleft() if self.rx_queue else 0


class NetDriver(CharDriver):
    """The kernel half of the Ethernet NIC plus the loopback device."""

    multithreaded = False

    #: 2.4's ``netdev_max_backlog`` is 300 packets; beyond it netif_rx
    #: drops on the floor.  Expressed here as queued NET_RX work, this
    #: bounds bottom-half backlogs at the several-millisecond scale the
    #: paper describes.
    MAX_BACKLOG_NS = 2_500_000

    def __init__(self, kernel: "Kernel",
                 nic: Optional["EthernetNic"] = None) -> None:
        super().__init__(kernel, "net")
        self.nic = nic
        self.sockets: dict = {}
        self.rx_softirq_ns = 0
        self.dropped_packets = 0
        self._backlog_ns = [0] * kernel.ncpus
        if nic is not None:
            kernel.register_irq_handler(nic.irq, "irq.handler.net",
                                        self._handle_irq)

    # ------------------------------------------------------------------
    def socket(self, name: str) -> SimSocket:
        sock = self.sockets.get(name)
        if sock is None:
            sock = SimSocket(name)
            self.sockets[name] = sock
        return sock

    # ------------------------------------------------------------------
    def _handle_irq(self, cpu_idx: int) -> None:
        """NIC top half: raise NET_RX for the received burst."""
        assert self.nic is not None
        packets = max(1, self.nic.last_rx_count)
        self._queue_rx_work(cpu_idx, packets, sock=None, from_irq=True)

    def _queue_rx_work(self, cpu_idx: int, packets: int,
                       sock: Optional[SimSocket],
                       from_irq: bool = False) -> None:
        if self._backlog_ns[cpu_idx] >= self.MAX_BACKLOG_NS:
            # netif_rx beyond netdev_max_backlog: drop.  (Socket-bound
            # payloads are still delivered so receivers make progress;
            # the protocol work for them is what was shed.)
            self.dropped_packets += packets
            if sock is not None:
                sock.deliver(packets)
                self.kernel.wake_up(sock.wq, from_cpu=None)
            return
        work = packets * self.sample("softirq.net_rx_per_packet")
        self.rx_softirq_ns += work
        self._backlog_ns[cpu_idx] += work

        def done() -> None:
            self._backlog_ns[cpu_idx] -= work
            if sock is not None:
                sock.deliver(packets)
                self.kernel.wake_up(sock.wq, from_cpu=None)

        self.kernel.raise_softirq(cpu_idx, _NET_RX, work, done,
                                  from_irq=from_irq)

    # ------------------------------------------------------------------
    def loopback_deliver(self, packets: int,
                         sock_name: Optional[str] = None) -> None:
        """Called (via a Call op) from a sending task's syscall body."""
        # The sender's CPU does the protocol work, like netif_rx on lo.
        cpu_idx = self.kernel.dispatching_cpu or 0
        sock = self.sockets.get(sock_name) if sock_name else None
        self._queue_rx_work(cpu_idx, packets, sock)
