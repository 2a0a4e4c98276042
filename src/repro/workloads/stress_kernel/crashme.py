"""CRASHME: executing random bytes.

    "Finally the CRASHME test generates buffers of random data, then
    jumps to that data and tries to execute it."

Kernel-visible effects: a dense stream of synchronous exceptions
(illegal instruction, segfault) each requiring fault decoding and
signal delivery, plus the fork/exec churn of respawning the victim
after it dies.
"""

from __future__ import annotations

from typing import Generator, TYPE_CHECKING

from repro.kernel.syscalls import UserApi
from repro.workloads.base import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel


def crashme(kernel: "Kernel", name: str = "crashme") -> WorkloadSpec:
    """The random-code executor."""

    def body(api: UserApi) -> Generator:
        rng = api.rng
        while True:
            # Generate a buffer of random bytes.
            yield from api.compute(int(rng.uniform(1e5, 3e5)),
                                   label="crashme:gen")
            # Jump into it: a handful of instructions execute, then an
            # exception.  Fault handling + signal delivery in the
            # kernel, repeated for each attempt in the buffer.
            for _ in range(int(rng.integers(2, 8))):
                yield from api.compute(int(rng.uniform(500, 4_000)),
                                       label="crashme:run")

                def fault() -> Generator:
                    yield from api.kernel_section(
                        api.timing.sample("crashme.fault", api.rng),
                        label="crashme:fault")

                yield from api.syscall("do_signal", fault())
            # The monitor reaps the child and forks a fresh victim.
            def respawn() -> Generator:
                yield from api.kernel_section(30_000, label="crashme:fork")

            yield from api.syscall("fork", respawn())

    return WorkloadSpec(name=name, body=body)
