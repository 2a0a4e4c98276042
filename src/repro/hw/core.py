"""Physical cores and hyperthread execution-unit contention.

The paper attributes the difference between Figure 1 (26.17% jitter,
hyperthreading on) and Figure 4 (13.15%, hyperthreading off) to
contention for the shared execution unit between the two logical
processors of a hyperthreaded Xeon.  We model a physical core as a
shared execution unit: when both siblings are busy, each runs at a
fraction of full speed (around ``ht_speed_mean``); when one is idle the
other runs at full speed.  Transitions retime the sibling's in-flight
frame, so a measurement task sees its compute segment stretch exactly
while the sibling is occupied -- the mechanism the paper describes.
"""

from __future__ import annotations

from typing import List, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.hw.cpu import LogicalCpu


class PhysicalCore:
    """A physical core hosting one or two logical CPUs."""

    def __init__(self, index: int, ht_speed_mean: float = 0.60,
                 ht_speed_jitter: float = 0.08) -> None:
        if not 0.0 < ht_speed_mean <= 1.0:
            raise ValueError("ht_speed_mean must be in (0, 1]")
        self.index = index
        self.cpus: List["LogicalCpu"] = []
        self.ht_speed_mean = ht_speed_mean
        self.ht_speed_jitter = ht_speed_jitter
        # Current contention factor, resampled at each both-busy
        # transition to model workload-dependent pipeline interference.
        self._current_factor = ht_speed_mean

    def attach(self, cpu: "LogicalCpu") -> None:
        if len(self.cpus) >= 2:
            raise ValueError(f"core {self.index} already has two siblings")
        self.cpus.append(cpu)
        if len(self.cpus) == 2:
            # Cache the sibling pointers: the frame-start speed and the
            # busy notification path resolve them on every frame start.
            first, second = self.cpus
            first.sibling = second
            second.sibling = first

    @property
    def hyperthreaded(self) -> bool:
        return len(self.cpus) == 2

    def resample_factor(self, rng: "np.random.Generator") -> None:
        """Draw a fresh contention factor for a both-busy episode."""
        low = max(0.05, self.ht_speed_mean - self.ht_speed_jitter)
        high = min(1.0, self.ht_speed_mean + self.ht_speed_jitter)
        self._current_factor = float(rng.uniform(low, high))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<core{self.index} cpus={[c.index for c in self.cpus]}>"
