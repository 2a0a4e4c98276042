"""Named deterministic random substreams.

Every stochastic element of the simulation (device arrival processes,
critical-section lengths, memory-bus noise, ...) draws from its own
named stream derived from a single master seed.  This keeps experiments
reproducible while decoupling the streams: adding one more draw to the
NIC model does not perturb the disk model.

Streams are plain ``numpy.random.Generator`` instances seeded through
``numpy.random.SeedSequence.spawn``-style child derivation keyed on the
stream name, so the mapping name -> stream is stable across runs and
insensitive to creation order.
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional

import numpy as np

#: The repo-wide default master seed.  Every layer that needs a seed
#: (``Simulator``, ``build_bench``, ``ScenarioSpec``) defaults to this
#: one value, so a run's seed is stated in exactly one place.
DEFAULT_SEED = 1


class RngStreams:
    """Factory and registry for named random substreams."""

    def __init__(self, master_seed: Optional[int] = None) -> None:
        if master_seed is None:
            master_seed = DEFAULT_SEED
        self._master_seed = int(master_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def master_seed(self) -> int:
        return self._master_seed

    def _derive(self, name: str) -> np.random.Generator:
        # Derive a child seed from the master seed and a stable hash
        # of the name.  crc32 is stable across processes and Python
        # versions (unlike hash()).
        child = np.random.SeedSequence(
            entropy=self._master_seed,
            spawn_key=(zlib.crc32(name.encode("utf-8")),),
        )
        return np.random.Generator(np.random.PCG64(child))

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for *name*, creating it on first use.

        The same name always maps to the same stream object (and, for a
        given master seed, the same sequence) regardless of when or in
        what order streams are requested.
        """
        gen = self._streams.get(name)
        if gen is None:
            gen = self._derive(name)
            self._streams[name] = gen
        return gen

    def names(self) -> list:
        """Names of all streams created so far (sorted)."""
        return sorted(self._streams)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RngStreams seed={self._master_seed} streams={len(self._streams)}>"
