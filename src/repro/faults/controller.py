"""The fault controller: plan -> live injectors against one bench.

The controller is the single integration point between a declarative
:class:`~repro.faults.plan.FaultPlan` and a running simulation:

* **Determinism.**  Every injector draws from its own named child
  stream, ``fault:{plan}:{kind}#{index}``, derived off the bench's
  master seed -- so the injection timeline is a pure function of
  (seed, plan, intensity) and is byte-identical no matter how many
  campaign workers run, in what order, or what else consumed RNG.
* **Invisibility when disabled.**  ``intensity <= 0`` (or an empty
  plan) short-circuits ``install()`` to a complete no-op: no RNG
  streams are derived, no events scheduled, no hooks placed.  A
  disabled controller is indistinguishable from no controller at all,
  which the golden byte-identity tests pin.
* **Observability.**  Every injection lands on an in-order timeline,
  bumps a per-injector counter, and (when tracing is enabled) emits
  one ``TP.FAULT_INJECT`` tracepoint named ``fault:{kind}#{index}``.
  Attribution blames the fault bucket through the same ``fault:``
  names on injected handlers and tasks.  :meth:`digest` is a CRC over
  the timeline -- two runs injected identically iff their digests
  match.
* **Lockdep composition.**  Installed *after* a
  :class:`~repro.analysis.lockdep.LockdepValidator` (the
  ``run_scenario`` order), injector IRQ registrations and rogue tasks
  flow through lockdep's wrapped kernel entry points; the
  ``lockdep_composed`` flag records that the wrappers were live.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.faults.injectors import Injector, build_injector
from repro.faults.plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.harness import Bench


class FaultController:
    """Installs one plan's injectors on a bench and records injections."""

    def __init__(self, bench: "Bench", plan: FaultPlan,
                 intensity: Optional[float] = None) -> None:
        self.bench = bench
        self.plan = plan
        self.intensity = (plan.intensity if intensity is None
                          else float(intensity))
        self.injectors: List[Injector] = []
        self.timeline: List[Tuple[int, int, str, str]] = []
        self._counts: Dict[str, int] = {}
        self._installed = False
        self.lockdep_composed = False

    @property
    def enabled(self) -> bool:
        """True iff installing this controller perturbs the run."""
        return self.intensity > 0 and bool(self.plan.injectors)

    # ------------------------------------------------------------------
    def install(self) -> "FaultController":
        """Hook every injector into the bench (no-op when disabled)."""
        if self._installed:
            raise RuntimeError("fault controller already installed")
        self._installed = True
        if not self.enabled:
            return self
        # Record whether lockdep's wrappers are live: injector IRQ
        # handlers and rogue tasks then run under the validator.
        self.lockdep_composed = (
            "register_irq_handler" in vars(self.bench.kernel))
        rng_root = self.bench.sim.rng
        for index, spec in enumerate(self.plan.injectors):
            key = f"{spec.kind}#{index}"
            inj = build_injector(key, spec, self)
            stream = rng_root.stream(f"fault:{self.plan.name}:{key}")
            inj.install(self.bench, stream, self.intensity)
            self.injectors.append(inj)
        return self

    def uninstall(self) -> None:
        """Remove every hook (reverse order of install)."""
        while self.injectors:
            self.injectors.pop().uninstall()
        self._installed = False

    # ------------------------------------------------------------------
    def record(self, key: str, cpu: int, detail: str) -> None:
        """One injection: timeline entry, counter, tracepoint."""
        now = self.bench.sim.now
        cpu = int(cpu)
        self.timeline.append((now, cpu, key, detail))
        self._counts[key] = self._counts.get(key, 0) + 1
        tp = self.bench.sim.tp
        if tp.enabled:
            tp.fault_inject(now, cpu, f"fault:{key}", detail)

    def digest(self) -> int:
        """CRC32 over the injection timeline (order-sensitive)."""
        crc = 0
        for entry in self.timeline:
            crc = zlib.crc32(repr(entry).encode("ascii"), crc)
        return crc

    def report(self) -> Dict[str, Any]:
        """JSON-friendly summary of what was injected."""
        return {
            "plan": self.plan.name,
            "intensity": self.intensity,
            "enabled": self.enabled,
            "lockdep_composed": self.lockdep_composed,
            "injections": len(self.timeline),
            "by_injector": {k: self._counts[k]
                            for k in sorted(self._counts)},
            "digest": self.digest(),
            "timeline": [list(entry) for entry in self.timeline],
        }
