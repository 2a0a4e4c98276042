"""CLI for the core perf suite: measure, write and check BENCH_core.json.

Measure and write (committed at the repo root, tracked PR-over-PR)::

    python -m benchmarks.perf --output BENCH_core.json

CI regression gate (re-measures and compares speedup ratios)::

    python -m benchmarks.perf --check BENCH_core.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from typing import Any, Dict

from benchmarks.perf.core_bench import (
    batched_drain_body,
    cancel_churn_body,
    drain_body,
    periodic_body,
    schedule_body,
    time_body,
)
from benchmarks.perf.legacy_core import LegacySimulator

#: Microbench sizes (events) for full and --quick runs.
SIZES = {"schedule": 300_000, "drain": 300_000, "periodic": 200_000,
         "cancel_churn": 192_000, "batched_drain": 300_000}
QUICK_SIZES = {"schedule": 60_000, "drain": 60_000, "periodic": 40_000,
               "cancel_churn": 38_400, "batched_drain": 60_000}

#: A gated speedup may regress at most this factor vs the committed
#: number before CI fails (the issue's ">20% regression" gate).
REGRESSION_TOLERANCE = 0.8

#: Microbench rows whose speedup ratio is regression-gated by --check.
GATED_ROWS = ("drain", "periodic", "cancel_churn", "batched_drain")

_BODIES = {
    "schedule": schedule_body,
    "drain": drain_body,
    "periodic": periodic_body,
    "cancel_churn": cancel_churn_body,
    "batched_drain": batched_drain_body,
}


def _make_current():
    from repro.sim.engine import Simulator

    return Simulator(seed=1)


def _make_legacy():
    return LegacySimulator()


def run_microbenches(sizes: Dict[str, int],
                     repeats: int = 3) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for name, body in _BODIES.items():
        n = sizes[name]
        legacy_s, legacy_events = time_body(_make_legacy, body, n, repeats)
        core_s, core_events = time_body(_make_current, body, n, repeats)
        out[name] = {
            "events": core_events,
            "legacy_wall_s": round(legacy_s, 6),
            "core_wall_s": round(core_s, 6),
            "legacy_events_per_sec": round(legacy_events / legacy_s),
            "core_events_per_sec": round(core_events / core_s),
            "speedup": round((legacy_s / legacy_events)
                             / (core_s / core_events), 3),
        }
    return out


def measure(quick: bool = False, repeats: int = 3) -> Dict[str, Any]:
    sizes = QUICK_SIZES if quick else SIZES
    return {
        "schema": 1,
        "python": platform.python_version(),
        "quick": quick,
        "micro": run_microbenches(sizes, repeats=repeats),
    }


def report(data: Dict[str, Any]) -> str:
    lines = ["core perf suite (best-of-N wall clock)", ""]
    for name, row in data["micro"].items():
        lines.append(
            f"  {name:<13s} legacy {row['legacy_events_per_sec']:>10,}/s   "
            f"core {row['core_events_per_sec']:>10,}/s   "
            f"speedup {row['speedup']:.2f}x")
    return "\n".join(lines)


def check(path: str, quick: bool = True) -> int:
    """Re-measure and fail if any gated speedup regressed >20%."""
    with open(path, "r", encoding="utf-8") as fh:
        committed = json.load(fh)
    fresh = measure(quick=quick)
    print(report(fresh))
    print()
    failed = []
    for name in GATED_ROWS:
        row = committed["micro"].get(name)
        if row is None:
            print(f"{name}: no committed baseline row, skipping gate")
            continue
        committed_speedup = row["speedup"]
        fresh_speedup = fresh["micro"][name]["speedup"]
        floor = committed_speedup * REGRESSION_TOLERANCE
        verdict = "ok" if fresh_speedup >= floor else "FAIL"
        print(f"{name}: committed {committed_speedup:.2f}x, "
              f"measured {fresh_speedup:.2f}x, floor {floor:.2f}x "
              f"[{verdict}]")
        if fresh_speedup < floor:
            failed.append(name)
    if failed:
        print(f"\nFAIL: {', '.join(failed)} regressed more than 20% "
              f"against the committed baseline")
        return 1
    print("\nOK: all gated rows within the regression budget")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    parser.add_argument("--output", default="",
                        help="write BENCH_core.json here")
    parser.add_argument("--check", default="",
                        help="regression-gate against this committed file")
    parser.add_argument("--quick", action="store_true",
                        help="smaller sizes (CI-friendly)")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    if args.check:
        return check(args.check, quick=True)

    data = measure(quick=args.quick, repeats=args.repeats)
    print(report(data))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"(wrote {args.output})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
