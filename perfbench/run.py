"""The repo benchmark: one command, every metric, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload figure --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing at all;
``--trace 1`` is the separate traced run: cProfile in every process
that does work, grouped by the module -> layer map in ``layers.py``,
plus spans around the calls into ``repro`` (``spans.py``).  A traced
run also writes its ledger to ``.perfbench/ledger-<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; human-readable
notes go to standard error.  Any operation that raised, stalled, got
an HTTP error or produced wrong bytes counts as failed and makes the
command exit 1.  The benchmark imports ``repro`` from ``src/`` of the
checkout it lives in and exits 2 without a result if that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fresh processes timed per run for ``setup_s``; the median is reported.
SETUP_SAMPLES = 5

END_TO_END = {
    "setup_s": "s", "fig6_s": "s", "fig2_s": "s", "fig6_observed_s": "s",
    "cells_per_s": "1/s", "job_p50_s": "s", "job_p90_s": "s",
    "jobs_per_s": "1/s", "peak_rss_mb": "MB",
}


def per_layer_units() -> Dict[str, str]:
    import layers

    units: Dict[str, str] = {}
    for layer in layers.LAYER_NAMES:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.self_share"] = "ratio"
        units[f"{layer}.calls"] = "count"
    units.update({
        "traced_total_s": "s", "tracing_overhead": "ratio",
        "sim.events": "count", "sim.us_per_event": "us",
        "scenario.build_s": "s",
        "executor.cell_s": "s", "executor.parallel_efficiency": "ratio",
        "executor.result_bytes": "B",
        "store.put_s": "s", "store.puts": "count", "store.put_bytes": "B",
        "store.key_s": "s", "store.keys": "count",
        "store.get_s": "s", "store.gets": "count", "store.hit_rate": "ratio",
        "export_s": "s",
        "http.submit_s": "s", "http.artifact_s": "s",
        "http.requests": "count",
        "service.queue_wait_s": "s", "service.hit_share": "ratio",
        "service.cells_cached": "count", "service.resubmit_share": "ratio",
    })
    return units


def import_repro() -> None:
    """Put this checkout's ``src`` first on the path, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import repro

    if not os.path.realpath(repro.__file__).startswith(
            os.path.realpath(SRC) + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not "
              f"{SRC}", file=sys.stderr)
        sys.exit(2)


def setup_probe(workload: str) -> None:
    """What a fresh process pays before its first timed operation."""
    import_repro()
    from repro.experiments.scenario import all_scenarios
    from repro.store.keys import code_version

    import repro.experiments.export  # noqa: F401
    if workload == "sweep":
        import repro.experiments.campaign  # noqa: F401
        import repro.faults.margin  # noqa: F401
    if workload == "serve":
        import repro.service.client  # noqa: F401
    all_scenarios()
    code_version()
    print("ready", flush=True)


def measure_setup(run: Any) -> List[List[Tuple[float, float]]]:
    """Set-up intervals of fresh processes, one list per sample; they
    run pinned to the home core (``hostspeed.py``)."""
    import workloads

    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             run.workload], cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        intervals = [(start, time.perf_counter())]
        proc.communicate()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("setup probe failed")
        if run.workload == "serve":
            start = time.perf_counter()
            intervals.append((start, start + workloads.serve_setup(run)))
        samples.append(intervals)
    return samples


def setup_seconds(run: Any, samples: List[List[Tuple[float, float]]]
                  ) -> float:
    """Median set-up time in reference seconds (``hostspeed.py``)."""
    return statistics.median(
        sum((end - start) * run.speed.factor(start, end, home=True)
            for start, end in intervals) for intervals in samples)


def peak_rss_mb(run: Any) -> float:
    """Peak resident set of the benchmark process and the children it
    reaped; for a server, its process tree's resident set when stopped.

    The measured server's own high-water mark is left out: a transient
    in it reached 110 MB in most ``serve`` runs and stayed under 87 MB
    in two or three of ten, which made the metric bimodal over seeds.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    children = run.children_peak_mb
    if children is None:
        children = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return max(own, children, run.server_rss_mb)


def traced_metrics(run: Any, traced: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of a traced run, every name present."""
    import layers

    lmap = layers.LayerMap(os.path.join(SRC, "repro"))
    by_process = {name: lmap.group(stats)
                  for name, stats in traced["profiles"].items()}
    totals = {name: layers.profile_total(stats)
              for name, stats in traced["profiles"].items()}
    total = sum(totals.values())
    metrics: Dict[str, float] = dict.fromkeys(per_layer_units(), 0)
    for layer in layers.LAYER_NAMES:
        self_s = sum(group[layer]["self_s"] for group in by_process.values())
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.self_share"] = self_s / total if total else 0.0
        metrics[f"{layer}.calls"] = sum(group[layer]["calls"]
                                        for group in by_process.values())
    events = traced["sim_events"]
    metrics.update({
        "traced_total_s": total,
        "tracing_overhead": traced["traced_s"] / traced["untraced_s"],
        "sim.events": events,
        "sim.us_per_event": (traced["untraced_s"] * 1e6 / events
                             if events else 0.0),
    })
    metrics.update(traced["span_metrics"])
    ledger = {
        "workload": run.workload, "seed": run.seed, "size": run.size,
        "sizes": run.sizes, "python": sys.version.split()[0],
        "metrics": metrics,
        "processes": {name: {"profiled_total_s": totals[name],
                             "layers": by_process[name]}
                      for name in by_process},
        "spans": run.spans.totals, "kept_spans": run.spans.kept,
    }
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"ledger-{run.workload}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"ledger written to {path}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload", choices=("figure", "sweep", "serve"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="input sizes; 'small' is for the tests")
    parser.add_argument("--setup-probe", metavar="WORKLOAD",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if not args.workload:
        parser.error("--workload is required")

    import_repro()
    import workloads
    from hostspeed import REFERENCE_S, HostSpeed
    from spans import Spans, instrument

    # A SIGTERM unwinds through the cleanup below, so the server and pool
    # processes a run started are stopped rather than orphaned.  Processes
    # forked from this one -- the program's pool workers -- get SIGTERM's
    # default action back: their pool stops them with SIGTERM, and a
    # worker blocked in C code never runs a Python handler, which left
    # the pool waiting for it for good.  A worker that gets the signal
    # before its reset dies at once too.
    main_pid = os.getpid()

    def on_sigterm(*_: Any) -> None:
        if os.getpid() != main_pid:
            os._exit(143)
        sys.exit(143)

    signal.signal(signal.SIGTERM, on_sigterm)
    os.register_at_fork(after_in_child=lambda: signal.signal(
        signal.SIGTERM, signal.SIG_DFL))
    run = workloads.Run(root=ROOT, workload=args.workload, seed=args.seed,
                        seconds=args.seconds, size=args.size)
    try:
        if args.trace:
            run.spans = Spans()
            inst = instrument(run.spans)
            try:
                metrics = traced_metrics(
                    run, workloads.TRACED[args.workload](run))
            finally:
                inst.undo()
            units = per_layer_units()
        else:
            run.speed = HostSpeed(run.workdir("hostspeed"))
            run.speed.start()
            with run.speed.pinned():
                setup = measure_setup(run)
            metrics = workloads.MEASURE[args.workload](run)
            metrics["setup_s"] = setup_seconds(run, setup)
            metrics["peak_rss_mb"] = peak_rss_mb(run)
            sample_ms = run.speed.mean_sample_s() * 1e3
            print(f"host speed: reference kernel {sample_ms:.3f} ms per "
                  f"sample, {REFERENCE_S * 1e3:.3f} ms on the reference "
                  f"host", file=sys.stderr)
            units = END_TO_END
    finally:
        run.cleanup()

    failed = min(len(run.failures), run.attempted)
    correct = not run.failures
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
