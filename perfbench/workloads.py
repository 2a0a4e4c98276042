"""The benchmark's three workloads, their seeded inputs and output checks.

``figure``  regenerates and exports fig6, fig2 and fig6 with every
            observer attached, in one process with no store.
``sweep``   runs a campaign of short fig5/fig6/fig7 cells and a
            storm-fig6 margin ladder on an empty store with 2 workers.
``serve``   drives a ``serve`` process with 2 closed-loop connections
            and a seeded mix of campaign, figure, margin and twin-diff
            jobs, most of them answered from cells already stored.

Inputs come from the workload seed alone; ``repro`` only ever sees the
generated specs.  Every operation's output bytes are checked: repeated
operations must export identical bytes, observed and profiled runs must
export what the plain run exports, served artifacts must equal the direct
export of the same spec, and at the default seed the figure and sweep
exports must match the digests pinned below.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import math
import multiprocessing
import os
import pickle
import queue
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import layers as layer_map
from hostspeed import HostSpeed
from spans import Spans

DEFAULT_SEED = 1

#: Input sizes.  ``small`` is what the benchmark's own tests run.
SIZES: Dict[str, Dict[str, int]] = {
    "full": {"fig6_samples": 1000, "fig2_iterations": 2,
             "sweep_seeds": 6, "sweep_samples": 300,
             "serve_samples": 300, "serve_warm_seeds": 20,
             "traced_jobs": 40},
    "small": {"fig6_samples": 300, "fig2_iterations": 1,
              "sweep_seeds": 2, "sweep_samples": 100,
              "serve_samples": 100, "serve_warm_seeds": 6,
              "traced_jobs": 12},
}

#: sha256 of the exports at the default seed and full size.
PINNED = {
    "fig6": "3e2d7ee7c397d922a48669b8466c2819721fe227b0369fa16d8c52e60796ee70",
    "fig2": "d91c768f098c4c4f3907345bc5e511760338d102ba21d29cf02763b3703d3e73",
    "campaign":
        "9f0fe6d2705890b8fd3dba6dd90b4316794340c4143fd8f868a211cfc90bb565",
    "margin":
        "07ccfcd7d230ed7df0102d9a829a44b1391e1b13e9ce52ad9d26ac6e46b0abfb",
}

WORKERS = 2
CONNECTIONS = 2
TWIN_CAPACITY = 65536


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (*q* in 0..100)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@dataclass
class Run:
    """One benchmark run: its knobs, working directory and tallies."""

    root: str
    workload: str
    seed: int
    seconds: float
    size: str
    spans: Optional[Spans] = None
    #: Sampler of the measured runs; timings are scaled by its factor.
    speed: Optional[HostSpeed] = None
    #: Largest resident set of a server process tree when it was
    #: stopped, in MB (see :func:`run.peak_rss_mb`).
    server_rss_mb: float = 0.0
    #: ``RUSAGE_CHILDREN`` peak before the measured server started, in MB.
    children_peak_mb: Optional[float] = None
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    processes: List[subprocess.Popen] = field(default_factory=list)

    @property
    def sizes(self) -> Dict[str, int]:
        return SIZES[self.size]

    @property
    def pinned(self) -> bool:
        return self.seed == DEFAULT_SEED and self.size == "full"

    @property
    def src(self) -> str:
        return os.path.join(self.root, "src")

    def workdir(self, name: str) -> str:
        path = os.path.join(self.root, ".perfbench",
                            f"{self.workload}-{os.getpid()}", name)
        os.makedirs(path, exist_ok=True)
        return path

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.fail(message)
        return ok

    def check_pinned(self, name: str, data: bytes) -> None:
        if self.pinned:
            self.check(sha(data) == PINNED[name],
                       f"{name} export {sha(data)[:16]} does not match "
                       f"the pinned digest {PINNED[name][:16]}")

    def cleanup(self) -> None:
        if self.speed is not None:
            self.speed.stop()
        for proc in self.processes:
            stop_process(proc)
        shutil.rmtree(os.path.join(self.root, ".perfbench",
                                   f"{self.workload}-{os.getpid()}"),
                      ignore_errors=True)


def export_bytes(data: Dict[str, Any]) -> bytes:
    """What the CLI's ``--json`` sinks write for an exported dict."""
    export = importlib.import_module("repro.experiments.export")

    return (export.to_json(data) + "\n").encode("utf-8")


# ----------------------------------------------------------------------
# figure
# ----------------------------------------------------------------------
def figure_specs(run: Run) -> Tuple[Any, Any]:
    from repro.experiments.scenario import scenario

    rng = random.Random(f"figure:{run.seed}")
    fig6 = scenario("fig6").configured(
        samples=run.sizes["fig6_samples"], seed=rng.randrange(1, 10**6))
    fig2 = scenario("fig2").configured(
        iterations=run.sizes["fig2_iterations"],
        seed=rng.randrange(1, 10**6))
    return fig6, fig2


@dataclass
class Op:
    """One timed operation: when it ran and how many cells it produced."""

    start: float
    end: float
    cells: int = 1

    @property
    def latency_s(self) -> float:
        return self.end - self.start


def figure_round(fig6: Any, fig2: Any) -> Dict[str, Tuple[Op, bytes]]:
    """Regenerate and export fig6, fig2 and observed fig6 once each.

    The observed run attaches lockdep plus typed tracing with recording
    (the ``--lockdep`` and ``diff record`` paths) and frames the
    recording as an RTRACE1 entry in memory.
    """
    export = importlib.import_module("repro.experiments.export")
    scenario_mod = importlib.import_module("repro.experiments.scenario")
    from repro.observe.tracer import TraceConfig
    from repro.store.entry import encode_recording
    from repro.store.keys import digest_of

    legs: Dict[str, Tuple[Op, bytes]] = {}
    start = time.perf_counter()
    data = export_bytes(export.scenario_to_dict(
        scenario_mod.run_scenario(fig6)))
    legs["fig6"] = (Op(start, time.perf_counter()), data)

    start = time.perf_counter()
    data = export_bytes(export.scenario_to_dict(
        scenario_mod.run_scenario(fig2)))
    legs["fig2"] = (Op(start, time.perf_counter()), data)

    start = time.perf_counter()
    result = scenario_mod.run_scenario(
        fig6, lockdep=True, trace=TraceConfig(record=True))
    data = export_bytes(export.scenario_to_dict(result))
    body = result.trace["recording"]
    encode_recording(body, digest_of(body), body["code"])
    legs["fig6_observed"] = (Op(start, time.perf_counter()), data)
    return legs


def check_round(run: Run, legs: Dict[str, Tuple[Op, bytes]],
                first: Optional[Dict[str, Tuple[Op, bytes]]]) -> None:
    run.check(legs["fig6"][1] == legs["fig6_observed"][1],
              "observed fig6 exported other bytes than plain fig6")
    if first is not None:
        for name in ("fig6", "fig2"):
            run.check(legs[name][1] == first[name][1],
                      f"{name} export changed between repetitions")


LEGS = ("fig6", "fig2", "fig6_observed")


def scaled(speed: HostSpeed, ops: List[Op], home: bool) -> List[float]:
    """Each operation's latency in reference seconds (``hostspeed.py``),
    scaled by the host speed sampled while it ran: on the home core for
    work pinned there, else on every core."""
    return [op.latency_s * speed.factor(op.start, op.end, home)
            for op in ops]


def summarize(speed: HostSpeed, ops: List[Op], home: bool
              ) -> Dict[str, float]:
    """Latency percentiles and rates of a timed region's operations.

    Latencies are scaled one by one; rates divide by the busy span, first
    start to last end, scaled by the host speed over that span.
    """
    latencies = scaled(speed, ops, home)
    start = min(op.start for op in ops)
    end = max(op.end for op in ops)
    span = (end - start) * speed.factor(start, end, home)
    return {"job_p50_s": statistics.median(latencies),
            "job_p90_s": percentile(latencies, 90),
            "jobs_per_s": len(ops) / span,
            "cells_per_s": sum(op.cells for op in ops) / span}


def leg_metrics(speed: HostSpeed, rounds: List[Dict]) -> Dict[str, float]:
    """Median of each figure leg over *rounds*, which ran pinned to the
    home core, in reference seconds."""
    return {f"{name}_s": statistics.median(
        scaled(speed, [r[name][0] for r in rounds], home=True))
        for name in LEGS}


def reference_rounds(run: Run, count: int,
                     first: Optional[Dict] = None) -> List[Dict]:
    """Figure rounds outside the timed region, pinned to the home core,
    for the workloads other than ``figure``, which report the figure
    legs too."""
    fig6, fig2 = figure_specs(run)
    rounds = []
    with run.speed.pinned():
        for _ in range(count):
            run.attempted += 1
            legs = figure_round(fig6, fig2)
            check_round(run, legs, first)
            first = first or legs
            rounds.append(legs)
    return rounds


def figure_measure(run: Run) -> Dict[str, float]:
    with run.speed.pinned():
        return _figure_measure(run)


def _figure_measure(run: Run) -> Dict[str, float]:
    fig6, fig2 = figure_specs(run)
    rounds: List[Dict] = []
    ops: List[Op] = []
    start = time.perf_counter()
    deadline = start + run.seconds
    while not ops or time.perf_counter() < deadline:
        run.attempted += 1
        t0 = time.perf_counter()
        try:
            legs = figure_round(fig6, fig2)
        except Exception as exc:  # an operation that raised is a failure
            run.fail(f"figure round raised {exc!r}")
            raise
        ops.append(Op(t0, time.perf_counter(), cells=len(legs)))
        check_round(run, legs, rounds[0] if rounds else None)
        if not rounds:
            run.check_pinned("fig6", legs["fig6"][1])
            run.check_pinned("fig2", legs["fig2"][1])
        rounds.append(legs)
    print(f"figure: {len(ops)} rounds in {ops[-1].end - start:.2f}s "
          f"(fig6 {fig6.measurement.samples} samples seed {fig6.seed}, "
          f"fig2 {fig2.measurement.iterations} iterations seed "
          f"{fig2.seed}); no store, 0 cached cells, 0 resubmits",
          file=sys.stderr)
    return (summarize(run.speed, ops, home=True)
            | leg_metrics(run.speed, rounds))


def figure_traced(run: Run) -> Dict[str, Any]:
    fig6, fig2 = figure_specs(run)
    spans = run.spans
    run.attempted += 1
    t0 = time.perf_counter()
    plain = figure_round(fig6, fig2)
    untraced_s = time.perf_counter() - t0
    check_round(run, plain, None)
    events = sum(sim.events_fired for sim in spans.sims)

    profilers = layer_map.ThreadProfilers()
    run.attempted += 1
    t0 = time.perf_counter()
    profilers.start()
    try:
        traced = figure_round(fig6, fig2)
    finally:
        stats = profilers.stop()
    traced_s = time.perf_counter() - t0
    check_round(run, traced, plain)
    return {
        "profiles": {"bench": stats},
        "untraced_s": untraced_s, "traced_s": traced_s,
        "sim_events": events,
        "span_metrics": {
            "scenario.build_s": spans.seconds("scenario.build"),
            "export_s": spans.seconds("export"),
        },
    }


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
def sweep_specs(run: Run) -> Tuple[Any, Any]:
    from repro.experiments.campaign import CampaignSpec
    from repro.faults.margin import MarginSpec

    rng = random.Random(f"sweep:{run.seed}")
    seeds = tuple(sorted(rng.sample(range(1, 10**6),
                                    run.sizes["sweep_seeds"])))
    samples = run.sizes["sweep_samples"]
    campaign = CampaignSpec(scenarios=("fig5", "fig6", "fig7"),
                            seeds=seeds, samples=samples)
    margin = MarginSpec(scenario="storm-fig6", plan="storm-fig6",
                        samples=samples, seed=rng.randrange(1, 10**6))
    return campaign, margin


def sweep_op(campaign: Any, margin: Any, store: str, workers: int
             ) -> Tuple[float, int, bytes, bytes, Dict[str, Any]]:
    """Campaign then margin ladder on *store*; (seconds, cells, ...)."""
    campaign_mod = importlib.import_module("repro.experiments.campaign")
    export = importlib.import_module("repro.experiments.export")
    margin_mod = importlib.import_module("repro.faults.margin")

    start = time.perf_counter()
    result = campaign_mod.CampaignRunner(campaign, workers=workers,
                                         store=store).run()
    campaign_bytes = export_bytes(export.campaign_to_dict(result))
    ladder = margin_mod.run_margin(margin, workers=workers, store=store)
    margin_bytes = export_bytes(ladder.to_dict())
    seconds = time.perf_counter() - start
    return (seconds, len(result.jobs) + len(ladder.jobs), campaign_bytes,
            margin_bytes, result.cache)


def sweep_measure(run: Run) -> Dict[str, float]:
    campaign, margin = sweep_specs(run)
    rounds = reference_rounds(run, 3)
    ops: List[Op] = []
    first: Optional[Tuple[bytes, bytes]] = None
    start = time.perf_counter()
    deadline = start + run.seconds
    for n in itertools.count():
        if ops and time.perf_counter() >= deadline:
            break
        store = os.path.join(run.workdir("sweep"), f"store-{n}")
        run.attempted += 1
        t0 = time.perf_counter()
        try:
            _, cells, cbytes, mbytes, cache = sweep_op(
                campaign, margin, store, WORKERS)
        except Exception as exc:
            run.fail(f"sweep op raised {exc!r}")
            raise
        finally:
            t1 = time.perf_counter()
            shutil.rmtree(store, ignore_errors=True)
        ops.append(Op(t0, t1, cells=cells))
        run.check(cache["hits"] == 0 and cache["computed"] == cache["jobs"],
                  f"sweep store was not empty: {cache}")
        if first is None:
            first = (cbytes, mbytes)
            run.check_pinned("campaign", cbytes)
            run.check_pinned("margin", mbytes)
        else:
            run.check((cbytes, mbytes) == first,
                      "sweep exports changed between repetitions")
    print(f"sweep: {len(ops)} ops in {ops[-1].end - start:.2f}s, "
          f"{ops[0].cells} cells per op ({campaign.samples} samples, "
          f"seeds {list(campaign.seeds)}, margin seed {margin.seed}); "
          f"empty store per op: 0 cached cells, 0 resubmits",
          file=sys.stderr)
    rounds += reference_rounds(run, 4, rounds[0])
    return (summarize(run.speed, ops, home=False)
            | leg_metrics(run.speed, rounds))


def sweep_traced(run: Run) -> Dict[str, Any]:
    campaign_mod = importlib.import_module("repro.experiments.campaign")
    margin_mod = importlib.import_module("repro.faults.margin")

    campaign, margin = sweep_specs(run)
    spans = run.spans

    # The real op: parallel, so store and export spans are the sweep's.
    run.attempted += 1
    par_s, cells, cbytes, mbytes, _ = sweep_op(
        campaign, margin, os.path.join(run.workdir("sweep"), "par"),
        WORKERS)
    span_metrics = {
        "store.put_s": spans.seconds("store.put"),
        "store.puts": spans.count("store.put"),
        "store.put_bytes": spans.field("store.put", "bytes"),
        "store.key_s": spans.seconds("store.key"),
        "store.keys": spans.count("store.key"),
        "store.get_s": spans.seconds("store.get"),
        "store.gets": spans.count("store.get"),
        "store.hit_rate": (spans.field("store.get", "hits")
                           / max(1, spans.count("store.get"))),
        "export_s": spans.seconds("export"),
    }

    # Serial pass: per-cell compute and shipped-result sizes.
    cell_s: List[float] = []
    result_bytes: List[int] = []
    build_before = spans.seconds("scenario.build")
    sims_before = len(spans.sims)

    def timed_cell(fn: Callable) -> Callable:
        def cell(spec, *args, **kwargs):
            t0 = time.perf_counter()
            result = fn(spec, *args, **kwargs)
            cell_s.append(time.perf_counter() - t0)
            result_bytes.append(len(pickle.dumps((0, result))))
            return result
        return cell

    originals = (campaign_mod.run_scenario, margin_mod.run_scenario)
    campaign_mod.run_scenario = timed_cell(originals[0])
    margin_mod.run_scenario = timed_cell(originals[1])
    run.attempted += 1
    try:
        serial_s, _, sbytes, smbytes, _ = sweep_op(
            campaign, margin,
            os.path.join(run.workdir("sweep"), "serial"), 1)
    finally:
        campaign_mod.run_scenario, margin_mod.run_scenario = originals
    events = sum(sim.events_fired for sim in spans.sims[sims_before:])
    build_s = spans.seconds("scenario.build") - build_before
    run.check((sbytes, smbytes) == (cbytes, mbytes),
              "serial sweep exported other bytes than the parallel one")

    profilers = layer_map.ThreadProfilers()
    run.attempted += 1
    t0 = time.perf_counter()
    profilers.start()
    try:
        _, _, pbytes, pmbytes, _ = sweep_op(
            campaign, margin,
            os.path.join(run.workdir("sweep"), "profiled"), 1)
    finally:
        stats = profilers.stop()
    traced_s = time.perf_counter() - t0
    run.check((pbytes, pmbytes) == (cbytes, mbytes),
              "profiled sweep exported other bytes than the plain one")
    span_metrics.update({
        "scenario.build_s": build_s,
        "executor.cell_s": statistics.median(cell_s),
        "executor.parallel_efficiency": math.fsum(cell_s)
        / (WORKERS * par_s),
        "executor.result_bytes": statistics.median(result_bytes),
    })
    return {"profiles": {"bench": stats}, "untraced_s": serial_s,
            "traced_s": traced_s, "sim_events": events,
            "span_metrics": span_metrics}


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
#: One cycle of a connection's job stream, shuffled per cycle.  Three
#: cold jobs in twenty put the p90 inside the cold jobs' latencies; each
#: computes one new cell, so the pool is not busy all the time.
CYCLE = (["campaign"] * 11 + ["figure"] * 2 + ["margin", "twin-diff"]
         + ["resubmit"] * 2 + ["cold"] * 3)
SCENARIOS = ("fig6", "fig7")
STORM = "storm-fig6"


class JobStream:
    """One connection's seeded job stream, in its own seed space.

    Warm jobs draw only on the connection's warm seeds, whose cells are
    stored before the timed region; cold jobs are figure jobs at a fresh
    seed (one new cell); resubmits repeat an earlier job exactly.  Seed
    spaces of different connections are disjoint, so which cells hit
    does not depend on how the connections interleave.
    """

    def __init__(self, seed: int, conn: int, sizes: Dict[str, int]) -> None:
        from repro.faults.margin import DEFAULT_INTENSITIES

        self.rng = random.Random(f"serve:{seed}:{conn}")
        self.samples = sizes["serve_samples"]
        base = (conn + 1) * 10**6
        drawn = self.rng.sample(range(base, base + 500_000),
                                sizes["serve_warm_seeds"] + 2)
        self.warm = sorted(drawn[:-2])
        self.margin_seed, self.twin_seed = drawn[-2:]
        self.fresh = base + 500_000
        self.figures = [(name, s) for name in SCENARIOS for s in self.warm]
        self.rng.shuffle(self.figures)
        ladders = [tuple(c) for n in range(1, len(DEFAULT_INTENSITIES))
                   for c in itertools.combinations(DEFAULT_INTENSITIES, n)]
        self.rng.shuffle(ladders)
        self.ladders = ladders
        self.seen: set = set()
        self.submitted: List[Dict[str, Any]] = []
        self.cycle: List[str] = []

    def warm_jobs(self) -> List[Dict[str, Any]]:
        """The jobs whose cells are stored before the timed region."""
        return [
            {"kind": "campaign", "scenarios": list(SCENARIOS),
             "seeds": self.warm, "samples": self.samples},
            {"kind": "margin", "scenario": STORM, "seed": self.margin_seed,
             "samples": self.samples},
            {"kind": "twin-diff", "scenario": STORM, "seed": self.twin_seed,
             "samples": self.samples},
        ]

    def _campaign(self) -> Optional[Dict[str, Any]]:
        """A campaign window not submitted before; None once few remain."""
        for _ in range(1000):
            seeds = tuple(sorted(self.rng.sample(self.warm,
                                                 self.rng.randint(2, 4))))
            if seeds not in self.seen:
                self.seen.add(seeds)
                return {"kind": "campaign", "scenarios": list(SCENARIOS),
                        "seeds": list(seeds), "samples": self.samples}

    def next(self) -> Tuple[str, Dict[str, Any]]:
        """(class, job spec) of the next job."""
        if not self.cycle:
            self.cycle = list(CYCLE)
            self.rng.shuffle(self.cycle)
            if not self.submitted:  # one job of every kind comes first
                for kind in ("twin-diff", "margin", "figure", "campaign"):
                    self.cycle.remove(kind)
                    self.cycle.append(kind)
        kind = self.cycle.pop()
        spec: Optional[Dict[str, Any]] = None
        if kind == "resubmit" and self.submitted:
            spec = self.rng.choice(self.submitted)
        elif kind == "figure" and self.figures:
            name, seed = self.figures.pop()
            spec = {"kind": "figure", "scenario": name, "seed": seed,
                    "samples": self.samples}
        elif kind == "margin" and self.ladders:
            spec = {"kind": "margin", "scenario": STORM,
                    "seed": self.margin_seed, "samples": self.samples,
                    "intensities": list(self.ladders.pop())}
        elif kind == "twin-diff":
            spec = {"kind": "twin-diff", "scenario": STORM,
                    "seed": self.twin_seed, "samples": self.samples}
        elif kind == "cold":
            self.fresh += 1
            spec = {"kind": "figure", "scenario": self.rng.choice(SCENARIOS),
                    "seed": self.fresh, "samples": self.samples}
        if spec is None:
            kind, spec = "campaign", self._campaign()
        if spec is None:
            kind, spec = "resubmit", self.rng.choice(self.submitted)
        self.submitted.append(spec)
        return kind, spec


def stop_process(proc: subprocess.Popen) -> None:
    """SIGTERM (graceful drain), then SIGKILL; always reaped."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class Server:
    """A ``python -m repro.experiments serve`` child process."""

    def __init__(self, run: Run, store: str,
                 profile_out: Optional[str] = None) -> None:
        self.run = run
        self.store = store
        self.profile_out = profile_out
        self.address = ""
        self.proc: Optional[subprocess.Popen] = None
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader: Optional[threading.Thread] = None

    def start(self) -> float:
        """Launch and wait until ``/health`` answers; returns seconds."""
        from repro.service.client import ServiceClient, ServiceError

        if self.profile_out:
            prefix = [os.path.join(os.path.dirname(__file__),
                                   "serve_profiled.py"), self.profile_out]
        else:
            prefix = ["-m", "repro.experiments"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [self.run.src] + [p for p in [env.get("PYTHONPATH")] if p])
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", *prefix, "serve", "--store", self.store,
             "--port", "0", "--workers", str(WORKERS)],
            cwd=self.run.root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        self.run.processes.append(self.proc)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        deadline = start + 60
        while not self.address:
            try:
                line = self._lines.get(timeout=max(0.1, deadline
                                                   - time.perf_counter()))
            except queue.Empty:
                line = None
            if line is None:
                raise RuntimeError("serve did not announce its address")
            if "listening on " in line:
                self.address = line.split("listening on ", 1)[1].split()[0]
        client = ServiceClient(self.address, timeout=10)
        while True:
            try:
                client.health()
                return time.perf_counter() - start
            except (OSError, ServiceError):
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.01)

    def _read(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        # An explicit readline call, so the profiler files the wait
        # under the blocking builtin rather than under this frame.
        while True:
            line = self.proc.stdout.readline()
            self._lines.put(line or None)
            if not line:
                return

    def stop(self) -> None:
        if self.proc is not None:
            self.run.server_rss_mb = max(self.run.server_rss_mb,
                                         tree_rss_mb(self.proc.pid))
            stop_process(self.proc)
            self.run.processes.remove(self.proc)
        if self._reader is not None:
            self._reader.join(timeout=10)


def tree_rss_mb(pid: int) -> float:
    """Largest resident set of *pid* and its live descendants, now."""
    rss_kb = 0
    todo = [pid]
    while todo:
        proc = f"/proc/{todo.pop()}"
        try:
            with open(f"{proc}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        rss_kb = max(rss_kb, int(line.split()[1]))
            for task in os.listdir(f"{proc}/task"):
                with open(f"{proc}/task/{task}/children",
                          encoding="ascii") as fh:
                    todo.extend(int(child) for child in fh.read().split())
        except OSError:  # the process ended while being read
            continue
    return rss_kb / 1024.0


def prewarm(streams: List[JobStream], store_dir: str) -> int:
    """Store every warm cell through the service's own cell model."""
    from repro.service.jobs import (JobSpec, cell_key, expand_cells,
                                    persist, run_cell)
    from repro.store.keys import code_version
    from repro.store.store import ResultStore

    code = code_version()
    store = ResultStore(store_dir)
    cells: Dict[str, Any] = {}
    for stream in streams:
        for spec in stream.warm_jobs():
            for cell in expand_cells(JobSpec.from_dict(spec)):
                cells.setdefault(cell_key(cell, code), cell)
    todo = list(cells.values())
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(WORKERS) as pool:
        for cell, outcome in zip(todo, pool.imap(run_cell, todo)):
            persist(store, cell, outcome, code)
    return len(todo)


@dataclass
class JobResult:
    conn: int
    job_class: str
    spec: Dict[str, Any]
    job_id: str = ""
    created: bool = False
    start: float = 0.0
    end: float = 0.0
    cells: int = 0
    queue_wait_s: Optional[float] = None
    artifact_sha: str = ""
    error: str = ""


def drive(run: Run, address: str, streams: List[JobStream],
          deadline: Optional[float], jobs_per_conn: Optional[int],
          watch_queue: bool) -> List[JobResult]:
    """Run every connection's closed loop; results in completion order."""
    from repro.service.client import ServiceClient, ServiceError
    from repro.service.jobs import JobSpec
    from repro.store.keys import code_version

    results: List[JobResult] = []
    lock = threading.Lock()
    code = code_version()

    def loop(conn: int, stream: JobStream) -> None:
        client = ServiceClient(address, timeout=120)
        for n in itertools.count():
            if jobs_per_conn is not None and n >= jobs_per_conn:
                return
            if deadline is not None and time.perf_counter() >= deadline:
                return
            job_class, spec = stream.next()
            job = JobResult(conn=conn, job_class=job_class, spec=spec)
            if run.spans is not None:
                run.spans.job = JobSpec.from_dict(spec).job_id(code)
            job.start = start = time.perf_counter()
            try:
                status = client.submit(spec)
                job.job_id, job.created = status["id"], status["created"]
                if watch_queue:
                    final = status
                    for final in client.stream(job.job_id):
                        if (job.queue_wait_s is None
                                and final["state"] != "queued"):
                            job.queue_wait_s = (time.perf_counter()
                                                - start)
                else:
                    final = client.wait(job.job_id, poll_s=30.0)
                if final["state"] != "done":
                    raise RuntimeError(f"job ended {final['state']}: "
                                       f"{final.get('error', '')}")
                artifact = client.artifact(job.job_id)
                job.end = time.perf_counter()
                job.cells = final["cells_total"] if job.created else 0
                job.artifact_sha = sha(artifact)
            except (ServiceError, OSError, RuntimeError, KeyError) as exc:
                job.error = repr(exc)
            with lock:
                results.append(job)

    threads = [threading.Thread(target=loop, args=(conn, stream))
               for conn, stream in enumerate(streams)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def direct_export(spec: Dict[str, Any]) -> bytes:
    """The CLI's export of a job spec, computed in process, no store."""
    export = importlib.import_module("repro.experiments.export")
    from repro.experiments.campaign import CampaignRunner, CampaignSpec
    from repro.experiments.scenario import run_scenario, scenario
    from repro.faults.margin import MarginSpec, run_margin
    from repro.faults.twindiff import TwinDiffSpec, run_twin_diff

    kind = spec["kind"]
    if kind == "campaign":
        result = CampaignRunner(CampaignSpec(
            scenarios=tuple(spec["scenarios"]), seeds=tuple(spec["seeds"]),
            samples=spec["samples"])).run()
        return export_bytes(export.campaign_to_dict(result))
    if kind == "figure":
        result = run_scenario(scenario(spec["scenario"]).configured(
            samples=spec["samples"], seed=spec["seed"]))
        return export_bytes(export.scenario_to_dict(result))
    if kind == "margin":
        from repro.faults.margin import DEFAULT_INTENSITIES

        return export_bytes(run_margin(MarginSpec(
            scenario=spec["scenario"], plan=spec["scenario"],
            intensities=tuple(spec.get("intensities",
                                       DEFAULT_INTENSITIES)),
            samples=spec["samples"], seed=spec["seed"])).to_dict())
    return export_bytes(run_twin_diff(TwinDiffSpec(
        scenario=spec["scenario"], samples=spec["samples"],
        seed=spec["seed"], capacity=TWIN_CAPACITY)).to_dict())


def check_jobs(run: Run, results: List[JobResult]) -> None:
    """Every job done; resubmits and one job per kind byte-checked.

    The job of each kind with the fewest cells is recomputed directly,
    which keeps the check short.
    """
    by_id: Dict[str, str] = {}
    checked: Dict[str, JobResult] = {}
    for job in results:
        if not run.check(not job.error, f"job {job.spec} failed: "
                         f"{job.error}"):
            continue
        known = by_id.setdefault(job.job_id, job.artifact_sha)
        run.check(known == job.artifact_sha,
                  f"job {job.job_id} served different artifacts")
        kind = job.spec["kind"]
        if job.created and (kind not in checked
                            or job.cells < checked[kind].cells):
            checked[kind] = job
    for kind in ("campaign", "figure", "margin", "twin-diff"):
        job = checked.get(kind)
        if run.check(job is not None, f"no {kind} job completed"):
            run.check(sha(direct_export(job.spec)) == job.artifact_sha,
                      f"{kind} job {job.job_id} artifact differs from "
                      f"the direct export of its spec")


def serve_streams(run: Run) -> List[JobStream]:
    return [JobStream(run.seed, conn, run.sizes)
            for conn in range(CONNECTIONS)]


def _health_delta(before: Dict[str, Any], after: Dict[str, Any]
                  ) -> Dict[str, int]:
    return {key: after[key] - before[key]
            for key in ("cells_cached", "cells_computed")} | {
        "store_bytes": after["store"]["bytes"] - before["store"]["bytes"]}


def serve_pass(run: Run, streams: List[JobStream], store: str,
                  deadline_s: Optional[float], jobs_per_conn: Optional[int],
                  watch_queue: bool, profile_out: Optional[str] = None
                  ) -> Tuple[List[JobResult], float, Dict[str, int]]:
    """Start a server on *store*, drive the streams, stop it.

    Returns the results, how long driving took and the change in the
    server's cell counters.
    """
    from repro.service.client import ServiceClient

    server = Server(run, store, profile_out=profile_out)
    try:
        server.start()
        client = ServiceClient(server.address)
        before = client.health()
        start = time.perf_counter()
        results = drive(run, server.address, streams,
                        None if deadline_s is None else start + deadline_s,
                        jobs_per_conn, watch_queue)
        elapsed = time.perf_counter() - start
        delta = _health_delta(before, client.health())
    finally:
        server.stop()
    run.attempted += len(results)
    return results, elapsed, delta


def serve_setup(run: Run) -> float:
    """Server start until ``/health`` answers, on an empty store."""
    server = Server(run, os.path.join(run.workdir("setup"),
                                      f"store-{time.perf_counter_ns()}"))
    try:
        return server.start()
    finally:
        server.stop()


def describe_jobs(results: List[JobResult], delta: Dict[str, int]) -> str:
    classes: Dict[str, int] = {}
    for job in results:
        classes[job.job_class] = classes.get(job.job_class, 0) + 1
    cells = delta["cells_cached"] + delta["cells_computed"]
    resubmits = sum(1 for job in results if not job.created)
    return (f"{len(results)} jobs {dict(sorted(classes.items()))}; "
            f"cached cell share {delta['cells_cached'] / max(1, cells):.3f}"
            f" of {cells}; resubmit share "
            f"{resubmits / max(1, len(results)):.3f}")


def serve_measure(run: Run) -> Dict[str, float]:
    streams = serve_streams(run)
    store = os.path.join(run.workdir("serve"), "store")
    warm_cells = prewarm(streams, store)
    rounds = reference_rounds(run, 3)
    run.children_peak_mb = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    results, elapsed, delta = serve_pass(
        run, streams, store, run.seconds, None, watch_queue=False)
    print(f"serve: {warm_cells} cells stored before timing; "
          f"{describe_jobs(results, delta)}; {elapsed:.2f}s",
          file=sys.stderr)
    check_jobs(run, results)
    ops = [Op(job.start, job.end, job.cells) for job in results
           if not job.error]
    if len(ops) < 100:
        print(f"serve: only {len(ops)} jobs, fewer than the 100 that put "
              f"ten beyond the p90", file=sys.stderr)
    rounds += reference_rounds(run, 4, rounds[0])
    return (summarize(run.speed, ops, home=False)
            | leg_metrics(run.speed, rounds))


SERVER_SPANS = {
    "store.get": (("store/store.py", "get"),
                  ("store/store.py", "get_recording")),
    "store.put": (("store/store.py", "put"),
                  ("store/store.py", "put_stalled"),
                  ("store/store.py", "put_recording")),
    "store.key": (("store/keys.py", "job_key"),
                  ("store/keys.py", "recording_key")),
    "export": (("experiments/export.py", "scenario_to_dict"),
               ("experiments/export.py", "campaign_to_dict"),
               ("experiments/export.py", "to_json"),
               ("faults/margin.py", "to_dict"),
               ("faults/twindiff.py", "to_dict")),
    "scenario.build": (("experiments/scenario.py",
                        "build_scenario_bench"),),
}


def serve_traced(run: Run) -> Dict[str, Any]:
    streams = serve_streams(run)
    warm = os.path.join(run.workdir("serve"), "warm")
    prewarm(streams, warm)
    plain_store = os.path.join(run.workdir("serve"), "plain")
    profiled_store = os.path.join(run.workdir("serve"), "profiled")
    shutil.copytree(warm, plain_store)
    shutil.copytree(warm, profiled_store)
    count = run.sizes["traced_jobs"]
    run.spans.reset()  # the ledger's spans are the passes', not prewarm's

    results, untraced_s, _ = serve_pass(
        run, streams, plain_store, None, count, watch_queue=True)
    check_jobs(run, results)
    spans = run.spans
    span_metrics = {
        "http.submit_s": spans.seconds("http.submit"),
        "http.artifact_s": spans.seconds("http.artifact"),
        "http.requests": spans.count("http.request"),
    }

    server_stats = os.path.join(run.workdir("serve"), "server.pstats")
    profilers = layer_map.ThreadProfilers()
    profilers.start()
    try:
        traced, traced_s, traced_delta = serve_pass(
            run, serve_streams(run), profiled_store, None, count,
            watch_queue=True, profile_out=server_stats)
    finally:
        stats = profilers.stop()
    server = layer_map.load_stats(server_stats)
    run.check([j.artifact_sha for j in sorted(traced, key=_order)]
              == [j.artifact_sha for j in sorted(results, key=_order)],
              "profiled serve pass served other artifacts")

    for name, funcs in SERVER_SPANS.items():
        seconds, calls = layer_map.span_cumulative(server, funcs)
        span_metrics[f"{name}_s" if name != "export" else "export_s"] \
            = seconds
        if name.startswith("store."):
            span_metrics[name + "s"] = calls
    cells = traced_delta["cells_cached"] + traced_delta["cells_computed"]
    waits = [j.queue_wait_s for j in results
             if j.created and j.queue_wait_s is not None]
    span_metrics.update({
        "store.put_bytes": traced_delta["store_bytes"],
        "store.hit_rate": traced_delta["cells_cached"] / max(1, cells),
        "service.hit_share": traced_delta["cells_cached"] / max(1, cells),
        "service.cells_cached": traced_delta["cells_cached"],
        "service.resubmit_share": sum(1 for j in traced if not j.created)
        / max(1, len(traced)),
        "service.queue_wait_s": statistics.median(waits) if waits else 0.0,
    })
    return {"profiles": {"bench": stats, "server": server},
            "untraced_s": untraced_s, "traced_s": traced_s,
            "sim_events": 0, "span_metrics": span_metrics}


def _order(job: JobResult) -> Tuple[int, str]:
    return job.conn, job.job_id


MEASURE = {"figure": figure_measure, "sweep": sweep_measure,
           "serve": serve_measure}
TRACED = {"figure": figure_traced, "sweep": sweep_traced,
          "serve": serve_traced}
