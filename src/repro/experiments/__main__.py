"""Command-line experiment runner.

Figures (each a registered scenario; ``all`` runs fig1..fig7)::

    python -m repro.experiments fig5 --samples 20000
    python -m repro.experiments fig2 --iterations 20
    python -m repro.experiments all

Scenario registry::

    python -m repro.experiments list-scenarios [--group a1]
    python -m repro.experiments run a1-full --samples 2000

Campaigns (scenario x seed matrix, parallel workers, cached and
resumable through the content-addressed result store)::

    python -m repro.experiments campaign --scenarios fig5,fig6 \\
        --seeds 1..8 --workers 4 --json campaign.json
    python -m repro.experiments campaign --scenarios fig6 \\
        --seeds 1..64 --workers 4 --store         # warm runs are hits
    python -m repro.experiments campaign --scenarios fig6 \\
        --seeds 1..64 --store --resume            # after a Ctrl-C

Result store maintenance::

    python -m repro.experiments store ls [--kind rtrace]
    python -m repro.experiments store verify [--delete]
    python -m repro.experiments store gc [--keep-days 30] \\
        [--max-bytes 512M]                        # LRU byte budget

Serving (simserve: async job queue + HTTP API over the store)::

    python -m repro.experiments serve --store .repro-store
    python -m repro.experiments submit campaign --scenarios fig5,fig6 \\
        --seeds 1..4 --wait --json campaign.json
    python -m repro.experiments submit margin --scenario fig6 --wait
    python -m repro.experiments status [<job-id>] [--health]

Tracing (ftrace/perf-style observability)::

    python -m repro.experiments trace fig6 --trace-out fig6.trace.json
    python -m repro.experiments run fig5 --trace

Fault injection (simfault: storms, rogue tasks, shield margin)::

    python -m repro.experiments faults list-faults
    python -m repro.experiments faults storm fig6 --unshielded --lockdep
    python -m repro.experiments faults margin fig6 --workers 4

Trace diffing (simdiff: recordings, cross-run attribution diffs,
semantic goldens)::

    python -m repro.experiments diff record fig6 --out fig6.rtrace
    python -m repro.experiments diff against fig6.rtrace --gate
    python -m repro.experiments diff twin storm-fig6 \\
        --expect-buckets fault,irq_off
    python -m repro.experiments diff golden

Prints the paper-format report for the requested figure(s), the
campaign summary, the trace report (per-CPU accounting + latency
attribution; ``--trace-out`` writes a Perfetto-loadable JSON trace),
or the fault/margin report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields

from repro.experiments.campaign import (
    check_count,
    check_distinct,
    check_int,
    check_seed,
    parse_seeds,
)
from repro.experiments.scenario import (
    UnknownScenarioError,
    all_scenarios,
    run_scenario,
    scenario,
)
from repro.faults.margin import bound_ns_of
from repro.faults.plan import check_intensity
from repro.observe.tracer import TraceConfig, check_percentile
from repro.store import DEFAULT_STORE_DIR, ResultStore

#: The paper's figures, by result family (each a registered scenario).
DETERMINISM = ("fig1", "fig2", "fig3", "fig4")
LATENCY = ("fig5", "fig6", "fig7")

PROG = "python -m repro.experiments"

#: Where `serve` listens and `submit`/`status` connect by default.
DEFAULT_SERVER = "http://127.0.0.1:8642"


def _argtype(convert):
    """argparse type from *convert*: a ValueError it raises becomes
    argparse's ``argument --flag: <message>`` and exit 2.  Checkers
    get an empty name, because argparse names the flag in front."""
    def wrapper(text):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc).lstrip()) from None
    return wrapper


def _checked(check, parse=int):
    """argparse type of a number flag: *parse* the text and hold the
    value to *check*, the rule :class:`~repro.service.jobs.JobSpec`
    and the library apply to the same parameter."""
    def convert(text):
        try:
            value = parse(text)
        except ValueError:
            value = text  # not a number: the checker refuses it as is
        check(value, "")
        return value
    return _argtype(convert)


_COUNT = _checked(check_count)


def _names(text: str):
    """The names of a comma-separated list, blanks dropped."""
    return tuple(n.strip() for n in text.split(",") if n.strip())


@_argtype
def _scenario_list(text: str) -> str:
    """argparse type of ``--scenarios``: the text as given (``submit``
    posts it so), refused when it names a scenario twice."""
    check_distinct(_names(text), f"scenario list {text!r}")
    return text


@_argtype
def _intensities(text: str):
    """argparse type of ``--intensities``: a comma-separated ladder,
    each rung held to :func:`check_intensity`."""
    try:
        values = tuple(float(part) for part in text.split(",")
                       if part.strip())
    except ValueError:
        raise ValueError(f"must be comma-separated numbers, "
                         f"got {text!r}") from None
    if not values:
        raise ValueError(f"must name at least one intensity, got {text!r}")
    for value in values:
        check_intensity(value, "")
    return values


def parse_size(text: str) -> int:
    """argparse type of ``store gc --max-bytes``: a finite byte budget
    >= 0, plain or K/M/G-suffixed ("512M")."""
    number = text.strip()
    multipliers = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    factor = 1
    if number and number[-1].upper() in multipliers:
        factor = multipliers[number[-1].upper()]
        number = number[:-1]
    try:
        value = float(number) * factor
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite size >= 0 in bytes or with a K/M/G "
            f"suffix (e.g. 512M), got {text!r}")
    return int(value)


def _days(text: str) -> float:
    """argparse type of ``store gc --keep-days``: a finite age >= 0, so
    a typo cannot empty the store."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number of days >= 0, got {text!r}")
    return value


#: Every flag that two or more subcommands share, declared once; its
#: type is the parameter's range check.  A default here is every
#: user's, others are stated by the subcommand (:func:`_add`).
#: ``--store [DIR]`` is an optional cache, ``--store DIR`` the store
#: a store action or the server works on.  Local, as they mean
#: something else: ``serve --capacity`` (queue slots) and
#: ``status --report`` (a switch).
FLAGS = {
    "--scenarios": dict(type=_scenario_list, default="",
                        help="comma-separated scenario names (see "
                        "list-scenarios)"),
    "--seeds": dict(type=_argtype(parse_seeds),
                    help="seed list: '1..8' or '1,2,5'"),
    "--iterations": dict(type=_COUNT,
                         help="determinism-test iterations (figs 1-4)"),
    "--samples": dict(type=_COUNT, help="latency samples (figs 5-7)"),
    "--seed": dict(type=_checked(check_seed), help="random seed"),
    "--workers": dict(type=_COUNT, default=1,
                      help="parallel worker processes"),
    "--json-dir": dict(default="", help="also write <scenario>.json "
                       "(bounds: <scenario>.bounds.json) files here"),
    "--json": dict(default="", help="write the JSON result here"),
    "--profile": dict(action="store_true", help="profile each run under "
                      "cProfile into <scenario>.pstats beside the JSON"),
    "--lockdep": dict(action="store_true", help="observe each run with "
                      "the lockdep invariant checker"),
    "--lockdep-strict": dict(action="store_true", help="as --lockdep, "
                             "but panic at the first violation"),
    "--lint": dict(action="store_true", help="run the determinism "
                   "linter over src first; findings fail the command"),
    "--trace": dict(action="store_true", help="trace each run and "
                    "report its latency attribution"),
    "--trace-out": dict(default="", help="write a Chrome trace-event "
                        "JSON here for ui.perfetto.dev (implies --trace; "
                        "several figures prefix their names)"),
    "--capacity": dict(type=_COUNT, default=65536,
                       help="per-CPU trace ring capacity (events)"),
    "--threshold-pct": dict(type=_checked(check_percentile, float),
                            default=99.0, help="attribute samples "
                            "at/above this latency percentile"),
    "--check-sums": dict(action="store_true", help="fail unless every "
                         "sample's attribution sums to its latency within "
                         "1%%; storm (traced by it) also needs fault-bucket "
                         "time and one fault_inject hit per injection"),
    "--fault-plan": dict(default="", help="run every scenario under "
                         "this fault plan (see 'faults list-faults')"),
    "--fault-intensity": dict(type=_checked(check_intensity, float),
                              help="scale the fault plan's intensity"),
    "--plan": dict(default="", help="fault plan (default: the "
                   "scenario's own; storm, margin and twin fall back to "
                   "storm-<scenario>)"),
    "--intensity": dict(type=_checked(check_intensity, float),
                        help="intensity multiplier on the plan baseline"),
    "--intensities": dict(type=_intensities,
                          help="comma-separated intensity ladder"),
    "--bound-us": dict(type=_checked(bound_ns_of, float),
                       help="latency bound the shielded config must "
                       "hold, in us; 1000 is the paper's sub-millisecond "
                       "claim"),
    "--unshielded": dict(action="store_true", help="strip the "
                         "scenario's shield components (same shield CPU)"),
    "--store [DIR]": dict(nargs="?", const="", metavar="DIR",
                          help="cache runs in the content-addressed "
                          f"result store (DIR: {DEFAULT_STORE_DIR}); hits "
                          f"load byte-identically instead of rerunning"),
    "--store DIR": dict(default=DEFAULT_STORE_DIR, metavar="DIR",
                        help="result store directory (serve keeps its "
                        "job journal there too)"),
    "--no-cache": dict(dest="use_cache", action="store_false",
                       help="recompute even on store hits, but still "
                       "persist the fresh results"),
    "--gate": dict(action="store_true", help="exit 1 unless the diff "
                   "is empty (bounds: unless every shielded latency "
                   "scenario is predicted within 1 ms)"),
    "--report": dict(default="", metavar="FILE",
                     help="also write the rendered report here"),
    "--top-spans": dict(type=int, default=5,
                        help="span changes to itemise per divergence"),
    "--server": dict(default=DEFAULT_SERVER, help="service address"),
}


def _add(parser, *names, required=False, metavar=None,
         **defaults) -> None:
    """Add the shared flags *names* (keys of :data:`FLAGS`) to *parser*.

    A keyword named after a flag's dest states this subcommand's
    default for it; *required* and *metavar* apply to every flag named.
    """
    for name in names:
        option = name.split()[0]
        kwargs = dict(FLAGS[name])
        dest = kwargs.get("dest", option[2:].replace("-", "_"))
        if dest in defaults:
            kwargs["default"] = defaults.pop(dest)
        if required:
            kwargs["required"] = True
        if metavar:
            kwargs["metavar"] = metavar
        shown = kwargs.get("default")
        if shown not in (None, "") and not isinstance(shown, bool):
            kwargs["help"] += " (default %(default)s)"
        parser.add_argument(option, **kwargs)
    if defaults:
        raise TypeError(f"no such flag among {names}: {sorted(defaults)}")


#: The flags, by dest, that name where a command writes: ``--json-dir``
#: a directory, the others a file.
OUTPUTS = {"json_dir": "--json-dir", "trace_out": "--trace-out",
           "json": "--json", "report": "--report", "out": "--out"}


class _Parser(argparse.ArgumentParser):
    """A subcommand's parser.  Once the arguments parse, every output
    flag's directory exists, before anything runs: a missing one is
    made, and a path that cannot be written exits 2 naming the flag."""

    def parse_args(self, args=None, namespace=None):
        parsed = super().parse_args(args, namespace)
        for dest, flag in OUTPUTS.items():
            path = getattr(parsed, dest, None)
            if isinstance(path, str) and path:  # status --report: a switch
                self._make_directory(flag, path)
        return parsed

    def _make_directory(self, flag: str, path: str) -> None:
        directory = path if flag == "--json-dir" else os.path.dirname(path)
        if directory != path and os.path.isdir(path):
            self.error(f"{flag} {path!r} is a directory, not a file")
        if not directory:
            return
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            where = "" if directory == path else f": {directory!r}"
            self.error(f"{flag} {path!r}{where} is not a directory and "
                       f"cannot be made one: {exc.strerror or exc}")


def _parser(path: str, description: str) -> argparse.ArgumentParser:
    return _Parser(prog=f"{PROG} {path}".rstrip(), description=description)


def _scenario(name: str, parser=None):
    """The registered scenario *name*; an unknown one exits 1 with the
    message, or 2 through *parser* when given."""
    try:
        return scenario(name)
    except UnknownScenarioError:
        message = f"unknown scenario {name!r} (use 'list-scenarios')"
        if parser is not None:
            parser.error(message)
        raise SystemExit(message) from None


def _store_arg(value):
    """Resolve a ``--store [DIR]`` argument: None, "" (default dir) or
    an explicit path."""
    return DEFAULT_STORE_DIR if value == "" else value


def _lockdep(args):
    """The LockdepConfig ``--lockdep`` / ``--lockdep-strict`` ask for."""
    if not (args.lockdep or args.lockdep_strict):
        return None
    from repro.analysis.lockdep import LockdepConfig

    return LockdepConfig(strict=args.lockdep_strict)


def _progress(message: str) -> None:
    """Campaign progress lines go to stderr: stdout carries the
    summary/JSON that byte-identity checks compare."""
    print(message, file=sys.stderr)


def _run_lint(paths=("src",)) -> int:
    """Run the determinism linter; returns the finding count."""
    from repro.analysis.lint import lint_paths

    findings = lint_paths(paths)
    for finding in findings:
        print(finding.render())
    print(f"lint: {len(findings)} finding"
          f"{'s' if len(findings) != 1 else ''}")
    return len(findings)


def _print_sum_check(check) -> bool:
    """Print a trace's attribution sum check; True when it holds."""
    if not check["ok"]:
        print(f"sum check FAILED: max relative error "
              f"{check['max_rel_err']:.4f} > 0.01")
        return False
    print(f"sum check ok over {check['samples']} samples")
    return True


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _cmd_run(argv, bare: bool = False) -> int:
    """``run <scenario>`` and the bare figure form (``fig6``, ``all``):
    one parser and one loop; each refuses an unknown name in its own
    words."""
    if bare:
        parser = _parser("", "Reproduce a figure from the "
                         "shielded-processors paper (see also the "
                         "campaign / list-scenarios / run subcommands).")
        parser.add_argument("name", metavar="figure",
                            help="fig1..fig7, or 'all'")
    else:
        parser = _parser("run", "Run one registered scenario by name.")
        parser.add_argument("name", metavar="scenario")
    _add(parser, "--iterations", "--samples", "--seed", "--json-dir",
         "--profile", "--lockdep", "--lockdep-strict", "--lint",
         "--trace", "--trace-out", iterations=15, samples=20_000, seed=1)
    args = parser.parse_args(argv)

    figures = [*DETERMINISM, *LATENCY]
    names = figures if bare and args.name == "all" else [args.name]
    try:
        specs = [scenario(name).configured(
            iterations=args.iterations, samples=args.samples,
            seed=args.seed) for name in names]
    except UnknownScenarioError:
        raise SystemExit(
            f"unknown figure {args.name!r}; choose from {figures} or "
            f"'all' (or use 'list-scenarios')" if bare else
            f"unknown scenario {args.name!r} (use 'list-scenarios')"
        ) from None
    failures = _run_lint() if args.lint else 0
    for spec in specs:
        trace_out = args.trace_out
        if trace_out and len(specs) > 1:
            head, tail = os.path.split(trace_out)
            trace_out = os.path.join(head, f"{spec.name}.{tail}")
        failures += _run_one(spec, args, trace_out)
    return 1 if failures else 0


def _run_one(spec, args, trace_out: str) -> int:
    """Run one configured scenario and print its paper-format report.

    Returns the number of lockdep violations observed (0 when lockdep
    is off), so callers can turn observations into exit codes.
    """
    from repro.experiments.export import scenario_to_dict, to_json

    t_config = None
    if args.trace or trace_out:
        t_config = TraceConfig(out=trace_out)
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    result = run_scenario(spec, lockdep=_lockdep(args), trace=t_config)
    if profiler is not None:
        profiler.disable()
    print(result.report())
    violations = 0
    if result.lockdep is not None:
        from repro.metrics.report import lockdep_violations_table

        violations = len(result.lockdep)
        print(f"lockdep: {violations} violation"
              f"{'s' if violations != 1 else ''}")
        if violations:
            print(lockdep_violations_table(result.lockdep))
    if result.trace is not None:
        from repro.metrics.report import trace_summary

        print(trace_summary(result.trace))
        if trace_out:
            print(f"(wrote {trace_out})")
    if args.json_dir:
        path = os.path.join(args.json_dir, f"{spec.name}.json")
        to_json(scenario_to_dict(result), path=path)
        print(f"(wrote {path})")
    if profiler is not None:
        # The .pstats lands next to the exported JSON (or in the
        # current directory when no --json-dir was given); inspect it
        # with `python -m pstats <file>` or snakeviz.
        stats_path = os.path.join(args.json_dir or ".",
                                  f"{spec.name}.pstats")
        profiler.dump_stats(stats_path)
        print(f"(wrote {stats_path})")
        if result.trace is not None:
            from repro.metrics.report import tracepoint_hits_table

            print("top tracepoints:")
            print(tracepoint_hits_table(result.trace["hits"]))
    print()
    return violations


def _cmd_list_scenarios(argv) -> int:
    parser = _parser("list-scenarios", "List the registered scenarios.")
    parser.add_argument("--group", default=None,
                        help="only this group (figures, a1..a6, fbs)")
    args = parser.parse_args(argv)

    rows = [s for s in all_scenarios()
            if args.group is None or s.group == args.group]
    if not rows:
        print(f"no scenarios in group {args.group!r}")
        return 1
    width = max(len(s.name) for s in rows)
    for s in rows:
        extra = s.description or s.title
        print(f"{s.name:<{width}}  [{s.group or '-'}]  "
              f"{s.kernel}  {extra}")
    return 0


def _cmd_campaign(argv) -> int:
    from repro.experiments.campaign import run_campaign
    from repro.experiments.export import campaign_to_dict, to_json

    parser = _parser("campaign", "Run a scenario x seed matrix, "
                     "optionally in parallel worker processes.")
    _add(parser, "--scenarios", required=True)
    _add(parser, "--seeds", "--workers", "--samples", "--iterations",
         "--json", "--trace", "--fault-plan", "--fault-intensity",
         "--store [DIR]", "--no-cache", seeds="1")
    parser.add_argument("--resume", action="store_true",
                        help="with --store: trust the campaign journal "
                             "from an interrupted run; completed jobs "
                             "are loaded even under --no-cache")
    parser.add_argument("--merged-only", action="store_true",
                        help="drop per-run results after merging "
                             "(memory stays O(per-scenario); the JSON "
                             "export then carries merges only)")
    args = parser.parse_args(argv)

    names = _names(args.scenarios)
    store = _store_arg(args.store)
    if store is None and (not args.use_cache or args.resume):
        parser.error("--no-cache/--resume need --store")
    try:
        result = run_campaign(names, seeds=args.seeds,
                              workers=args.workers, samples=args.samples,
                              iterations=args.iterations,
                              trace=args.trace,
                              fault_plan=args.fault_plan,
                              fault_intensity=args.fault_intensity,
                              store=store,
                              use_cache=args.use_cache,
                              resume=args.resume,
                              progress=_progress,
                              retain_runs=not args.merged_only)
    except (UnknownScenarioError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")
    except KeyboardInterrupt:
        if store is not None:
            raise SystemExit(
                "interrupted: completed jobs are journaled -- rerun "
                "with --resume to continue where this run stopped")
        raise SystemExit("interrupted (no --store: progress not kept)")
    print(result.summary())
    if args.json:
        to_json(campaign_to_dict(result), path=args.json)
        print(f"(wrote {args.json})")
    return 0


def _cmd_trace(argv) -> int:
    parser = _parser("trace", "Run one scenario with typed tracing "
                     "enabled and print the observability report "
                     "(per-CPU accounting, tracepoint hits, latency "
                     "attribution).")
    parser.add_argument("scenario")
    _add(parser, "--iterations", "--samples", "--seed", "--capacity",
         "--threshold-pct", iterations=15, samples=20_000, seed=1)
    parser.add_argument("--top", type=int, default=10,
                        help="worst samples to itemise (default 10)")
    _add(parser, "--trace-out", "--check-sums")
    parser.add_argument("--summary-table", action="store_true",
                        help="also render the attribution bucket "
                             "breakdown as an aligned text table (the "
                             "same renderer the diff report uses)")
    args = parser.parse_args(argv)

    from repro.metrics.report import attribution_bucket_table, trace_summary

    spec = _scenario(args.scenario).configured(
        iterations=args.iterations, samples=args.samples, seed=args.seed)
    t_config = TraceConfig(capacity=args.capacity,
                           threshold_pct=args.threshold_pct,
                           top=args.top, out=args.trace_out)
    result = run_scenario(spec, trace=t_config)
    print(result.report())
    print()
    print(trace_summary(result.trace, top=args.top))
    if args.summary_table:
        print()
        print(attribution_bucket_table(
            {"total": result.trace["attribution"]["aggregate"]}))
    if args.trace_out:
        print(f"(wrote {args.trace_out})")
    if args.check_sums and not _print_sum_check(
            result.trace["attribution"]["sum_check"]):
        return 1
    return 0


def _cmd_list_faults(argv) -> int:
    parser = _parser("faults list-faults", "List the registered fault "
                     "plans and their injector compositions.")
    parser.parse_args(argv)

    from repro.faults import all_fault_plans

    plans = all_fault_plans()
    width = max(len(p.name) for p in plans)
    for plan in plans:
        kinds = ", ".join(plan.kinds())
        print(f"{plan.name:<{width}}  x{plan.intensity:g}  [{kinds}]")
        print(f"{'':<{width}}  {plan.description or plan.title}")
    return 0


def _resolve_storm(parser, scenario_name: str, plan_name: str):
    """(spec, plan): default the plan from the scenario name."""
    from repro.faults import UnknownFaultPlanError, fault_plan
    from repro.faults.twindiff import resolve_plan_name

    spec = _scenario(scenario_name, parser)
    try:
        return spec, fault_plan(resolve_plan_name(spec, scenario_name,
                                                  plan_name))
    except UnknownFaultPlanError as exc:
        parser.error(str(exc))


def _cmd_storm(argv) -> int:
    parser = _parser("faults storm", "Run one scenario under a fault "
                     "plan and report what the interference did to it.")
    parser.add_argument("scenario",
                        help="scenario name (fig6, storm-fig6, ...)")
    _add(parser, "--plan", "--intensity", "--samples", "--iterations",
         "--seed", "--unshielded", "--lockdep", "--lockdep-strict",
         "--trace", "--threshold-pct", "--check-sums", "--json",
         intensity=1.0, samples=20_000, iterations=15, seed=1)
    args = parser.parse_args(argv)

    spec, plan = _resolve_storm(parser, args.scenario, args.plan)
    spec = spec.configured(samples=args.samples,
                           iterations=args.iterations, seed=args.seed,
                           fault_plan=plan.name,
                           fault_intensity=args.intensity)
    if args.unshielded:
        spec = spec.unshielded()
    t_config = None
    if args.trace or args.check_sums:
        t_config = TraceConfig(threshold_pct=args.threshold_pct)

    result = run_scenario(spec, lockdep=_lockdep(args), trace=t_config)
    print(result.report())
    faults = result.faults or {}
    print(f"faults: plan={plan.name} x{args.intensity:g} "
          f"injections={faults.get('injections', 0)} "
          f"digest={faults.get('digest', 0):#010x} "
          f"lockdep_composed={faults.get('lockdep_composed', False)}")
    for key, count in sorted(faults.get("by_injector", {}).items()):
        print(f"  {key}: {count}")
    if result.lockdep is not None:
        print(f"lockdep: {len(result.lockdep)} violation"
              f"{'s' if len(result.lockdep) != 1 else ''}")
    failures = 0
    if result.trace is not None:
        from repro.metrics.report import trace_summary

        print()
        print(trace_summary(result.trace))
        if args.check_sums:
            att = result.trace["attribution"]
            if not _print_sum_check(att["sum_check"]):
                failures += 1
            fault_ns = att.get("aggregate", {}).get("fault", 0)
            if fault_ns <= 0:
                print("fault attribution FAILED: no latency blamed on "
                      "the fault bucket (is the storm reaching the "
                      "measurement CPU? try --unshielded)")
                failures += 1
            else:
                print(f"fault bucket: {fault_ns / 1e3:.1f}us attributed")
            hits = result.trace["hits"].get("fault_inject", 0)
            injections = faults.get("injections", 0)
            verdict = "ok" if hits == injections else "FAILED"
            print(f"fault tracepoint {verdict}: {hits} fault_inject "
                  f"hits, {injections} injections")
            if hits != injections:
                failures += 1
    if args.json:
        from repro.experiments.export import scenario_to_dict, to_json

        to_json(scenario_to_dict(result), path=args.json)
        print(f"(wrote {args.json})")
    return 1 if failures else 0


def _cmd_margin(argv) -> int:
    parser = _parser("faults margin", "Sweep a fault plan's intensity "
                     "over shielded and unshielded twins of a scenario "
                     "and report the shield margin (max intensity within "
                     "the bound).")
    parser.add_argument("scenario",
                        help="scenario name (fig6, storm-fig6, ...)")
    _add(parser, "--plan", "--intensities", "--bound-us", "--samples",
         "--seed", "--workers", "--store [DIR]", "--no-cache", "--json",
         intensities="0.25,0.5,1,2,4", bound_us=1000.0, samples=6_000,
         seed=1)
    parser.add_argument("--bounds", action="store_true",
                        help="annotate each rung with the simbound "
                             "static prediction (the analytic twin of "
                             "the measured ladder) and flag rungs "
                             "whose observed max exceeds it")
    args = parser.parse_args(argv)

    from repro.faults import MarginSpec, run_margin

    spec, plan = _resolve_storm(parser, args.scenario, args.plan)
    try:
        margin_spec = MarginSpec(
            scenario=spec.name, plan=plan.name,
            intensities=args.intensities,
            bound_ns=bound_ns_of(args.bound_us, "--bound-us"),
            samples=args.samples, seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    result = run_margin(margin_spec, workers=args.workers,
                        store=_store_arg(args.store),
                        use_cache=args.use_cache)
    if args.bounds:
        from repro.faults.margin import predicted_ladder

        result.attach_predictions(predicted_ladder(margin_spec))
    print(result.summary())
    if args.json:
        from repro.experiments.export import to_json

        to_json(result.to_dict(), path=args.json)
        print(f"(wrote {args.json})")
    return 0


def _load_recording(parser, path: str):
    from repro.observe.diff import RecordingError, TraceRecording

    try:
        return TraceRecording.load(path)
    except RecordingError as exc:
        parser.error(str(exc))


def _diff_output_args(parser) -> None:
    _add(parser, "--report")
    _add(parser, "--json", metavar="FILE")
    _add(parser, "--top-spans")


def _emit_diff(args, text: str, to_dict) -> None:
    """Shared diff output: *text* to stdout and ``--report``, the
    JSON of ``to_dict()`` to ``--json``."""
    print(text)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text)
            fh.write("\n")
        _progress(f"(wrote {args.report})")
    if args.json:
        from repro.experiments.export import to_json

        to_json(to_dict(), path=args.json)
        _progress(f"(wrote {args.json})")


def _cmd_diff_record(argv) -> int:
    parser = _parser("diff record", "Run one scenario traced and persist "
                     "the trace recording as an RTRACE1 entry (standalone "
                     "file and/or the content-addressed store).")
    parser.add_argument("scenario")
    _add(parser, "--samples", "--iterations", "--seed", "--capacity",
         "--plan", "--intensity", "--unshielded")
    parser.add_argument("--out", default="", metavar="FILE",
                        help="write the recording to this file")
    _add(parser, "--store [DIR]")
    args = parser.parse_args(argv)

    from repro.observe.diff import record_scenario

    if not args.out and args.store is None:
        parser.error("nothing to persist: give --out FILE and/or "
                     "--store [DIR]")
    spec = _scenario(args.scenario, parser).configured(
        samples=args.samples, iterations=args.iterations, seed=args.seed,
        fault_plan=args.plan or None, fault_intensity=args.intensity)
    if args.unshielded:
        if not spec.shield.any_component:
            parser.error(f"scenario {args.scenario!r} already runs "
                         f"unshielded")
        spec = spec.unshielded()

    _progress(f"diff: recording {spec.name} ...")
    rec, _result = record_scenario(spec, capacity=args.capacity)
    print(f"recorded {rec.describe()}")
    print(f"  events={len(rec.events)} dropped={rec.dropped} "
          f"max={rec.max_latency_ns() / 1e3:.1f} us")
    if args.out:
        rec.save(args.out)
        print(f"(wrote {args.out})")
    if args.store is not None:
        from repro.store import recording_key

        store = ResultStore(_store_arg(args.store))
        key = recording_key(spec, args.capacity, code=rec.code)
        store.put_recording(key, rec.to_body(), code=rec.code)
        print(f"(stored {key[:16]}... in {store.root})")
    return 0


def _cmd_diff_against(argv) -> int:
    parser = _parser("diff against", "Re-record a baseline recording's "
                     "run under the current code tree and diff current "
                     "against baseline (the semantic-golden check, for "
                     "one file).")
    parser.add_argument("baseline", help="baseline .rtrace file")
    _add(parser, "--gate")
    _diff_output_args(parser)
    args = parser.parse_args(argv)

    from repro.observe.diff import diff_recordings, rerecord

    baseline = _load_recording(parser, args.baseline)
    _progress(f"diff: re-recording {baseline.describe()} ...")
    fresh = rerecord(baseline)
    diff = diff_recordings(baseline, fresh,
                           a_label="baseline", b_label="current")
    _emit_diff(args, diff.render(top_spans=args.top_spans), diff.to_dict)
    if args.gate and not diff.identical:
        print("gate: diff is not empty", file=sys.stderr)
        return 1
    return 0


def _cmd_diff_compare(argv) -> int:
    parser = _parser("diff compare", "Diff two saved recordings of the "
                     "same scenario/seed (e.g. recorded under two code "
                     "trees or configs).")
    parser.add_argument("a", help="recording A (.rtrace file)")
    parser.add_argument("b", help="recording B (.rtrace file)")
    _add(parser, "--gate")
    _diff_output_args(parser)
    args = parser.parse_args(argv)

    from repro.observe.diff import TraceDiffError, diff_recordings

    rec_a = _load_recording(parser, args.a)
    rec_b = _load_recording(parser, args.b)
    label_a = os.path.splitext(os.path.basename(args.a))[0] or "A"
    label_b = os.path.splitext(os.path.basename(args.b))[0] or "B"
    if label_a == label_b:
        label_a, label_b = f"A:{label_a}", f"B:{label_b}"
    try:
        diff = diff_recordings(rec_a, rec_b,
                               a_label=label_a, b_label=label_b)
    except TraceDiffError as exc:
        parser.error(str(exc))
    _emit_diff(args, diff.render(top_spans=args.top_spans), diff.to_dict)
    if args.gate and not diff.identical:
        print("gate: diff is not empty", file=sys.stderr)
        return 1
    return 0


def _cmd_diff_twin(argv) -> int:
    parser = _parser("diff twin", "Record both twins of one storm "
                     "scenario (shielded and unshielded, same workload "
                     "and interference) and report exactly where the "
                     "unshielded run's extra response time went.")
    parser.add_argument("scenario",
                        help="shielded scenario name (fig6, "
                             "storm-fig6, ...)")
    _add(parser, "--plan", "--intensity", "--samples", "--iterations",
         "--seed", "--capacity", intensity=1.0)
    parser.add_argument("--expect-buckets", default="",
                        metavar="B1,B2,...",
                        help="fail unless each listed mechanism is "
                             "among the diff's named mechanisms "
                             "(divergent attribution buckets plus "
                             "accounting-drift mechanisms)")
    _diff_output_args(parser)
    args = parser.parse_args(argv)

    from repro.faults import (TwinDiffSpec, UnknownFaultPlanError,
                              run_twin_diff)

    twin = TwinDiffSpec(scenario=args.scenario, plan=args.plan,
                        intensity=args.intensity,
                        samples=args.samples,
                        iterations=args.iterations, seed=args.seed,
                        capacity=args.capacity)
    _progress(f"diff: recording {args.scenario} twins ...")
    try:
        result = run_twin_diff(twin)
    except (UnknownScenarioError, UnknownFaultPlanError,
            ValueError) as exc:
        parser.error(str(exc))
    _emit_diff(args, result.summary(top_spans=args.top_spans),
               result.to_dict)
    if not result.shielded_within_bound:
        print("twin: shielded run EXCEEDS the paper bound",
              file=sys.stderr)
        return 1
    expected = [b.strip() for b in args.expect_buckets.split(",")
                if b.strip()]
    if expected:
        named = result.diff.named_mechanisms()
        missing = [b for b in expected if b not in named]
        if missing:
            print(f"expect-buckets: missing {', '.join(missing)} "
                  f"(named: {', '.join(named) or 'none'})",
                  file=sys.stderr)
            return 1
        print(f"expect-buckets ok: {', '.join(expected)} all named "
              f"(full set: {', '.join(named)})")
    return 0


def _cmd_diff_golden(argv) -> int:
    parser = _parser("diff golden", "Semantic goldens: re-record the "
                     "committed baseline recordings and diff; an "
                     "intentional change fails with a mechanism-level "
                     "report instead of a CRC mismatch.")
    parser.add_argument("names", nargs="*",
                        help="golden names (default: all)")
    parser.add_argument("--record", action="store_true",
                        help="(re-)record the baselines instead of "
                             "checking them")
    parser.add_argument("--dir", default="", metavar="DIR",
                        help="goldens directory (default: the "
                             "committed goldens/recordings)")
    _add(parser, "--top-spans")
    args = parser.parse_args(argv)

    from repro.observe.diff import (GOLDEN_SPECS, RecordingError,
                                    check_golden, golden_names,
                                    golden_path, record_golden)

    names = args.names or golden_names()
    unknown = [n for n in names if n not in GOLDEN_SPECS]
    if unknown:
        parser.error(f"unknown golden(s): {', '.join(unknown)} "
                     f"(have: {', '.join(golden_names())})")
    if args.record:
        target = args.dir or os.path.dirname(golden_path(names[0]))
        os.makedirs(target, exist_ok=True)
        for name in names:
            _progress(f"golden: recording {name} ...")
            path = record_golden(name).save(golden_path(name, args.dir))
            print(f"recorded {name} -> {path}")
        return 0
    failures = 0
    for name in names:
        _progress(f"golden: checking {name} ...")
        try:
            diff = check_golden(name, args.dir)
        except RecordingError as exc:
            print(f"golden {name}: ERROR {exc}")
            failures += 1
            continue
        if diff.identical:
            print(f"golden {name}: ok ({diff.paired} samples, "
                  f"{diff.a['events']} events)")
        else:
            failures += 1
            print(f"golden {name}: DIVERGED")
            print(diff.render(top_spans=args.top_spans))
    if failures:
        print(f"golden: {failures} failure(s)", file=sys.stderr)
    return 1 if failures else 0


def _cmd_store_ls(argv) -> int:
    parser = _parser("store ls", "List the store's entries (scenario, "
                     "seed, size).")
    _add(parser, "--store DIR")
    parser.add_argument("--kind", default="",
                        choices=("", "result", "stalled", "rtrace"),
                        help="only list entries of this kind")
    args = parser.parse_args(argv)

    store = ResultStore(args.store)
    count = 0
    total = 0
    for key, meta, size in store.ls(kind=args.kind or None):
        count += 1
        total += size
        if not meta:
            print(f"{key[:16]}  CORRUPT  {size:>10} B")
            continue
        if meta.get("entry_kind") == "rtrace":
            detail = f"rtrace       n={meta.get('samples_target', 0)}"
        elif meta.get("stalled"):
            detail = f"stalled: {meta.get('error', '')[:40]}"
        else:
            detail = (f"{meta.get('kind', '?'):<12} "
                      f"n={meta.get('count', 0)}")
        print(f"{key[:16]}  {meta.get('scenario', '?'):<16} "
              f"seed={meta.get('seed', '?'):<6} {detail}  "
              f"{size:>10} B")
    print(f"{count} entries, {total / 1e6:.2f} MB in {store.root}")
    return 0


def _cmd_store_verify(argv) -> int:
    parser = _parser("store verify", "Fully decode every entry and flag "
                     "corruption.")
    _add(parser, "--store DIR")
    parser.add_argument("--delete", action="store_true",
                        help="remove corrupt entries so the next "
                             "run recomputes them")
    args = parser.parse_args(argv)

    ok, corrupt = ResultStore(args.store).verify(delete=args.delete)
    for key in corrupt:
        print(f"corrupt: {key}{'  (deleted)' if args.delete else ''}")
    print(f"verify: {ok} ok, {len(corrupt)} corrupt")
    return 1 if corrupt and not args.delete else 0


def _cmd_store_gc(argv) -> int:
    parser = _parser("store gc", "Drop entries no current key can hit "
                     "(other code versions), optionally also entries "
                     "older than --keep-days, then evict "
                     "least-recently-used entries until the store fits "
                     "--max-bytes.")
    _add(parser, "--store DIR")
    parser.add_argument("--keep-days", type=_days, default=None,
                        help="also drop entries older than this "
                             "many days")
    parser.add_argument("--max-bytes", type=parse_size, default=None,
                        metavar="N",
                        help="evict least-recently-used entries "
                             "until the store fits this budget "
                             "(suffixes K/M/G accepted, e.g. 512M)")
    parser.add_argument("--dry-run", action="store_true",
                        help="report what would be removed")
    args = parser.parse_args(argv)

    now_s = None
    max_age_s = None
    if args.keep_days is not None:
        import time  # lint: ok(wall-clock)  (CLI maintenance only)

        now_s = time.time()
        max_age_s = args.keep_days * 86_400.0
    report = ResultStore(args.store).gc(
        max_age_s=max_age_s, now_s=now_s, max_bytes=args.max_bytes,
        dry_run=args.dry_run)
    n = len(report.removed)
    verb = "would remove" if args.dry_run else "removed"
    kinds = ", ".join(f"{kind}={count}"
                      for kind, count in sorted(report.by_kind.items()))
    print(f"gc: {verb} {n} entr{'y' if n == 1 else 'ies'}"
          f" ({kinds or 'none'}), "
          f"{report.reclaimed_bytes / 1e6:.2f} MB"
          f"{' reclaimable' if args.dry_run else ' reclaimed'}")
    if report.tmp_swept:
        print(f"gc: swept {report.tmp_swept} stale tmp file"
              f"{'' if report.tmp_swept == 1 else 's'}")
    return 0


def _cmd_serve(argv) -> int:
    """Run the simserve campaign service in the foreground."""
    from repro.service.http import serve

    parser = _parser("serve", "Serve campaign / margin / twin-diff jobs "
                     "over HTTP, deduped against the result store. "
                     "SIGTERM/Ctrl-C drains gracefully: in-flight "
                     "chunks land, interrupted jobs re-queue in the "
                     "journal and resume on restart.")
    _add(parser, "--store DIR")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8642,
                        help="listen port (default 8642; 0 for "
                             "ephemeral)")
    _add(parser, "--workers", workers=2)
    parser.add_argument("--capacity", type=_COUNT, default=64,
                        help="max live (queued+running) jobs before "
                             "submissions get 429")
    parser.add_argument("--parallel-jobs", type=_COUNT, default=2,
                        help="jobs executed concurrently")
    args = parser.parse_args(argv)

    import asyncio

    try:
        # Each line flushed: with --port 0 the announce line is the
        # only place the address appears, stdout a pipe or not.
        return asyncio.run(serve(
            args.store, host=args.host, port=args.port,
            workers=args.workers, capacity=args.capacity,
            parallel_jobs=args.parallel_jobs,
            announce=lambda line: print(line, flush=True)))
    except KeyboardInterrupt:  # pragma: no cover - signal race
        print(f"interrupted; resume with: python -m repro.experiments "
              f"serve --store {args.store}")
        return 0


def _cmd_submit(argv) -> int:
    """Submit one job to a running simserve and optionally wait."""
    from repro.service.client import ServiceClient, ServiceError
    from repro.service.jobs import JOB_KINDS, JobSpec

    parser = _parser("submit", "Submit a campaign/figure/margin/"
                     "twin-diff job to a running `serve` instance. "
                     "Identical specs dedupe onto one job; a fully "
                     "cached job completes without spawning a worker.")
    parser.add_argument("kind", choices=JOB_KINDS)
    _add(parser, "--server", "--scenarios", "--seeds")
    parser.add_argument("--scenario", default="",
                        help="figure/margin/twin-diff: scenario name")
    _add(parser, "--seed", "--samples", "--iterations", "--fault-plan",
         "--fault-intensity", "--plan", "--intensities", "--bound-us",
         "--intensity")
    parser.add_argument("--priority", type=_checked(check_int),
                        help="higher runs first (default 0)")
    parser.add_argument("--max-workers",
                        type=_checked(lambda v, n: check_int(v, n, 0)),
                        help="cap this job's worker share (0: no cap)")
    _add(parser, "--no-cache")
    parser.add_argument("--wait", action="store_true",
                        help="block until the job finishes and print "
                             "its report")
    _add(parser, "--json")
    args = parser.parse_args(argv)

    # The job spec: every JobSpec field whose flag was set.
    job_fields = {f.name for f in fields(JobSpec)}
    spec = {name: value for name, value in vars(args).items()
            if name in job_fields and value != parser.get_default(name)}
    client = ServiceClient(args.server)
    try:
        status = client.submit(spec)
        job_id = status["id"]
        created = "submitted" if status.get("created") else "deduped"
        print(f"{created}: job {job_id} [{status['state']}] "
              f"priority={status['priority']}")
        if not args.wait:
            print(f"follow with: python -m repro.experiments status "
                  f"{job_id} --server {args.server}")
            return 0
        status = client.wait(job_id)
        if status["state"] != "done":
            print(f"job {job_id} {status['state']}: "
                  f"{status.get('error', '')}", file=sys.stderr)
            return 1
        print(client.report(job_id))
        if args.json:
            with open(args.json, "wb") as fh:
                fh.write(client.artifact(job_id))
            print(f"wrote {args.json}")
        return 0
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConnectionError:
        print(f"error: no simserve at {args.server} (start one with: "
              f"python -m repro.experiments serve)", file=sys.stderr)
        return 1


def _cmd_status(argv) -> int:
    """Poll a running simserve: one job, all jobs, or health."""
    from repro.service.client import ServiceClient, ServiceError

    parser = _parser("status", "Show job status from a running `serve` "
                     "instance (all jobs when no id is given).")
    parser.add_argument("job_id", nargs="?", default="")
    _add(parser, "--server")
    parser.add_argument("--stream", action="store_true",
                        help="follow one job's status until it "
                             "finishes")
    parser.add_argument("--report", action="store_true",
                        help="print the finished job's report")
    _add(parser, "--json")
    parser.add_argument("--health", action="store_true",
                        help="print queue/store/pool health instead")
    args = parser.parse_args(argv)

    client = ServiceClient(args.server)
    try:
        if args.health:
            print(json.dumps(client.health(), indent=2,
                             sort_keys=True))
            return 0
        if not args.job_id:
            jobs = client.jobs()
            if not jobs:
                print("no jobs")
                return 0
            for status in jobs:
                line = (f"{status['id']}  {status['kind']:<9} "
                        f"{status['state']:<9} "
                        f"{status['cells_done']}/"
                        f"{status['cells_total']} cells "
                        f"({status['cache_hits']} cached)")
                if status.get("error"):
                    line += f"  {status['error'].splitlines()[-1]}"
                print(line)
            return 0
        if args.stream:
            status = None
            for status in client.stream(args.job_id):
                print(f"{status['state']:<9} "
                      f"{status['cells_done']}/"
                      f"{status['cells_total']} cells")
            if status is None or status["state"] != "done":
                return 1
        status = client.status(args.job_id)
        print(json.dumps(status, indent=2, sort_keys=True))
        if args.report and status["state"] == "done":
            print(client.report(args.job_id))
        if args.json:
            if status["state"] != "done":
                print(f"job is {status['state']}; no artifact yet",
                      file=sys.stderr)
                return 1
            with open(args.json, "wb") as fh:
                fh.write(client.artifact(args.job_id))
            print(f"wrote {args.json}")
        return 0
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConnectionError:
        print(f"error: no simserve at {args.server}", file=sys.stderr)
        return 1


def _cmd_bounds(argv) -> int:
    parser = _parser("bounds", "simbound: emit static worst-case window "
                     "certificates per scenario, optionally cross-check "
                     "observed accounting maxima against them, and gate "
                     "shielded scenarios on predicted response <= 1 ms.")
    parser.add_argument("scenarios", nargs="*",
                        help="scenario names (default: every registered "
                             "scenario, storm plans included)")
    _add(parser, "--json-dir")
    parser.add_argument("--check", action="store_true",
                        help="run each scenario and assert observed "
                             "accounting maxima <= static bounds")
    _add(parser, "--samples", "--iterations", "--gate", samples=2_000,
         iterations=6)
    args = parser.parse_args(argv)

    from repro.analysis.bounds import (BoundModelError,
                                       certificate_for,
                                       crosscheck_scenario)
    from repro.experiments.scenario import scenario_names

    names = list(args.scenarios) or list(scenario_names())
    failures = 0
    for name in names:
        spec = _scenario(name, parser)
        try:
            cert = certificate_for(spec)
        except BoundModelError as exc:
            print(f"{name:<22s} MODEL ERROR: {exc}")
            failures += 1
            continue
        line = cert.summary_line()
        if args.gate and cert.gate_passed is False:
            failures += 1
        if args.json_dir:
            path = os.path.join(args.json_dir, f"{name}.bounds.json")
            with open(path, "w") as fh:
                fh.write(cert.to_json())
                fh.write("\n")
        if args.check:
            _progress(f"bounds: cross-checking {name} ...")
            report = crosscheck_scenario(
                spec, samples=args.samples,
                iterations=args.iterations, bounds=cert.bounds)
            if report.passed:
                line += f"  check=OK({len(report.checks)})"
            else:
                failures += 1
                line += "  check=VIOLATED"
                print(line)
                for violation in report.violations:
                    print("  " + violation.describe())
                continue
        print(line)
    if failures:
        print(f"bounds: {failures} failure(s)", file=sys.stderr)
    return 1 if failures else 0


def _group(name: str, actions: dict):
    """A subcommand group: run the action its first word names, or
    print the group's usage line and exit 2."""
    def dispatch(argv) -> int:
        if not argv or argv[0] not in actions:
            print(f"usage: {PROG} {name} {{{'|'.join(actions)}}} ...",
                  file=sys.stderr)
            return 2
        return actions[argv[0]](argv[1:])
    return dispatch


COMMANDS = {
    "bounds": _cmd_bounds,
    "campaign": _cmd_campaign,
    "diff": _group("diff", {"record": _cmd_diff_record,
                            "against": _cmd_diff_against,
                            "compare": _cmd_diff_compare,
                            "twin": _cmd_diff_twin,
                            "golden": _cmd_diff_golden}),
    "faults": _group("faults", {"list-faults": _cmd_list_faults,
                                "storm": _cmd_storm,
                                "margin": _cmd_margin}),
    "list-scenarios": _cmd_list_scenarios,
    "run": _cmd_run,
    "serve": _cmd_serve,
    "status": _cmd_status,
    "store": _group("store", {"ls": _cmd_store_ls,
                              "verify": _cmd_store_verify,
                              "gc": _cmd_store_gc}),
    "submit": _cmd_submit,
    "trace": _cmd_trace,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in COMMANDS:
        return COMMANDS[argv[0]](argv[1:])
    return _cmd_run(argv, bare=True)


if __name__ == "__main__":
    sys.exit(main())
