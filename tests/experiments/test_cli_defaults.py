"""Every subcommand's defaults and parsers, pinned at the library call.

Each case runs one subcommand with only its required arguments and
replaces the library function it ends in with a recorder that keeps
the arguments and stops the command.  So a changed default, a dropped
flag or a swapped callee fails here in milliseconds, before any
simulation would have run.
"""

import importlib
import sys

import pytest

from repro.experiments.__main__ import main
from repro.experiments.scenario import scenario
from repro.service.jobs import JobSpec

PROG = "python -m repro.experiments"


class Called(Exception):
    """Raised by a recorder once it has kept its call."""


def stub(monkeypatch, module_name, attr, calls):
    """Replace *attr* of *module_name* with a recorder, in every loaded
    ``repro`` module that binds the same object (package re-exports and
    ``from ... import`` copies included)."""
    module = importlib.import_module(module_name)
    original = getattr(module, attr)

    def recorder(*args, **kwargs):
        calls.append((args, kwargs))
        raise Called(attr)

    for name, mod in list(sys.modules.items()):
        if (name.split(".")[0] == "repro"
                and getattr(mod, attr, None) is original):
            monkeypatch.setattr(mod, attr, recorder)


def stub_method(monkeypatch, module_name, cls_name, method, calls):
    cls = getattr(importlib.import_module(module_name), cls_name)

    def recorder(self, *args, **kwargs):
        calls.append((self, args, kwargs))
        raise Called(method)

    monkeypatch.setattr(cls, method, recorder)


def run_stopped(argv):
    with pytest.raises(Called):
        main(argv)


@pytest.fixture
def calls():
    return []


@pytest.fixture(autouse=True)
def _in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


class TestScenarioRuns:
    @pytest.mark.parametrize("argv, name", [
        (["fig6"], "fig6"),
        (["run", "fig6"], "fig6"),
        (["run", "fig2"], "fig2"),
    ], ids=["bare", "run", "run-determinism"])
    def test_figure_and_run(self, argv, name, calls, monkeypatch):
        stub(monkeypatch, "repro.experiments.scenario", "run_scenario",
             calls)
        run_stopped(argv)
        (args, kwargs), = calls
        assert args == (scenario(name).configured(
            iterations=15, samples=20_000, seed=1),)
        assert kwargs == {"lockdep": None, "trace": None}

    def test_trace(self, calls, monkeypatch):
        from repro.observe.tracer import TraceConfig

        stub(monkeypatch, "repro.experiments.scenario", "run_scenario",
             calls)
        run_stopped(["trace", "fig6"])
        (args, kwargs), = calls
        assert args == (scenario("fig6").configured(
            iterations=15, samples=20_000, seed=1),)
        assert kwargs == {"trace": TraceConfig(
            capacity=65536, threshold_pct=99.0, top=10)}

    def test_faults_storm(self, calls, monkeypatch):
        stub(monkeypatch, "repro.experiments.scenario", "run_scenario",
             calls)
        run_stopped(["faults", "storm", "fig6"])
        (args, kwargs), = calls
        assert args == (scenario("fig6").configured(
            samples=20_000, iterations=15, seed=1,
            fault_plan="storm-fig6", fault_intensity=1.0),)
        assert kwargs == {"lockdep": None, "trace": None}


class TestSweeps:
    def test_campaign(self, calls, monkeypatch):
        stub(monkeypatch, "repro.experiments.campaign", "run_campaign",
             calls)
        run_stopped(["campaign", "--scenarios", "fig7"])
        (args, kwargs), = calls
        assert args == (("fig7",),)
        progress = kwargs.pop("progress")
        assert callable(progress)
        assert kwargs == {
            "seeds": (1,), "workers": 1, "samples": None,
            "iterations": None, "trace": False, "fault_plan": "",
            "fault_intensity": None, "store": None, "use_cache": True,
            "resume": False, "retain_runs": True}

    def test_faults_margin(self, calls, monkeypatch):
        from repro.faults import MarginSpec

        stub(monkeypatch, "repro.faults.margin", "run_margin", calls)
        run_stopped(["faults", "margin", "fig6"])
        (args, kwargs), = calls
        assert args == (MarginSpec(
            scenario="fig6", plan="storm-fig6",
            intensities=(0.25, 0.5, 1.0, 2.0, 4.0),
            bound_ns=1_000_000, samples=6000, seed=1),)
        assert kwargs == {"workers": 1, "store": None, "use_cache": True}

    def test_bounds_check(self, calls, monkeypatch):
        stub(monkeypatch, "repro.analysis.bounds.crosscheck",
             "crosscheck_scenario", calls)
        run_stopped(["bounds", "--check", "fig7"])
        (args, kwargs), = calls
        assert args == (scenario("fig7"),)
        assert kwargs.pop("bounds") is not None
        assert kwargs == {"samples": 2000, "iterations": 6}


class TestDiff:
    def test_twin(self, calls, monkeypatch):
        from repro.faults import TwinDiffSpec

        stub(monkeypatch, "repro.faults.twindiff", "run_twin_diff", calls)
        run_stopped(["diff", "twin", "storm-fig6"])
        (args, kwargs), = calls
        assert args == (TwinDiffSpec(
            scenario="storm-fig6", plan="", intensity=1.0, samples=None,
            iterations=None, seed=None, capacity=65536),)
        assert kwargs == {}

    def test_record(self, calls, monkeypatch):
        stub(monkeypatch, "repro.observe.diff.recording",
             "record_scenario", calls)
        run_stopped(["diff", "record", "fig6", "--out", "x.rtrace"])
        (args, kwargs), = calls
        assert args == (scenario("fig6").configured(),)
        assert kwargs == {"capacity": 65536}

    def test_golden_checks_every_golden_in_the_committed_dir(
            self, calls, monkeypatch):
        from repro.observe.diff import golden_names

        stub(monkeypatch, "repro.observe.diff.goldens", "check_golden",
             calls)
        run_stopped(["diff", "golden"])
        (args, kwargs), = calls
        assert args == (golden_names()[0], "")
        assert kwargs == {}


class TestService:
    def test_serve(self, calls, monkeypatch):
        stub(monkeypatch, "repro.service.http", "serve", calls)
        run_stopped(["serve"])
        (args, kwargs), = calls
        assert args == (".repro-store",)
        assert callable(kwargs.pop("announce"))
        assert kwargs == {"host": "127.0.0.1", "port": 8642,
                          "workers": 2, "capacity": 64,
                          "parallel_jobs": 2}

    @pytest.mark.parametrize("argv, posted", [
        (["submit", "figure", "--scenario", "fig7"],
         {"kind": "figure", "scenario": "fig7"}),
        (["submit", "campaign", "--scenarios", "fig6,fig7", "--seeds",
          "1..3"],
         {"kind": "campaign", "scenarios": "fig6,fig7", "seeds": "1..3"}),
        (["submit", "margin", "--scenario", "fig6", "--intensities",
          "0.5,1", "--bound-us", "800", "--no-cache"],
         {"kind": "margin", "scenario": "fig6", "intensities": "0.5,1",
          "bound_us": 800.0, "use_cache": False}),
        (["submit", "twin-diff", "--scenario", "storm-fig6", "--seed",
          "0", "--samples", "300", "--intensity", "2", "--priority",
          "-1", "--max-workers", "0"],
         {"kind": "twin-diff", "scenario": "storm-fig6", "seed": 0,
          "samples": 300, "intensity": 2.0, "priority": -1,
          "max_workers": 0}),
        (["submit", "campaign", "--scenarios", "fig7", "--iterations",
          "2", "--fault-plan", "storm-fig7", "--fault-intensity", "0",
          "--plan", "storm-fig6"],
         {"kind": "campaign", "scenarios": "fig7", "iterations": 2,
          "fault_plan": "storm-fig7", "fault_intensity": 0.0,
          "plan": "storm-fig6"}),
    ], ids=["figure", "campaign", "margin", "twin-diff", "fault-plan"])
    def test_submit_posts_exactly_the_flags_set(self, argv, posted, calls,
                                                monkeypatch):
        stub_method(monkeypatch, "repro.service.client", "ServiceClient",
                    "submit", calls)
        run_stopped(argv)
        (client, (sent,), kwargs), = calls
        assert kwargs == {}
        assert (client.host, client.port) == ("127.0.0.1", 8642)
        # A seed range or a ladder may go out as text or as the list
        # it parses to; the job it names must be the same.
        assert sorted(sent) == sorted(posted)
        assert JobSpec.from_dict(sent) == JobSpec.from_dict(posted)
        if not {"seeds", "intensities"} & set(posted):
            assert sent == posted

    def test_status_lists_jobs_of_the_default_server(self, calls,
                                                      monkeypatch):
        stub_method(monkeypatch, "repro.service.client", "ServiceClient",
                    "jobs", calls)
        run_stopped(["status"])
        (client, args, kwargs), = calls
        assert (client.host, client.port) == ("127.0.0.1", 8642)
        assert args == () and kwargs == {}


class TestStore:
    @pytest.mark.parametrize("argv, method, expected", [
        (["store", "ls"], "ls", {"kind": None}),
        (["store", "verify"], "verify", {"delete": False}),
        (["store", "gc"], "gc", {"max_age_s": None, "now_s": None,
                                 "max_bytes": None, "dry_run": False}),
    ], ids=["ls", "verify", "gc"])
    def test_store_actions(self, argv, method, expected, calls,
                           monkeypatch):
        stub_method(monkeypatch, "repro.store", "ResultStore", method,
                    calls)
        run_stopped(argv)
        (store, args, kwargs), = calls
        assert store.root.endswith(".repro-store")
        assert args == ()
        assert kwargs == expected


LEAVES = [
    [], ["run"], ["list-scenarios"], ["campaign"], ["trace"], ["bounds"],
    ["faults", "list-faults"], ["faults", "storm"], ["faults", "margin"],
    ["diff", "record"], ["diff", "against"], ["diff", "compare"],
    ["diff", "twin"], ["diff", "golden"],
    ["store", "ls"], ["store", "verify"], ["store", "gc"],
    ["serve"], ["submit"], ["status"],
]


class TestParsers:
    @pytest.mark.parametrize("path", LEAVES,
                             ids=[" ".join(p) or "figure" for p in LEAVES])
    def test_help_exits_0_naming_the_prog(self, path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(path + ["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        prog = " ".join([PROG, *path])
        assert out.startswith(f"usage: {prog} ")
        assert "--help" in out

    @pytest.mark.parametrize("command, actions", [
        ("faults", "list-faults|storm|margin"),
        ("diff", "record|against|compare|twin|golden"),
        ("store", "ls|verify|gc"),
    ])
    @pytest.mark.parametrize("rest", [[], ["nope"], ["--help"]],
                             ids=["none", "unknown", "help"])
    def test_group_without_an_action_prints_its_usage(
            self, command, actions, rest, capsys):
        assert main([command, *rest]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"usage: {PROG} {command} "
                                f"{{{actions}}} ...\n")
