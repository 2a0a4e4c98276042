"""Tests for the `python -m repro.experiments` figure runner."""

import json
import pathlib

import pytest

from repro.experiments.__main__ import DETERMINISM, LATENCY, main

GOLDEN = str(pathlib.Path(__file__).resolve().parents[2]
             / "goldens" / "recordings" / "fig7.rtrace")
#: An address nothing listens on.
NO_SERVER = "http://127.0.0.1:9"


class TestCli:
    def test_runs_a_latency_figure(self, capsys, tmp_path):
        rc = main(["fig7", "--samples", "400", "--json-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "measured interrupts" in out
        data = json.loads((tmp_path / "fig7.json").read_text())
        assert data["samples"] == 400
        assert data["max_us"] < 100.0

    def test_runs_a_determinism_figure(self, capsys):
        rc = main(["fig2", "--iterations", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "jitter:" in out

    def test_unknown_figure_exits(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_unknown_figure_message_lists_the_figures(self):
        with pytest.raises(SystemExit) as exc:
            main(["fig99"])
        assert exc.value.code == (
            "unknown figure 'fig99'; choose from ['fig1', 'fig2', 'fig3', "
            "'fig4', 'fig5', 'fig6', 'fig7'] or 'all' "
            "(or use 'list-scenarios')")

    @pytest.mark.parametrize("name", ["all", "fig99"])
    def test_run_form_refuses_without_offering_all(self, name):
        with pytest.raises(SystemExit) as exc:
            main(["run", name, "--iterations", "1", "--samples", "10"])
        # A string code is printed to stderr and exits with status 1.
        assert exc.value.code == (f"unknown scenario {name!r} "
                                  f"(use 'list-scenarios')")

    def test_figure_tables_cover_all_seven(self):
        assert set(DETERMINISM) == {"fig1", "fig2", "fig3", "fig4"}
        assert set(LATENCY) == {"fig5", "fig6", "fig7"}


class TestJsonDir:
    def test_a_missing_nested_directory_is_created(self, capsys, tmp_path):
        out_dir = tmp_path / "a" / "b"
        rc = main(["run", "fig7", "--samples", "20", "--profile",
                   "--json-dir", str(out_dir)])
        assert rc == 0
        data = json.loads((out_dir / "fig7.json").read_text())
        assert data["samples"] == 20
        assert (out_dir / "fig7.pstats").stat().st_size > 0

    @pytest.mark.parametrize("argv", [
        ["run", "fig7", "--samples", "20"],
        ["fig7", "--samples", "20"],
        ["bounds", "fig7"],
    ], ids=["run", "bare", "bounds"])
    def test_a_file_at_the_path_exits_2_before_any_run(
            self, argv, capsys, tmp_path, monkeypatch):
        path = tmp_path / "taken"
        path.write_text("")

        def run_scenario(*args, **kwargs):
            raise AssertionError("a scenario ran despite --json-dir")
        monkeypatch.setattr("repro.experiments.__main__.run_scenario",
                            run_scenario)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--json-dir", str(path)])
        assert exc.value.code == 2
        assert (f"--json-dir {str(path)!r} is not a directory"
                in capsys.readouterr().err)
        assert path.read_text() == ""


class TestOutputDirectories:
    """Every flag that names an output file gets its directory before
    anything runs."""

    @pytest.mark.parametrize("argv, written", [
        (["trace", "fig7", "--samples", "20", "--trace-out", "a/b/t.json"],
         "a/b/t.json"),
        (["campaign", "--scenarios", "fig7", "--samples", "20", "--json",
          "a/b/c.json"], "a/b/c.json"),
        (["diff", "compare", GOLDEN, GOLDEN, "--report", "a/b/r.txt"],
         "a/b/r.txt"),
        (["diff", "record", "fig7", "--samples", "20", "--out",
          "a/b/x.rtrace"], "a/b/x.rtrace"),
    ], ids=["trace-out", "json", "report", "out"])
    def test_a_missing_directory_is_created(
            self, argv, written, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        assert (tmp_path / written).stat().st_size > 0

    @pytest.mark.parametrize("argv, flag", [
        (["run", "fig7", "--samples", "20"], "--trace-out"),
        (["fig7", "--samples", "20"], "--trace-out"),
        (["trace", "fig7", "--samples", "20"], "--trace-out"),
        (["campaign", "--scenarios", "fig7", "--samples", "20"], "--json"),
        (["faults", "storm", "fig6", "--samples", "20"], "--json"),
        (["faults", "margin", "fig6", "--samples", "20"], "--json"),
        (["diff", "against", GOLDEN], "--json"),
        (["diff", "compare", GOLDEN, GOLDEN], "--json"),
        (["diff", "twin", "storm-fig6", "--samples", "20"], "--json"),
        (["submit", "figure", "--scenario", "fig7", "--wait",
          "--server", NO_SERVER], "--json"),
        (["status", "0123456789abcdef", "--server", NO_SERVER], "--json"),
        (["diff", "against", GOLDEN], "--report"),
        (["diff", "compare", GOLDEN, GOLDEN], "--report"),
        (["diff", "twin", "storm-fig6", "--samples", "20"], "--report"),
        (["diff", "record", "fig7", "--samples", "20"], "--out"),
    ], ids=["run-trace-out", "bare-trace-out", "trace-trace-out",
            "campaign-json", "storm-json", "margin-json", "against-json",
            "compare-json", "twin-json", "submit-json", "status-json",
            "against-report", "compare-report", "twin-report",
            "record-out"])
    def test_a_file_in_the_way_exits_2_before_anything_runs(
            self, argv, flag, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").write_text("")

        def run_until(*args, **kwargs):
            raise AssertionError(f"simulated despite {flag}")
        monkeypatch.setattr("repro.sim.engine.Simulator.run_until",
                            run_until)
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, "taken/out"])
        # A server call would have failed with exit 1 instead.
        assert exc.value.code == 2
        assert (f"{flag} 'taken/out': 'taken' is not a directory"
                in capsys.readouterr().err)
        assert (tmp_path / "taken").read_text() == ""

    def test_a_directory_named_as_a_file_exits_2(
            self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "--scenarios", "fig7", "--json", "d"])
        assert exc.value.code == 2
        assert ("--json 'd' is a directory, not a file"
                in capsys.readouterr().err)


class TestRepeatedEntries:
    @pytest.mark.parametrize("argv, flag", [
        (["campaign", "--scenarios", "fig7", "--seeds", "1,1"], "--seeds"),
        (["campaign", "--scenarios", "fig7,fig5,fig7"], "--scenarios"),
        (["submit", "campaign", "--scenarios", "fig7", "--seeds", "2,3,2",
          "--server", NO_SERVER], "--seeds"),
        (["submit", "campaign", "--scenarios", "fig7, fig7",
          "--server", NO_SERVER], "--scenarios"),
    ], ids=["campaign-seeds", "campaign-scenarios", "submit-seeds",
            "submit-scenarios"])
    def test_a_repeated_entry_exits_2_naming_the_flag(
            self, argv, flag, capsys, monkeypatch):
        def run_campaign(*args, **kwargs):
            raise AssertionError("a campaign ran despite a repeat")
        monkeypatch.setattr("repro.experiments.campaign.run_campaign",
                            run_campaign)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--samples", "20"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: " in err
        assert "each entry must appear once" in err


class TestTraceCapacity:
    @pytest.mark.parametrize("argv", [
        ["trace", "fig6", "--samples", "50"],
        ["diff", "record", "fig6", "--samples", "50", "--out", "x.rtrace"],
        ["diff", "twin", "storm-fig6", "--samples", "50"],
    ], ids=["trace", "diff-record", "diff-twin"])
    @pytest.mark.parametrize("capacity", ["0", "-3"])
    def test_capacity_below_one_exits_2_naming_the_flag(
            self, argv, capacity, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--capacity", capacity])
        assert exc.value.code == 2
        assert "argument --capacity:" in capsys.readouterr().err
        assert not (tmp_path / "x.rtrace").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["fig7"], "--samples"),
        (["fig2"], "--iterations"),
        (["run", "fig7"], "--samples"),
        (["run", "fig2"], "--iterations"),
        (["trace", "fig6"], "--samples"),
        (["faults", "storm", "fig6"], "--samples"),
        (["faults", "margin", "fig6"], "--samples"),
        (["diff", "record", "fig6", "--out", "x.rtrace"], "--samples"),
        (["diff", "twin", "storm-fig6"], "--samples"),
        (["bounds", "--check", "fig7"], "--samples"),
        (["bounds", "--check", "fig2"], "--iterations"),
        (["campaign", "--scenarios", "fig7", "--seeds", "1"], "--samples"),
        # An address nothing listens on: the refusal comes first.
        (["submit", "figure", "--scenario", "fig7",
          "--server", "http://127.0.0.1:9"], "--samples"),
        (["campaign", "--scenarios", "fig7", "--seeds", "1"], "--workers"),
        (["faults", "margin", "fig6"], "--workers"),
        (["serve"], "--workers"),
        (["serve"], "--capacity"),
        (["serve"], "--parallel-jobs"),
    ], ids=["bare", "bare-iterations", "run", "run-iterations", "trace",
            "storm", "margin", "diff-record", "diff-twin", "bounds",
            "bounds-iterations", "campaign", "submit", "campaign-workers",
            "margin-workers", "serve-workers", "serve-capacity",
            "serve-parallel-jobs"])
    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_count_below_one_exits_2_naming_the_flag(
            self, argv, flag, count, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

        def serve(*args, **kwargs):
            raise AssertionError("a server started despite the count")
        monkeypatch.setattr("repro.service.http.serve", serve)
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, count])
        assert exc.value.code == 2
        assert f"argument {flag}: must be an integer >= 1" in (
            capsys.readouterr().err)
        assert not (tmp_path / "x.rtrace").exists()

    @pytest.mark.parametrize("argv, flag, value", [
        (["fig7", "--samples", "50"], "--seed", "-1"),
        (["run", "fig7", "--samples", "50"], "--seed", "-1"),
        (["trace", "fig6", "--samples", "50"], "--seed", "-1"),
        (["faults", "storm", "fig6", "--samples", "50"], "--seed", "-1"),
        (["faults", "margin", "fig6", "--samples", "50", "--intensities",
          "1"], "--seed", "-1"),
        (["diff", "record", "fig6", "--samples", "50", "--out",
          "x.rtrace"], "--seed", "-1"),
        (["diff", "twin", "storm-fig6", "--samples", "50"], "--seed", "-1"),
        (["submit", "figure", "--scenario", "fig7",
          "--server", "http://127.0.0.1:9"], "--seed", "-1"),
        (["campaign", "--scenarios", "fig7", "--samples", "50"],
         "--seeds", "-2..1"),
        (["submit", "campaign", "--scenarios", "fig7",
          "--server", "http://127.0.0.1:9"], "--seeds", "-2..1"),
        (["diff", "twin", "storm-fig6", "--samples", "50"],
         "--intensity", "-1"),
        (["diff", "record", "fig6", "--plan", "storm-fig6", "--samples",
          "50", "--out", "x.rtrace"], "--intensity", "nan"),
        (["faults", "storm", "fig6", "--samples", "50"],
         "--intensity", "nan"),
        (["campaign", "--scenarios", "fig7", "--fault-plan", "storm-fig7",
          "--samples", "50"], "--fault-intensity", "nan"),
        (["submit", "margin", "--scenario", "fig6",
          "--server", "http://127.0.0.1:9"], "--intensities", "1,nan"),
        (["faults", "margin", "fig6", "--samples", "50"],
         "--intensities", ","),
        (["submit", "margin", "--scenario", "fig6",
          "--server", "http://127.0.0.1:9"], "--bound-us", "nan"),
        (["submit", "figure", "--scenario", "fig7",
          "--server", "http://127.0.0.1:9"], "--max-workers", "-1"),
        (["trace", "fig7", "--samples", "50"], "--threshold-pct", "150"),
        (["faults", "storm", "fig6", "--samples", "50", "--trace"],
         "--threshold-pct", "-1"),
    ], ids=["bare-seed", "run-seed", "trace-seed",
            "storm-seed", "margin-seed", "diff-record-seed",
            "diff-twin-seed", "submit-seed", "campaign-seeds",
            "submit-seeds", "diff-twin-intensity",
            "diff-record-intensity", "storm-intensity",
            "campaign-fault-intensity", "submit-intensities",
            "margin-empty-ladder", "submit-bound-us", "submit-max-workers",
            "trace-threshold-pct", "storm-threshold-pct"])
    def test_value_out_of_range_exits_2_naming_the_flag(
            self, argv, flag, value, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv + [f"{flag}={value}"])
        assert exc.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err
        assert not (tmp_path / "x.rtrace").exists()
