"""The `faults` CLI subcommand (list-faults / storm / margin)."""

from __future__ import annotations

import json

from repro.experiments.__main__ import main


class TestListFaults:
    def test_lists_registered_plans(self, capsys):
        rc = main(["faults", "list-faults"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("storm-fig5", "storm-fig6", "storm-fig7",
                     "rogue-irqoff", "shield-flap", "device-chaos"):
            assert name in out

    def test_unknown_action_usage(self, capsys):
        rc = main(["faults", "unleash"])
        assert rc == 2


class TestStorm:
    def test_storm_run_reports_injections(self, capsys, tmp_path):
        out_json = tmp_path / "storm.json"
        rc = main(["faults", "storm", "fig6", "--samples", "300",
                   "--json", str(out_json)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "plan=storm-fig6" in out
        assert "irq-storm#0" in out
        data = json.loads(out_json.read_text())
        assert data["samples"] == 300

    def test_check_sums_gates_on_the_fault_bucket(self, capsys):
        # Unshielded at high intensity: the storm reaches the
        # measurement CPU, so attribution must blame the fault bucket
        # and per-sample sums must still be exact.
        rc = main(["faults", "storm", "fig6", "--samples", "2000",
                   "--intensity", "2", "--unshielded",
                   "--check-sums", "--threshold-pct", "90"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sum check ok" in out
        assert "fault bucket:" in out
        assert "fault tracepoint ok:" in out

    def test_unknown_scenario_errors(self):
        import pytest

        with pytest.raises(SystemExit):
            main(["faults", "storm", "fig99"])


class TestMargin:
    def test_margin_sweep_reports_the_margin(self, capsys, tmp_path):
        out_json = tmp_path / "margin.json"
        rc = main(["faults", "margin", "fig6", "--samples", "300",
                   "--intensities", "0.5,1", "--json", str(out_json)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "shield margin: fig6 under storm-fig6" in out
        data = json.loads(out_json.read_text())
        assert data["plan"] == "storm-fig6"
        assert len(data["rungs"]) == 2

    def test_non_finite_intensity_names_the_flag(self, capsys, tmp_path):
        import pytest

        out_json = tmp_path / "margin.json"
        with pytest.raises(SystemExit) as exit_info:
            main(["faults", "margin", "fig6", "--samples", "300",
                  "--intensities", "nan", "--json", str(out_json)])
        assert exit_info.value.code == 2
        assert "--intensities" in capsys.readouterr().err
        assert not out_json.exists()
