"""Job specs: validation, identity, expansion, and the pure fold."""

import pytest

from repro.service.jobs import (
    Cell,
    JobError,
    JobSpec,
    cell_key,
    expand_cells,
    fold_job,
    run_cell,
    run_cells,
)
from repro.store.keys import job_key


class TestSpecParsing:
    def test_round_trip(self):
        spec = JobSpec.from_dict({
            "kind": "campaign", "scenarios": "fig6,fig7",
            "seeds": "1..3", "samples": 100, "priority": 2})
        assert spec.scenarios == ("fig6", "fig7")
        assert spec.seeds == (1, 2, 3)
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(JobError, match="unknown job kind"):
            JobSpec.from_dict({"kind": "mystery"})

    def test_unknown_field_rejected(self):
        with pytest.raises(JobError, match="unknown job field"):
            JobSpec.from_dict({"kind": "figure", "scenario": "fig6",
                               "bogus": 1})

    def test_missing_kind_rejected(self):
        with pytest.raises(JobError, match="needs a 'kind'"):
            JobSpec.from_dict({"scenario": "fig6"})

    def test_unknown_scenario_rejected(self):
        with pytest.raises(JobError):
            JobSpec.from_dict({"kind": "figure",
                               "scenario": "no-such-fig"})

    def test_campaign_needs_scenarios(self):
        with pytest.raises(JobError, match="needs 'scenarios'"):
            JobSpec.from_dict({"kind": "campaign", "scenarios": []})

    def test_malformed_seeds_rejected(self):
        with pytest.raises(JobError):
            JobSpec.from_dict({"kind": "campaign",
                               "scenarios": "fig7", "seeds": "8..1"})

    def test_string_intensities_split_on_commas(self):
        spec = JobSpec.from_dict({"kind": "margin", "scenario": "fig6",
                                  "intensities": "0.5, 2"})
        assert spec.intensities == (0.5, 2.0)

    def test_zero_intensity_is_the_disabled_plan(self):
        spec = JobSpec.from_dict({"kind": "margin", "scenario": "fig6",
                                  "intensities": [0, 1.0]})
        assert spec.intensities == (0.0, 1.0)

    @pytest.mark.parametrize("field,value,kind", [
        ("intensities", [float("nan")], "margin"),
        ("intensities", [float("inf")], "margin"),
        ("intensities", [0.5, -1.0], "margin"),
        ("intensity", float("nan"), "twin-diff"),
        ("intensity", -1.0, "twin-diff"),
        ("fault_intensity", float("nan"), "campaign"),
        ("fault_intensity", -0.5, "campaign"),
        ("bound_us", -5.0, "margin"),
        ("bound_us", 0, "margin"),
        ("bound_us", float("inf"), "margin"),
        ("samples", -3, "figure"),
        ("samples", 0, "margin"),
        ("iterations", 0, "figure"),
        ("capacity", 0, "twin-diff"),
    ])
    def test_malformed_value_names_the_field(self, field, value, kind):
        data = {"kind": kind, field: value}
        if kind == "campaign":
            data["scenarios"] = "fig7"
        else:
            data["scenario"] = "storm-fig6"
        with pytest.raises(JobError, match=f"'{field}'"):
            JobSpec.from_dict(data)

    def test_twin_diff_needs_shielded_baseline(self):
        # fig5 runs unshielded: there is no shield to strip.
        with pytest.raises(JobError, match="unshielded"):
            JobSpec.from_dict({"kind": "twin-diff",
                               "scenario": "fig5"})


class TestJobIdentity:
    def test_priority_does_not_change_identity(self):
        a = JobSpec.from_dict({"kind": "figure", "scenario": "fig6",
                               "seed": 2, "priority": 0})
        b = JobSpec.from_dict({"kind": "figure", "scenario": "fig6",
                               "seed": 2, "priority": 9,
                               "max_workers": 1})
        assert a.job_id(code="c") == b.job_id(code="c")

    def test_spec_and_code_change_identity(self):
        a = JobSpec.from_dict({"kind": "figure", "scenario": "fig6",
                               "seed": 2})
        b = JobSpec.from_dict({"kind": "figure", "scenario": "fig6",
                               "seed": 3})
        assert a.job_id(code="c") != b.job_id(code="c")
        assert a.job_id(code="c") != a.job_id(code="d")


class TestExpansion:
    def test_campaign_matrix(self):
        spec = JobSpec.from_dict({"kind": "campaign",
                                  "scenarios": "fig6,fig7",
                                  "seeds": "1..3", "samples": 50})
        cells = expand_cells(spec)
        assert len(cells) == 6
        assert [c.index for c in cells] == list(range(6))
        assert all(c.op == "scenario" for c in cells)
        # The cell keys are the campaign runner's store keys.
        assert cell_key(cells[0], "c") == job_key(cells[0].spec, "c")

    def test_margin_ladder_two_cells_per_rung(self):
        spec = JobSpec.from_dict({"kind": "margin",
                                  "scenario": "fig6",
                                  "intensities": [0.5, 1.0],
                                  "samples": 50})
        cells = expand_cells(spec)
        assert len(cells) == 4
        assert all(c.op == "margin" for c in cells)
        shielded = [c.spec.shield.any_component for c in cells]
        assert shielded == [True, False, True, False]

    def test_twin_diff_is_one_recording_pair(self):
        spec = JobSpec.from_dict({"kind": "twin-diff",
                                  "scenario": "fig6", "samples": 50})
        cells = expand_cells(spec)
        assert [c.op for c in cells] == ["record", "record"]
        assert cells[0].spec.shield.any_component
        assert not cells[1].spec.shield.any_component
        assert cells[0].capacity == spec.capacity


class TestFold:
    def test_figure_fold_is_cli_bytes(self):
        from repro.experiments.export import scenario_to_dict, to_json

        spec = JobSpec.from_dict({"kind": "figure",
                                  "scenario": "fig7",
                                  "samples": 80, "seed": 3})
        cells = expand_cells(spec)
        outcomes = run_cells(cells)
        artifact = fold_job(spec, outcomes)
        expected = to_json(scenario_to_dict(outcomes[0].result)) + "\n"
        assert artifact.artifact == expected
        assert artifact.report == outcomes[0].result.report()

    def test_fold_is_pure(self):
        spec = JobSpec.from_dict({"kind": "figure",
                                  "scenario": "fig7",
                                  "samples": 80, "seed": 3})
        outcomes = [run_cell(cell) for cell in expand_cells(spec)]
        once = fold_job(spec, outcomes)
        twice = fold_job(spec, outcomes)
        assert once.artifact == twice.artifact
        assert once.report == twice.report

    def test_missing_result_is_a_job_error(self):
        from repro.service.jobs import CellOutcome

        spec = JobSpec.from_dict({"kind": "figure",
                                  "scenario": "fig7", "samples": 80})
        with pytest.raises(JobError, match="no result"):
            fold_job(spec, [CellOutcome(index=0, error="boom")])


class TestWorkerEntry:
    def test_run_cell_margin_stall_is_data(self, monkeypatch):
        """A stalled margin cell returns an error outcome, not a
        raised exception (the ladder's unbounded rung)."""
        from repro.faults import margin as margin_mod
        from repro.sim.errors import SimulationStalledError

        def stall(_spec):
            raise SimulationStalledError("no progress")

        monkeypatch.setattr(margin_mod, "run_scenario", stall)
        spec = JobSpec.from_dict({"kind": "margin",
                                  "scenario": "fig6",
                                  "intensities": [4.0],
                                  "samples": 50})
        cell = expand_cells(spec)[0]
        outcome = run_cell(cell)
        assert outcome.result is None
        assert "no progress" in outcome.error

    def test_run_cell_scenario_stall_raises(self, monkeypatch):
        from repro.experiments import campaign as campaign_mod
        from repro.sim.errors import SimulationStalledError

        def stall(_spec, **_kwargs):
            raise SimulationStalledError("no progress")

        monkeypatch.setattr(campaign_mod, "run_scenario", stall)
        spec = JobSpec.from_dict({"kind": "figure",
                                  "scenario": "fig7", "samples": 80})
        cell = expand_cells(spec)[0]
        with pytest.raises(SimulationStalledError):
            run_cell(cell)

    def test_cells_pickle(self):
        import pickle

        spec = JobSpec.from_dict({"kind": "campaign",
                                  "scenarios": "fig7", "seeds": [1],
                                  "samples": 50})
        cells = expand_cells(spec)
        assert pickle.loads(pickle.dumps(cells)) == cells
        assert isinstance(cells[0], Cell)
