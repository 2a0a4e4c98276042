"""Tests for the declarative scenario layer and its registry."""

import pickle

import pytest

from repro.experiments.scenario import (
    MeasurementSpec,
    ScenarioSpec,
    ShieldSpec,
    UnknownScenarioError,
    all_scenarios,
    build_scenario_bench,
    register_scenario,
    run_named,
    run_scenario,
    scenario,
    scenario_groups,
    scenario_names,
)
from repro.workloads.registry import load_entry, measurement_entry


class TestRegistry:
    def test_every_figure_and_ablation_is_registered(self):
        names = scenario_names()
        for fig in range(1, 8):
            assert f"fig{fig}" in names
        assert {"a1", "a2", "a3", "a4", "a5", "a6", "fbs",
                "figures"} <= set(scenario_groups())

    def test_group_filter(self):
        assert scenario_names(group="a3") == ["a3-flag", "a3-no-flag"]
        for name in scenario_names(group="figures"):
            assert scenario(name).group == "figures"

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownScenarioError):
            scenario("fig99")

    def test_duplicate_registration_rejected(self):
        spec = scenario("fig5")
        with pytest.raises(ValueError):
            register_scenario(spec)

    def test_every_scenario_references_registered_components(self):
        """Specs are names all the way down: each must resolve."""
        for spec in all_scenarios():
            spec.build_config()  # kernel registry + overrides
            measurement_entry(spec.measurement.program)
            for load in spec.workloads:
                load_entry(load)

    def test_every_scenario_builds_a_booted_bench(self):
        for spec in all_scenarios():
            bench = build_scenario_bench(spec)
            assert bench.kernel._booted, spec.name
            assert bench.machine.ncpus == spec.machine.cores * (
                2 if spec.machine.hyperthreading else 1)


class TestSpecData:
    def test_specs_are_picklable(self):
        for spec in all_scenarios():
            clone = pickle.loads(pickle.dumps(spec))
            assert clone == spec

    def test_configured_overrides_knobs(self):
        spec = scenario("fig5").configured(samples=123, seed=42)
        assert spec.measurement.samples == 123
        assert spec.seed == 42
        # The registered spec is immutable data, untouched by overrides.
        assert scenario("fig5").measurement.samples == 40_000

    def test_configured_merges_config_overrides(self):
        spec = scenario("a3-no-flag").configured(
            config_overrides={"bkl_ioctl_flag": True})
        assert dict(spec.config_overrides)["bkl_ioctl_flag"] is True

    def test_shield_on_unshieldable_kernel_rejected(self):
        spec = ScenarioSpec(
            name="bad", title="bad", kernel="vanilla-2.4.21",
            shield=ShieldSpec.full(1),
            measurement=MeasurementSpec(program="realfeel", samples=10))
        with pytest.raises(ValueError, match="no shield support"):
            run_scenario(spec)


class TestRunScenario:
    def test_seed_threads_through_to_result(self):
        result = run_named("fig7", samples=200, seed=7)
        assert result.seed == 7
        assert result.recorder.count == 200

    def test_same_spec_same_result(self):
        spec = scenario("fig7").configured(samples=150, seed=3)
        a = run_scenario(spec)
        b = run_scenario(spec)
        assert list(a.recorder.samples) == list(b.recorder.samples)

    def test_different_seed_different_samples(self):
        a = run_named("fig7", samples=150, seed=1)
        b = run_named("fig7", samples=150, seed=2)
        assert list(a.recorder.samples) != list(b.recorder.samples)

    def test_fbs_scenario_reports_cycle_details(self):
        result = run_named("fbs-shielded", seed=2,
                           duration_ns=200_000_000)
        assert result.kind == "fbs"
        assert result.details["cycles"] > 0
        assert result.recorder.count > 0
