"""The declarative scenario/campaign layer.

The scenario registry (:mod:`repro.experiments.scenario` +
:mod:`repro.experiments.catalog`) holds every figure, ablation and FBS
run as declarative data, and :func:`run_scenario` / :func:`run_named`
are the one way to run one; the campaign runner
(:mod:`repro.experiments.campaign`) executes scenario x seed x
config-override matrices in parallel.
"""

from repro.experiments.harness import Bench, build_bench
from repro.experiments.scenario import (
    MeasurementSpec,
    ScenarioResult,
    ScenarioSpec,
    ShieldSpec,
    UnknownScenarioError,
    all_scenarios,
    register_scenario,
    run_named,
    run_scenario,
    scenario,
    scenario_groups,
    scenario_names,
)
from repro.experiments.campaign import (
    CampaignResult,
    CampaignRunner,
    CampaignSpec,
    run_campaign,
)

__all__ = [
    "Bench",
    "build_bench",
    # scenario layer
    "MeasurementSpec",
    "ScenarioResult",
    "ScenarioSpec",
    "ShieldSpec",
    "UnknownScenarioError",
    "all_scenarios",
    "register_scenario",
    "run_named",
    "run_scenario",
    "scenario",
    "scenario_groups",
    "scenario_names",
    # campaigns
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "run_campaign",
]
