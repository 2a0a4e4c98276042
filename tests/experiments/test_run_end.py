"""Where a scenario run ends, and that its exports do not depend on it.

An unobserved run stops right after the event in which its measurement
program takes its last sample.  A run with lockdep, a tracer or a fault
plan attached keeps the span its reports cover: up to the end of the
250 ms chunk in which the program finished.  Nothing after the last
sample reaches a recorder, so both shapes export the same bytes.
"""

from __future__ import annotations

import importlib
from dataclasses import replace

import pytest

from repro.experiments.export import scenario_to_dict, to_json
from repro.experiments.scenario import all_scenarios, run_scenario, scenario
from repro.sim.simtime import MSEC

scenario_mod = importlib.import_module("repro.experiments.scenario")

CHUNK_NS = 250 * MSEC
FIG6 = scenario("fig6").configured(samples=300)


@pytest.fixture
def benches(monkeypatch):
    """Every bench ``run_scenario`` builds, in build order."""
    built = []
    build = scenario_mod.build_scenario_bench

    def capture(*args, **kwargs):
        bench = build(*args, **kwargs)
        built.append(bench)
        return bench

    monkeypatch.setattr(scenario_mod, "build_scenario_bench", capture)
    return built


class TestWhereARunEnds:
    def test_unobserved_run_ends_at_its_last_sample(self, benches):
        result = run_scenario(FIG6)
        (bench,) = benches
        assert result.recorder.count == 300
        # realfeel's last TSC read is the bench clock of its last sample.
        assert bench.sim.now == result.recorder._last_return
        # 300 periods of 2048 Hz are ~146.5 ms.
        assert bench.sim.now < 150 * MSEC

    @pytest.mark.parametrize("observer", [
        {"lockdep": True}, {"trace": True}, {"faults": "storm-fig6"}],
        ids=["lockdep", "trace", "faults"])
    def test_observed_run_keeps_its_chunk_end(self, benches, observer):
        result = run_scenario(FIG6, **observer)
        assert result.recorder.count == 300
        assert benches[-1].sim.now == CHUNK_NS

    def test_faulted_span_is_pinned(self):
        faults = run_scenario(
            scenario("storm-fig6").configured(samples=300)).faults
        # Counted over the whole first chunk: stopping at the last
        # sample (~147 ms) would inject fewer and change the digest.
        assert (faults["injections"], faults["digest"]) == (319, 1386229280)
        assert faults["by_injector"] == {
            "irq-misroute#4": 8, "irq-storm#0": 200, "irq-storm#1": 100,
            "rogue-task#2": 1, "tick-jitter#5": 10}


def _short(spec):
    """*spec* at a size that finishes well inside its first chunk."""
    spec = spec.configured(samples=40, iterations=1)
    if spec.kind == "determinism":
        spec = spec.with_overrides(measurement=replace(
            spec.measurement, loop_ns=40 * MSEC))
    return spec


@pytest.mark.parametrize("spec", [
    s for s in all_scenarios() if s.kind in ("latency", "determinism")],
    ids=lambda s: s.name)
def test_plain_export_equals_observed_export(spec):
    spec = _short(spec)
    plain = run_scenario(spec)
    observed = run_scenario(spec, lockdep=True, trace=True)
    assert observed.lockdep == []
    assert to_json(scenario_to_dict(plain)) == to_json(
        scenario_to_dict(observed))
