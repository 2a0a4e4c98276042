"""Tests for the figure-data exporters."""

import enum
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.export import (
    determinism_to_dict,
    latency_to_dict,
    to_json,
)
from repro.experiments.scenario import ScenarioResult
from repro.metrics.recorder import JitterRecorder, LatencyRecorder


@pytest.fixture
def det_result():
    rec = JitterRecorder("d", ideal_ns=1_000_000_000)
    for v in (1_000_000_000, 1_050_000_000, 1_200_000_000):
        rec.record_duration(v)
    return ScenarioResult(
        scenario="x", title="Figure X", kind="determinism",
        kernel_name="test-kernel", seed=0, recorder=rec,
        ideal_ns=1_000_000_000)


@pytest.fixture
def lat_result():
    rec = LatencyRecorder("l")
    for v in (10_000, 20_000, 500_000, 5_000_000):
        rec.record_latency(v)
    return ScenarioResult(scenario="y", title="Figure Y", kind="latency",
                          kernel_name="test-kernel", seed=0, recorder=rec)


class TestDeterminismExport:
    def test_fields(self, det_result):
        data = determinism_to_dict(det_result)
        assert data["jitter_percent"] == 20.0
        assert data["ideal_s"] == 1.0
        assert len(data["variance_ms_series"]) == 3
        assert sum(b["count"] for b in data["histogram"]["bins"]) == 3

    def test_json_round_trip(self, det_result):
        text = to_json(determinism_to_dict(det_result))
        assert json.loads(text)["figure"] == "Figure X"


class TestLatencyExport:
    def test_fields(self, lat_result):
        data = latency_to_dict(lat_result)
        assert data["samples"] == 4
        assert data["min_us"] == 10.0
        assert data["mean_us"] == 1_382.5
        assert data["max_us"] == 5_000.0
        assert set(data) == {"figure", "kernel", "seed", "samples",
                             "min_us", "mean_us", "max_us", "histogram"}

    def test_histogram_only_occupied_bins(self, lat_result):
        data = latency_to_dict(lat_result)
        bins = data["histogram"]["log_bins"]
        assert all(b["count"] > 0 for b in bins)
        assert sum(b["count"] for b in bins) == 4

    def test_file_output(self, lat_result, tmp_path):
        path = tmp_path / "fig.json"
        to_json(latency_to_dict(lat_result), path=str(path))
        loaded = json.loads(path.read_text())
        assert loaded["figure"] == "Figure Y"


class _Code(enum.IntEnum):
    LOW = -7
    HIGH = 3


def _reference(data):
    """The text ``to_json`` must reproduce, from json itself."""
    return json.dumps(data, indent=2, sort_keys=True)


_FLOATS = st.one_of(
    st.floats(),  # NaN and +-inf included
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"),
                     float("-inf"), 1e16, 5e-324, 0.1]),
    st.floats().map(np.float64))
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.sampled_from(list(_Code)),
    st.integers(), st.integers(-10**40, 10**40), _FLOATS,
    st.text(), st.sampled_from(['"', "\\", "\n\t\x00\x7f", "\ud800",
                                "µs ✓", "😀"]))
# Int lists mixed with bools and IntEnums, which the exact-int join
# must leave to the general path.
_INT_LISTS = st.lists(st.one_of(st.integers(), st.booleans(),
                                st.sampled_from(list(_Code))),
                      max_size=12)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        _INT_LISTS,
        st.lists(st.integers(), max_size=12),
        st.dictionaries(st.text(max_size=6), children, max_size=6),
        st.dictionaries(st.one_of(st.integers(), st.booleans(),
                                  st.floats()), children, max_size=6),
        st.dictionaries(st.none(), children, max_size=1))


_JSON_VALUES = st.recursive(_SCALARS, _containers, max_leaves=40)


class TestExactJsonText:
    """``to_json`` is ``json.dumps(indent=2, sort_keys=True)``, byte
    for byte, on inputs nobody picked by hand."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(data=_JSON_VALUES)
    def test_equals_json_dumps(self, data):
        assert to_json(data) == _reference(data)

    @pytest.mark.parametrize("data", [
        [float("nan"), float("inf"), float("-inf"), -0.0],
        {"nan": float("nan"), "inf": np.float64("inf")},
        [1, True, 2], [False, 0], [_Code.HIGH, 4, _Code.LOW],
        [1, 2.5, 3], (1, 2, 3), [], {}, [[]], {"a": {}},
        {1.5: "a", 2: "b", True: "c"}, {None: [1, 2]},
        {"\u00b5s": "✓", "q\"k": "\\"},
        [10**30, -10**30],
    ])
    def test_edge_values(self, data):
        assert to_json(data) == _reference(data)

    @pytest.mark.parametrize("data", [
        {"x": np.int64(3)}, [object()], {(1, 2): "tuple key"},
        {1: "int key", "a": "str key"}, {"s": {1, 2}},
    ])
    def test_unserialisable_input_raises_type_error(self, data):
        with pytest.raises(TypeError):
            _reference(data)
        with pytest.raises(TypeError):
            to_json(data)

    def test_committed_golden_file_is_its_own_export(self):
        # A committed file written by json.dumps pins the writer's
        # bytes: the golden suites compare to_json with to_json, so
        # only a fixed text catches a changed byte.
        path = (Path(__file__).parent / "golden"
                / "scenario_outputs.json")
        raw = path.read_text(encoding="utf-8")
        assert to_json(json.loads(raw)) + "\n" == raw
