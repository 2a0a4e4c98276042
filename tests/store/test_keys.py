"""Keying contract: stability, sensitivity, code-version hashing."""

import dataclasses
import hashlib
import json
import os
from typing import Any

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.scenario import all_scenarios, scenario
from repro.observe.diff import golden_names, golden_path
from repro.service.jobs import JOB_KINDS, JobSpec
from repro.store import (
    canonical_json,
    code_version,
    decode_recording,
    digest_of,
    encode_recording,
    job_key,
    recording_key,
)
from repro.store.keys import _CODE_VERSIONS, _non_json


@pytest.fixture
def fig7():
    return scenario("fig7").configured(samples=100, seed=1)


class TestCanonical:
    def test_dict_ordering_insensitive(self):
        assert (digest_of({"a": 1, "b": 2})
                == digest_of({"b": 2, "a": 1}))

    def test_scalars_roundtrip(self):
        form = json.loads(canonical_json({"x": (1, 2.5, "s", None, True)}))
        assert form == {"x": [1, 2.5, "s", None, True]}

    def test_dataclass_fields_carried(self, fig7):
        form = json.loads(canonical_json(fig7))
        assert form["__dataclass__"] == "ScenarioSpec"
        assert form["seed"] == 1
        assert form["measurement"]["samples"] == 100

    def test_exotic_values_keyed_by_typed_repr(self):
        class Odd:
            def __repr__(self):
                return "<odd>"

        assert digest_of(Odd()) == digest_of(Odd())
        assert (json.loads(canonical_json(Odd()))
                == {"__repr__": "Odd:<odd>"})


# ----------------------------------------------------------------------
# Oracle: the recursive walk the keys were defined by, kept as the
# reference every key must still equal byte for byte.
# ----------------------------------------------------------------------
def _walk(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out = {"__dataclass__": type(value).__name__}
        for field in dataclasses.fields(value):
            out[field.name] = _walk(getattr(value, field.name))
        return out
    if isinstance(value, dict):
        return {str(k): _walk(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_walk(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return {"__repr__": f"{type(value).__name__}:{value!r}"}


def _walk_digest(value: Any) -> str:
    text = json.dumps(_walk(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _walk_spec(spec: Any) -> Any:
    form = _walk(spec)
    form["config_overrides"] = sorted(
        form["config_overrides"],
        key=lambda pair: json.dumps(pair, sort_keys=True))
    return form


def _oracle_specs():
    """Every catalogue spec, plus reordered overrides and faults."""
    for spec in all_scenarios():
        yield spec
        yield spec.with_overrides(config_overrides=tuple(reversed(
            spec.config_overrides + (("zz_extra", (1, 2.5)),
                                     ("aa_extra", {"b": None, "a": 1})))))
        yield spec.configured(fault_plan="storm-fig6",
                              fault_intensity=2.5)


@dataclasses.dataclass(frozen=True)
class _Node:
    label: str
    child: Any


_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.floats().map(np.float64),
    st.booleans().map(np.bool_),
    st.sets(st.integers(), max_size=4),
)
_TREES = st.recursive(_LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=4),
    st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=4), kids, max_size=4),
    st.builds(_Node, st.text(max_size=4), kids),
), max_leaves=24)


class TestDigestOracle:
    def test_job_and_recording_keys(self):
        for code in ("c0ffee", code_version()):
            for spec in _oracle_specs():
                assert job_key(spec, code) == _walk_digest(
                    {"spec": _walk_spec(spec), "code": code}), spec.name
                assert recording_key(spec, 4096, code) == _walk_digest(
                    {"kind": "rtrace", "spec": _walk_spec(spec),
                     "capacity": 4096, "code": code}), spec.name

    @pytest.mark.parametrize("name", golden_names())
    def test_committed_golden_bodies(self, name):
        with open(golden_path(name), "rb") as fh:
            meta, body = decode_recording(fh.read())
        assert digest_of(body) == _walk_digest(body) == meta["key"]

    @pytest.mark.parametrize("kind", JOB_KINDS)
    def test_job_ids(self, kind):
        job = JobSpec.from_dict({
            "kind": kind, "scenarios": "fig6,fig7", "seeds": "1..3",
            "scenario": "storm-fig6", "samples": 100,
            "intensities": [0.5, 1, 2]})
        for code in ("c0ffee", code_version()):
            assert job.job_id(code) == _walk_digest(
                {"job": job.identity(), "code": code})[:16]

    @settings(max_examples=300, deadline=None)
    @given(_TREES)
    def test_json_trees(self, tree):
        assert digest_of(tree) == _walk_digest(tree)


class TestNoCircularCheck:
    """``canonical_json`` skips json's circular-reference table; its
    text must stay exactly what json writes with the table on."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_TREES)
    @example({"nan": float("nan"), "inf": [float("inf"), -float("inf")],
              "\u00e9t\u00e9": ("\u00fcber \u2603", True, 1, 1.0, False, 0),
              "node": _Node("\u00df", [{"b": (2,), "a": None}])})
    def test_text_equals_checked_json(self, tree):
        assert canonical_json(tree) == json.dumps(
            tree, sort_keys=True, separators=(",", ":"), default=_non_json)

    def test_self_containing_list_raises(self):
        loop: list = [1]
        loop.append(loop)
        with pytest.raises(RecursionError):
            canonical_json({"x": loop})
        with pytest.raises(RecursionError):
            encode_recording({"events": loop}, "k", "c")


class TestJobKey:
    def test_stable_across_calls(self, fig7):
        assert job_key(fig7) == job_key(fig7)

    def test_seed_changes_key(self, fig7):
        assert job_key(fig7) != job_key(fig7.configured(seed=2))

    def test_samples_change_key(self, fig7):
        assert job_key(fig7) != job_key(fig7.configured(samples=101))

    def test_fault_plan_and_intensity_change_key(self, fig7):
        stormed = fig7.configured(fault_plan="storm-fig6")
        assert job_key(fig7) != job_key(stormed)
        assert job_key(stormed) != job_key(
            stormed.configured(fault_intensity=2.0))

    def test_override_dict_order_insensitive(self, fig7):
        a = fig7.configured(config_overrides={"preemptible": True,
                                              "ksoftirqd": False})
        b = fig7.configured(config_overrides={"ksoftirqd": False,
                                              "preemptible": True})
        assert job_key(a) == job_key(b)

    def test_override_tuple_order_insensitive(self, fig7):
        a = fig7.with_overrides(config_overrides=(("preemptible", True),
                                                  ("ksoftirqd", False)))
        b = fig7.with_overrides(config_overrides=(("ksoftirqd", False),
                                                  ("preemptible", True)))
        assert job_key(a) == job_key(b)

    def test_override_value_changes_key(self, fig7):
        a = fig7.configured(config_overrides={"preemptible": True})
        b = fig7.configured(config_overrides={"preemptible": False})
        assert job_key(a) != job_key(b)

    def test_code_version_changes_key(self, fig7):
        assert (job_key(fig7, code="aaa")
                != job_key(fig7, code="bbb"))


class TestCodeVersion:
    def _tree(self, root, **files):
        for name, text in files.items():
            path = os.path.join(root, name)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)

    def test_single_byte_edit_changes_digest(self, tmp_path):
        root = str(tmp_path)
        self._tree(root, **{"pkg/a.py": "x = 1\n"})
        before = code_version(root)
        _CODE_VERSIONS.clear()
        self._tree(root, **{"pkg/a.py": "x = 2\n"})
        assert code_version(root) != before

    def test_non_python_files_ignored(self, tmp_path):
        root = str(tmp_path)
        self._tree(root, **{"pkg/a.py": "x = 1\n"})
        before = code_version(root)
        _CODE_VERSIONS.clear()
        self._tree(root, **{"notes.txt": "irrelevant\n"})
        assert code_version(root) == before

    def test_path_renames_change_digest(self, tmp_path):
        root = str(tmp_path)
        self._tree(root, **{"pkg/a.py": "x = 1\n"})
        before = code_version(root)
        _CODE_VERSIONS.clear()
        os.rename(os.path.join(root, "pkg/a.py"),
                  os.path.join(root, "pkg/b.py"))
        assert code_version(root) != before

    def test_cached_per_process(self, tmp_path):
        root = str(tmp_path)
        self._tree(root, **{"a.py": "x = 1\n"})
        first = code_version(root)
        # A second call must not re-walk: mutate behind the cache and
        # observe the cached digest (callers rely on one hash/process).
        self._tree(root, **{"a.py": "x = 3\n"})
        assert code_version(root) == first

    def test_repro_tree_hashes(self):
        digest = code_version()
        assert len(digest) == 64
        assert digest == code_version()
