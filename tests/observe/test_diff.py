"""simdiff engine: emptiness, exact closure, first-divergence naming."""

import json

import pytest

from repro.experiments.scenario import scenario
from repro.faults import TwinDiffSpec, run_twin_diff
from repro.observe.diff import (
    TraceDiffError,
    TraceRecording,
    diff_recordings,
    record_scenario,
)


def _record(samples=40, seed=1, capacity=8192, name="fig6"):
    spec = scenario(name).configured(samples=samples, seed=seed)
    rec, _result = record_scenario(spec, capacity=capacity)
    return rec


@pytest.fixture(scope="module")
def twin():
    return run_twin_diff(TwinDiffSpec(scenario="storm-fig6",
                                      samples=120, capacity=16384))


class TestIdentical:
    def test_same_run_twice_is_identical(self):
        diff = diff_recordings(_record(), _record())
        assert diff.identical
        assert diff.empty
        assert diff.latency_delta_ns == 0
        assert diff.bucket_deltas() == {}
        assert diff.divergent_buckets() == []
        assert diff.first is None
        assert diff.accounting_deltas == []
        assert "IDENTICAL" in diff.render()

    def test_identical_diff_serialises_canonically(self):
        # The dict form is plain data: equal diffs dump to equal bytes.
        dump_a = json.dumps(diff_recordings(_record(), _record())
                            .to_dict(), sort_keys=True)
        dump_b = json.dumps(diff_recordings(_record(), _record())
                            .to_dict(), sort_keys=True)
        assert dump_a == dump_b


    def test_fresh_and_loaded_copies_are_identical(self, tmp_path):
        # A fresh body holds the rings' tuples, a loaded one JSON lists.
        fresh = _record()
        path = str(tmp_path / "fig6.rtrace")
        fresh.save(path)
        loaded = TraceRecording.load(path)
        assert type(fresh.events[0]) is tuple
        assert type(loaded.events[0]) is list
        assert diff_recordings(fresh, loaded).identical
        assert diff_recordings(loaded, fresh).identical

    @pytest.mark.parametrize("change", ["arg", "time"])
    def test_one_changed_loaded_row_breaks_event_equality(
            self, change, tmp_path):
        fresh = _record()
        path = str(tmp_path / "fig6.rtrace")
        fresh.save(path)
        loaded = TraceRecording.load(path)
        row = next(row for row in loaded.events[len(loaded.events) // 2:]
                   if row[3])
        if change == "time":
            row[0] += 1
        elif isinstance(row[3][0], str):
            row[3][0] += "!"
        else:
            row[3][0] += 1
        for diff in (diff_recordings(fresh, loaded),
                     diff_recordings(loaded, fresh)):
            assert not diff.events_equal
            assert not diff.identical


class TestComparability:
    def test_different_seed_rejected(self):
        with pytest.raises(TraceDiffError, match="seed"):
            diff_recordings(_record(seed=1), _record(seed=2))

    def test_different_samples_rejected(self):
        with pytest.raises(TraceDiffError, match="samples_target"):
            diff_recordings(_record(samples=40), _record(samples=41))

    def test_different_scenario_rejected(self):
        with pytest.raises(TraceDiffError, match="scenario"):
            diff_recordings(_record(name="fig6"), _record(name="fig5"))

    def test_config_difference_is_comparable_not_identical(self, twin):
        diff = twin.diff
        assert diff.config_changed
        assert not diff.identical


class TestTwinDivergence:
    """The acceptance case: shielded vs unshielded storm-fig6."""

    def test_bucket_table_closes_exactly(self, twin):
        diff = twin.diff
        table_delta = sum(b_ns - a_ns
                          for _bucket, a_ns, b_ns in diff.bucket_rows)
        assert table_delta == diff.latency_delta_ns
        assert diff.latency_delta_ns > 0   # unshielded pays

    def test_first_divergence_names_span_and_buckets(self, twin):
        first = twin.diff.first
        assert first is not None
        assert first["buckets"], "divergent sample must name buckets"
        spans = first["spans"]
        assert (spans["changed_count"] + spans["introduced_count"]
                + spans["lost_count"]) > 0
        named = spans["first"]
        assert named is not None
        span = named.get("span") or named.get("a")
        assert span["name"]
        start, end = first["window_ns"]
        # span evidence overlaps the divergent sample window
        assert span["end_ns"] > start and span["start_ns"] < end

    def test_named_mechanisms_include_fault_and_irq_off(self, twin):
        named = twin.diff.named_mechanisms()
        assert "fault" in named
        assert "irq_off" in named

    def test_render_is_human_readable(self, twin):
        text = twin.diff.render()
        assert "DIVERGED" in text
        assert "first divergence" in text
        assert "delta" in text
        assert "accounting drift" in text

    def test_to_dict_round_trips_through_json(self, twin):
        doc = twin.diff.to_dict()
        assert json.loads(json.dumps(doc)) == doc
        assert doc["latency_delta_ns"] == (doc["total_b_ns"]
                                           - doc["total_a_ns"])
        table = sum(row["delta_ns"] for row in doc["buckets"])
        assert table == doc["latency_delta_ns"]

    def test_headline_reports_the_paper_bound(self, twin):
        assert twin.shielded_within_bound
        assert "within" in twin.headline()


class TestWorkerCountByteIdentity:
    """Satellite: recordings -- and therefore diffs -- are
    byte-identical whichever worker count produced them."""

    @staticmethod
    def _campaign_bodies(workers):
        from repro.experiments.campaign import run_campaign
        from repro.observe.tracer import TraceConfig

        result = run_campaign(("fig5", "fig6"), seeds=(1,),
                              samples=30, workers=workers,
                              trace=TraceConfig(capacity=2048,
                                                record=True))
        return [json.dumps(r.trace["recording"], sort_keys=True)
                for r in result.runs]

    def test_recordings_byte_identical_across_worker_counts(self):
        serial = self._campaign_bodies(workers=1)
        parallel = self._campaign_bodies(workers=2)
        assert serial == parallel

    def test_cross_worker_diff_is_empty_and_canonical(self):
        from repro.observe.diff import TraceRecording

        pairs = zip(self._campaign_bodies(workers=1),
                    self._campaign_bodies(workers=2))
        for body_a, body_b in pairs:
            rec_a = TraceRecording.from_body(json.loads(body_a))
            rec_b = TraceRecording.from_body(json.loads(body_b))
            diff = diff_recordings(rec_a, rec_b)
            assert diff.identical
            assert (json.dumps(diff.to_dict(), sort_keys=True)
                    == json.dumps(diff_recordings(rec_a, rec_b)
                                  .to_dict(), sort_keys=True))
