"""Tests for the parallel campaign runner.

The central guarantee: a campaign's merged output is byte-identical
whatever the worker count, because every job's seed and configuration
live in its picklable spec and results are reassembled in
job-expansion order.
"""

import pytest

from repro.experiments.campaign import (
    CampaignRunner,
    CampaignSpec,
    check_distinct,
    parse_seeds,
    run_campaign,
)
from repro.experiments.export import campaign_to_dict, to_json


class TestParseSeeds:
    def test_range(self):
        assert parse_seeds("1..4") == (1, 2, 3, 4)

    def test_list(self):
        assert parse_seeds("1,2,5") == (1, 2, 5)

    def test_single(self):
        assert parse_seeds("7") == (7,)

    def test_single_element_range(self):
        assert parse_seeds("3..3") == (3,)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty seed list"):
            parse_seeds("")
        with pytest.raises(ValueError, match="empty seed list"):
            parse_seeds("   ")

    def test_backwards_range_rejected(self):
        with pytest.raises(ValueError, match="backwards seed range"):
            parse_seeds("8..1")

    def test_malformed_range_rejected(self):
        with pytest.raises(ValueError, match="malformed seed range"):
            parse_seeds("1..x")
        with pytest.raises(ValueError, match="malformed seed range"):
            parse_seeds("..")

    def test_malformed_list_rejected(self):
        with pytest.raises(ValueError, match="malformed seed list"):
            parse_seeds("1,two,3")

    def test_separators_only_rejected(self):
        with pytest.raises(ValueError, match="names no seeds"):
            parse_seeds(",,")

    @pytest.mark.parametrize("text", ["1,1", "3,1,3", " 2, 2 "])
    def test_repeated_seed_rejected(self, text):
        with pytest.raises(ValueError, match="repeats"):
            parse_seeds(text)


class TestCheckDistinct:
    def test_names_each_repeated_entry_once(self):
        with pytest.raises(ValueError) as exc:
            check_distinct((3, 1, 3, 1, 1, 2), "'seeds'")
        assert str(exc.value) == (
            "'seeds' repeats 3, 1: each entry must appear once")

    def test_distinct_entries_pass_through(self):
        assert check_distinct(("fig7", "fig5"), "x") == ("fig7", "fig5")


class TestExpansion:
    def test_scenario_major_then_seed(self):
        campaign = CampaignSpec(scenarios=("fig7", "fig5"), seeds=(1, 2))
        jobs = campaign.expand()
        assert [(j.spec.name, j.spec.seed) for j in jobs] == [
            ("fig7", 1), ("fig7", 2), ("fig5", 1), ("fig5", 2)]
        assert [j.index for j in jobs] == [0, 1, 2, 3]

    def test_knobs_apply_to_every_job(self):
        campaign = CampaignSpec(scenarios=("fig5",), seeds=(1,),
                                samples=77)
        (job,) = campaign.expand()
        assert job.spec.measurement.samples == 77

    def test_override_axis(self):
        campaign = CampaignSpec(
            scenarios=("fig5",), seeds=(1,),
            config_overrides=(("base", {}),
                              ("preempt", {"preemptible": True})))
        jobs = campaign.expand()
        assert [j.override_tag for j in jobs] == ["base", "preempt"]
        assert jobs[1].spec.config_overrides == (("preemptible", True),)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(scenarios=(), seeds=(1,)).expand()
        with pytest.raises(ValueError):
            CampaignSpec(scenarios=("fig5",), seeds=()).expand()

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError):
            CampaignRunner(CampaignSpec(scenarios=("fig5",)), workers=0)


class TestDeterminism:
    def test_parallel_campaign_byte_identical_to_serial(self):
        """3 scenarios x 2 seeds: workers=4 must equal workers=1."""
        kwargs = dict(scenarios=("fig7", "fig6", "fig2"), seeds=(1, 2),
                      samples=150, iterations=2)
        serial = run_campaign(workers=1, **kwargs)
        parallel = run_campaign(workers=4, **kwargs)
        assert (to_json(campaign_to_dict(serial))
                == to_json(campaign_to_dict(parallel)))

    def test_merged_recorders_aggregate_all_seeds(self):
        result = run_campaign(("fig7",), seeds=(1, 2, 3), samples=100)
        assert result.merged["fig7"].count == 300
        assert result.merged["fig7"].max() == max(
            r.recorder.max() for r in result.results_for("fig7"))

    def test_summary_mentions_every_run(self):
        result = run_campaign(("fig7",), seeds=(5, 6), samples=100)
        text = result.summary()
        assert "fig7 seed=5" in text
        assert "fig7 seed=6" in text
        assert "fig7 merged" in text
