"""The one cell executor: partition, batches, drain, pools, resume.

``execute_cells`` runs the cells of campaigns, margin ladders,
twin-diffs and service jobs alike; these tests pin the contract the
callers rely on.
"""

import concurrent.futures
import re

import pytest

import repro.experiments.campaign as campaign_module
from repro.experiments.campaign import CampaignRunner, CampaignSpec
from repro.experiments.cells import Cell, cell_key, execute_cells
from repro.experiments.export import campaign_to_dict, to_json
from repro.experiments.scenario import scenario
from repro.faults.margin import MarginSpec, run_margin
from repro.store import ResultStore

CAMPAIGN = CampaignSpec(scenarios=("fig7",), seeds=(1, 2, 3, 4),
                        samples=120)
#: 32 misses on 2 workers run in chunks of 32 // (2 * 8) = 2 cells, so
#: each landed batch pairs several outcomes with their cells.
CHUNKED = CampaignSpec(scenarios=("fig7",), seeds=tuple(range(1, 33)),
                       samples=60)
MARGIN = MarginSpec(scenario="fig6", plan="storm-fig6",
                    intensities=(0.5, 1.0), samples=200, seed=1)


def fig7_cells(seeds):
    base = scenario("fig7")
    return [Cell(index=i, op="scenario",
                 spec=base.configured(samples=80, seed=seed))
            for i, seed in enumerate(seeds)]


_UNINTERRUPTED = {}


def uninterrupted(spec):
    """The export of one serial, store-less run of *spec* (run once)."""
    key = repr(spec)
    if key not in _UNINTERRUPTED:
        _UNINTERRUPTED[key] = to_json(
            campaign_to_dict(CampaignRunner(spec).run()))
    return _UNINTERRUPTED[key]


def computed_batch_sizes(monkeypatch):
    """The sizes of the computed batches that reach the ``on_batch``
    ``CampaignRunner.run`` hands to ``execute_cells``."""
    sizes = []
    execute = campaign_module.execute_cells

    def spy(cells, on_batch, **kwargs):
        def counted(run, batch, cached):
            if not cached:
                sizes.append(len(batch))
            on_batch(run, batch, cached)

        return execute(cells, counted, **kwargs)

    monkeypatch.setattr(campaign_module, "execute_cells", spy)
    return sizes


@pytest.fixture
def store(tmp_path):
    return ResultStore(str(tmp_path / "store"))


class NoPool:
    """A ProcessPoolExecutor stand-in that fails the test if built."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("a worker pool was built for a warm run")


class TestWarmRunsBuildNoPool:
    @pytest.mark.parametrize("spec, min_batch", [(CAMPAIGN, 1),
                                                 (CHUNKED, 2)],
                             ids=["4-cells", "32-cells"])
    def test_warm_campaign(self, store, monkeypatch, spec, min_batch):
        sizes = computed_batch_sizes(monkeypatch)
        cold = CampaignRunner(spec, workers=2, store=store).run()
        assert max(sizes) >= min_batch
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            NoPool)
        warm = CampaignRunner(spec, workers=2, store=store).run()
        cells = len(spec.seeds)
        assert warm.cache["hits"] == cells and warm.cache["computed"] == 0
        assert (to_json(campaign_to_dict(warm))
                == to_json(campaign_to_dict(cold)) == uninterrupted(spec))

    def test_warm_margin_ladder(self, store, monkeypatch):
        cold = run_margin(MARGIN, workers=2, store=store)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            NoPool)
        warm = run_margin(MARGIN, workers=2, store=store)
        assert warm.to_dict() == cold.to_dict()


class TestBatches:
    def test_hits_arrive_first_as_one_batch(self, store):
        cells = fig7_cells((1, 2, 3, 4, 5, 6))
        code = "test"
        execute_cells([cells[1], cells[4]], lambda *_: None,
                      store=store, code=code)
        batches = []
        run = execute_cells(
            cells, lambda _run, batch, cached: batches.append(
                (cached, [o.index for o in batch])),
            store=store, code=code, workers=2)
        assert batches[0] == (True, [1, 4])
        assert all(not cached for cached, _ in batches[1:])
        computed = sorted(i for _, idx in batches[1:] for i in idx)
        assert computed == [0, 2, 3, 5]
        assert (run.hits, run.misses, run.computed) == (2, 4, 4)
        assert run.complete

    def test_stop_drains_in_flight_chunks_and_returns_incomplete(
            self, store):
        cells = fig7_cells((1, 2, 3, 4, 5, 6))
        code = "test"
        landed = []
        run = execute_cells(
            cells, lambda _run, batch, cached: landed.append(
                [o.index for o in batch]),
            store=store, code=code, workers=2,
            stop=lambda: len(landed) >= 2)
        # Chunks of one cell, at most workers * 2 = 4 in flight: the
        # first landed chunk stops submission, the other three land.
        assert not run.complete
        assert run.computed == 4
        done = sorted(i for batch in landed[1:] for i in batch)
        assert len(done) == 4
        for cell in cells:
            stored = store.get(cell_key(cell, code)) is not None
            assert stored == (cell.index in done)


class TestInterruptedPooledCampaign:
    @pytest.mark.parametrize("spec, workers", [
        (CampaignSpec(scenarios=("fig7",), seeds=tuple(range(1, 9)),
                      samples=120), 4),
        (CHUNKED, 2),
    ], ids=["8-cells", "32-cells"])
    def test_raising_progress_hook_leaves_a_resumable_prefix(
            self, store, spec, workers):
        class Interrupted(Exception):
            pass

        interrupted_at = []

        def hook(message):
            # Progress steps by misses // 10: the first line past one
            # cell reads 2/8 for 8 cells and 3/32 for 32.
            match = re.match(r"campaign: (\d+)/\d+ computed", message)
            if match and int(match.group(1)) >= 2:
                interrupted_at.append(int(match.group(1)))
                raise Interrupted

        with pytest.raises(Interrupted):
            CampaignRunner(spec, workers=workers, store=store,
                           progress=hook).run()
        resumed = CampaignRunner(spec, workers=workers, store=store,
                                 resume=True, use_cache=False).run()
        assert resumed.cache["resumed"] >= interrupted_at[0]
        assert to_json(campaign_to_dict(resumed)) == uninterrupted(spec)
