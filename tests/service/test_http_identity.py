"""The service's headline contract: HTTP payloads == CLI bytes.

Every artifact fetched over the API must be byte-identical to the
file the one-shot CLI writes for the same request -- whatever the
worker count, scheduling order, or cache temperature.  The CLI side
here *is* the real CLI (``repro.experiments.__main__.main`` called
in-process), not a reimplementation of its export path.

Also covered: the HTTP error contract (400/404/409/429), long-poll,
and the NDJSON status stream.
"""

import json
import os
import shutil

import pytest

from repro.experiments.__main__ import main as cli_main
from repro.service.client import ServiceClient, ServiceError
from repro.service.http import ServerThread

FIG6 = {"kind": "figure", "scenario": "fig6", "samples": 200,
        "seed": 2}
FIG7 = {"kind": "figure", "scenario": "fig7", "samples": 120,
        "seed": 3}
CAMPAIGN = {"kind": "campaign", "scenarios": "fig7", "seeds": "1..4",
            "samples": 120}
MARGIN = {"kind": "margin", "scenario": "fig6",
          "intensities": [0.5, 1.0], "samples": 400, "seed": 1}
TWIN = {"kind": "twin-diff", "scenario": "storm-fig6", "samples": 200,
        "seed": 2}


@pytest.fixture(scope="module")
def cli_artifacts(tmp_path_factory):
    """The ground truth: artifact files written by the actual CLI."""
    out = tmp_path_factory.mktemp("cli")
    assert cli_main(["run", "fig6", "--samples", "200", "--seed", "2",
                     "--json-dir", str(out)]) == 0
    assert cli_main(["run", "fig7", "--samples", "120", "--seed", "3",
                     "--json-dir", str(out)]) == 0
    assert cli_main(["campaign", "--scenarios", "fig7", "--seeds",
                     "1..4", "--samples", "120", "--json",
                     str(out / "campaign.json")]) == 0
    assert cli_main(["faults", "margin", "fig6", "--intensities",
                     "0.5,1", "--samples", "400", "--seed", "1",
                     "--json", str(out / "margin.json")]) == 0
    assert cli_main(["diff", "twin", "storm-fig6", "--samples", "200",
                     "--seed", "2", "--json", str(out / "twin.json")]) == 0
    return {
        "fig6": (out / "fig6.json").read_bytes(),
        "fig7": (out / "fig7.json").read_bytes(),
        "campaign": (out / "campaign.json").read_bytes(),
        "margin": (out / "margin.json").read_bytes(),
        "twin": (out / "twin.json").read_bytes(),
    }


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    """A store root populated by a cold 2-worker server run."""
    root = str(tmp_path_factory.mktemp("svc") / "store")
    served = {}
    with ServerThread(root, workers=2) as addr:
        client = ServiceClient(addr)
        ids = {name: client.submit(spec)["id"]
               for name, spec in [("fig6", FIG6), ("fig7", FIG7),
                                  ("campaign", CAMPAIGN),
                                  ("margin", MARGIN), ("twin", TWIN)]}
        for name, job_id in ids.items():
            final = client.wait(job_id, poll_s=10.0)
            assert final["state"] == "done", final.get("error")
            served[name] = client.artifact(job_id)
    return root, served


class TestByteIdentity:
    @pytest.mark.parametrize("name", ["fig6", "fig7", "campaign",
                                      "margin", "twin"])
    def test_cold_http_equals_cli(self, name, cli_artifacts,
                                  warm_store):
        _root, served = warm_store
        assert served[name] == cli_artifacts[name]

    def test_warm_single_worker_server_identical_no_pool(
            self, cli_artifacts, warm_store):
        """Second server, 1 worker, warm store, fresh journal: every
        artifact re-serves byte-identically from cache hits alone --
        the pool is provably never created."""
        root, _served = warm_store
        shutil.rmtree(os.path.join(root, "service", "jobs"))
        with ServerThread(root, workers=1) as addr:
            client = ServiceClient(addr)
            for name, spec in [("fig6", FIG6), ("fig7", FIG7),
                               ("campaign", CAMPAIGN),
                               ("margin", MARGIN)]:
                job_id = client.submit(spec)["id"]
                final = client.wait(job_id, poll_s=10.0)
                assert final["state"] == "done"
                assert final["cache_hits"] == final["cells_total"] > 0
                assert client.artifact(job_id) == cli_artifacts[name]
            health = client.health()
            assert health["workers_spawned"] is False
            assert health["cells_computed"] == 0

    def test_resubmit_to_live_server_dedupes(self, warm_store):
        root, served = warm_store
        with ServerThread(root, workers=1) as addr:
            client = ServiceClient(addr)
            first = client.submit(FIG7)
            client.wait(first["id"], poll_s=10.0)
            again = client.submit(FIG7)
            assert again["id"] == first["id"]
            assert again["created"] is False
            assert again["state"] == "done"
            assert client.artifact(again["id"]) == served["fig7"]


class _CountingClient(ServiceClient):
    """A client that records the path of every request it sends."""

    def __init__(self, address):
        super().__init__(address)
        self.paths = []

    def _request(self, method, path, body=None, timeout=None):
        self.paths.append(path)
        return super()._request(method, path, body, timeout=timeout)


class TestHttpContract:
    def test_bad_spec_is_400(self, tmp_path):
        with ServerThread(str(tmp_path / "store")) as addr:
            client = ServiceClient(addr)
            with pytest.raises(ServiceError) as err:
                client.submit({"kind": "figure",
                               "scenario": "no-such"})
            assert err.value.status == 400
            with pytest.raises(ServiceError) as err:
                client.submit({"kind": "mystery"})
            assert err.value.status == 400
            with pytest.raises(ServiceError) as err:
                client.submit(dict(MARGIN, intensities=[float("nan")]))
            assert err.value.status == 400
            assert "'intensities'" in str(err.value)

    def test_unknown_job_is_404(self, tmp_path):
        with ServerThread(str(tmp_path / "store")) as addr:
            client = ServiceClient(addr)
            with pytest.raises(ServiceError) as err:
                client.status("feedfacedeadbeef")
            assert err.value.status == 404
            with pytest.raises(ServiceError) as err:
                client.artifact("feedfacedeadbeef")
            assert err.value.status == 404

    def test_unknown_route_is_404(self, tmp_path):
        with ServerThread(str(tmp_path / "store")) as addr:
            with pytest.raises(ServiceError) as err:
                ServiceClient(addr)._json("GET", "/nope")
            assert err.value.status == 404

    def test_unfinished_artifact_is_409(self, tmp_path):
        with ServerThread(str(tmp_path / "store"),
                          workers=1) as addr:
            client = ServiceClient(addr)
            job_id = client.submit(CAMPAIGN)["id"]
            with pytest.raises(ServiceError) as err:
                client.artifact(job_id)
            assert err.value.status == 409
            client.wait(job_id, poll_s=10.0)

    def test_queue_full_is_429(self, tmp_path):
        with ServerThread(str(tmp_path / "store"), workers=1,
                          capacity=1) as addr:
            client = ServiceClient(addr)
            first = client.submit(CAMPAIGN)
            with pytest.raises(ServiceError) as err:
                client.submit(FIG7)
            assert err.value.status == 429
            # The duplicate of a live job still dedupes, even full.
            again = client.submit(CAMPAIGN)
            assert again["id"] == first["id"]
            client.wait(first["id"], poll_s=10.0)

    def test_long_poll_returns_done(self, tmp_path):
        with ServerThread(str(tmp_path / "store")) as addr:
            client = ServiceClient(addr)
            job_id = client.submit(FIG7)["id"]
            final = client.wait(job_id, poll_s=15.0)
            assert final["state"] == "done"
            assert final["cells_done"] == final["cells_total"] == 1

    def test_wait_is_one_request_when_the_job_ends_in_time(self,
                                                           tmp_path):
        with ServerThread(str(tmp_path / "store")) as addr:
            client = _CountingClient(addr)
            job_id = client.submit(FIG7)["id"]
            client.paths.clear()
            final = client.wait(job_id, poll_s=60.0)
            assert final["state"] == "done"
            assert client.paths == [f"/jobs/{job_id}?wait=60"]
            # A finished job answers the long-poll at once.
            assert client.wait(job_id, poll_s=60.0) == final
            assert len(client.paths) == 2

    def test_wait_gives_up_after_max_polls_long_polls(self, tmp_path):
        with ServerThread(str(tmp_path / "store"), workers=1) as addr:
            client = _CountingClient(addr)
            job_id = client.submit(CAMPAIGN)["id"]
            client.paths.clear()
            with pytest.raises(ServiceError) as err:
                client.wait(job_id, poll_s=0, max_polls=2)
            assert err.value.status == 408
            assert "after 2 x 0s long-polls" in str(err.value)
            assert client.paths == [f"/jobs/{job_id}?wait=0"] * 2
            with pytest.raises(ValueError, match="max_polls"):
                client.wait(job_id, max_polls=0)
            assert client.wait(job_id, poll_s=60.0)["state"] == "done"

    def test_stream_follows_to_completion(self, tmp_path):
        with ServerThread(str(tmp_path / "store")) as addr:
            client = ServiceClient(addr)
            job_id = client.submit(FIG7)["id"]
            states = [line["state"]
                      for line in client.stream(job_id)]
            assert states[-1] == "done"

    def test_jobs_listing_and_health(self, tmp_path):
        with ServerThread(str(tmp_path / "store")) as addr:
            client = ServiceClient(addr)
            job_id = client.submit(FIG7)["id"]
            client.wait(job_id, poll_s=10.0)
            listed = client.jobs()
            assert [j["id"] for j in listed] == [job_id]
            health = client.health()
            assert health["queue"]["by_state"]["done"] == 1
            assert health["store"]["entries"] == 1

    def test_report_is_text(self, tmp_path):
        with ServerThread(str(tmp_path / "store")) as addr:
            client = ServiceClient(addr)
            job_id = client.submit(FIG7)["id"]
            client.wait(job_id, poll_s=10.0)
            report = client.report(job_id)
            assert "Figure 7" in report

    def test_status_payload_is_json_clean(self, tmp_path):
        with ServerThread(str(tmp_path / "store")) as addr:
            client = ServiceClient(addr)
            status = client.submit(FIG7)
            # Everything the API returns must survive a JSON round
            # trip (no repr leakage).
            assert json.loads(json.dumps(status)) == status
            client.wait(status["id"], poll_s=10.0)
