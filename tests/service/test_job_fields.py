"""POST /jobs refuses a job field the scheduler could not run.

Each refusal is a 400 that names the field, decided by the checkers the
CLI's flags use, so nothing is queued, journaled or sent to a worker.
"""

import pytest

from repro.service.client import ServiceClient, ServiceError
from repro.service.http import ServerThread

FIGURE = {"kind": "figure", "scenario": "fig7", "samples": 50}
CAMPAIGN = {"kind": "campaign", "scenarios": "fig7", "samples": 50}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("svc") / "store")
    with ServerThread(root, workers=1) as address:
        yield ServiceClient(address)


@pytest.mark.parametrize("base, field, value", [
    (FIGURE, "seed", -1),
    (FIGURE, "seed", 1.5),
    (FIGURE, "seed", True),
    (FIGURE, "seed", "2"),
    (CAMPAIGN, "seeds", "-2..1"),
    (CAMPAIGN, "seeds", "3,-1"),
    (CAMPAIGN, "seeds", [1, -1]),
    (CAMPAIGN, "seeds", [1.5]),
    (CAMPAIGN, "seeds", [True]),
    (CAMPAIGN, "seeds", ["2"]),
    (CAMPAIGN, "seeds", "1,1"),
    (CAMPAIGN, "seeds", [2, 3, 2]),
    (CAMPAIGN, "scenarios", "fig7,fig7"),
    (CAMPAIGN, "scenarios", ["fig5", "fig7", "fig5"]),
    (FIGURE, "priority", "high"),
    (FIGURE, "priority", 1.5),
    (FIGURE, "priority", False),
    (FIGURE, "max_workers", "2"),
    (FIGURE, "max_workers", -1),
    (FIGURE, "max_workers", True),
    (FIGURE, "samples", True),
], ids=lambda v: repr(v) if not isinstance(v, dict) else v["kind"])
def test_field_out_of_range_is_a_400_naming_it(server, base, field, value):
    with pytest.raises(ServiceError) as err:
        server.submit(dict(base, **{field: value}))
    assert err.value.status == 400
    assert f"'{field}'" in err.value.message
    assert server.jobs() == []


def test_a_refused_priority_leaves_no_record(server):
    spec = dict(FIGURE, priority="high")
    for _ in range(2):  # the resubmit is refused too, not deduped
        with pytest.raises(ServiceError) as err:
            server.submit(spec)
        assert err.value.status == 400
        assert "'priority' must be an integer" in err.value.message
    assert server.jobs() == []
    assert server.health()["queue"]["by_state"].get("queued", 0) == 0


def test_in_range_hints_are_accepted(server):
    status = server.submit(dict(FIGURE, seed=0, priority=-3,
                                max_workers=0))
    assert status["created"] is True
    assert status["priority"] == -3
    assert server.wait(status["id"], poll_s=30.0)["state"] == "done"
