"""Unit tests for EventHandle semantics.

Every handle belongs to the simulator that scheduled it, and is alive
exactly while its key is in that simulator's table.
"""


class TestEventHandle:
    def test_label_stored(self, sim):
        h = sim.at(1, lambda: None, label="tick")
        assert h.label == "tick"

    def test_when_and_seq_come_from_the_key(self, sim):
        sim.at(5, lambda: None)
        h = sim.after(5, lambda: None)
        assert (h.when, h.seq) == (5, 1)

    def test_alive_until_fired(self, sim):
        fired = []
        h = sim.at(1, lambda: fired.append(sim.now))
        assert h.alive
        sim.run()
        assert fired == [1]
        assert not h.alive
        assert h.cancel() is False

    def test_cancel_semantics(self, sim):
        fired = []
        h = sim.at(1, lambda: fired.append(sim.now))
        assert h.cancel() is True
        assert not h.alive
        assert h.cancel() is False
        sim.run()
        assert fired == []
