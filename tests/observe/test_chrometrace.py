"""Chrome trace-event export: balanced frames, instants, wrap repair."""

import hashlib
import json

from repro.experiments.scenario import run_scenario, scenario
from repro.observe.chrometrace import build_trace_events, to_chrome_trace
from repro.observe.tracepoints import Tracepoints
from repro.observe.tracer import TraceConfig


def _tp(ncpus=1, capacity=64):
    tp = Tracepoints(capacity=capacity)
    tp.configure(ncpus)
    tp.enable()
    return tp


def _by_phase(events, ph, tid=None):
    return [e for e in events if e["ph"] == ph
            and (tid is None or e["tid"] == tid)]


class TestBuilder:
    def test_metadata_tracks_per_cpu(self):
        tp = _tp(ncpus=2)
        events = build_trace_events(tp)
        meta = _by_phase(events, "M")
        names = [e for e in meta if e["name"] == "thread_name"]
        assert [e["args"]["name"] for e in names] == ["cpu0", "cpu1"]

    def test_frames_become_balanced_duration_events(self):
        tp = _tp()
        tp.frame_push(1000, 0, "task", "rt", "rt")
        tp.frame_push(2000, 0, "hardirq", "irq60", "")
        tp.frame_pop(3000, 0, "hardirq", "irq60", "")
        tp.frame_pop(4000, 0, "task", "rt", "rt")
        events = build_trace_events(tp)
        begins = _by_phase(events, "B")
        ends = _by_phase(events, "E")
        assert len(begins) == len(ends) == 2
        assert begins[0]["name"] == "rt"
        assert begins[1]["name"] == "hardirq:irq60"
        assert begins[0]["ts"] == 1.0  # ns -> us

    def test_instants_render_with_scope(self):
        tp = _tp()
        tp.sched_wake(500, 0, "rt", 1)
        tp.irq_raise(600, 0, 60, "rtc")
        events = build_trace_events(tp)
        instants = _by_phase(events, "i")
        assert [e["name"] for e in instants] == ["wake rt", "irq60 raise"]
        assert all(e["s"] == "t" for e in instants)
        assert instants[0]["args"] == {"from_cpu": 1}

    def test_ring_wrap_synthesizes_missing_begin(self):
        tp = _tp(capacity=2)
        tp.frame_push(1000, 0, "task", "rt", "rt")
        tp.timer_tick(2000, 0)
        tp.frame_pop(3000, 0, "task", "rt", "rt")  # evicts the push
        assert tp.dropped() == 1
        events = build_trace_events(tp)
        begins = _by_phase(events, "B")
        ends = _by_phase(events, "E")
        assert len(begins) == len(ends) == 1
        # Synthesized at the surviving window's start, not at 1000.
        assert begins[0]["ts"] == 2.0

    def test_still_open_frames_are_closed_at_window_end(self):
        tp = _tp()
        tp.frame_push(1000, 0, "task", "rt", "rt")
        tp.timer_tick(5000, 0)
        events = build_trace_events(tp)
        ends = _by_phase(events, "E")
        assert len(ends) == 1
        assert ends[0]["ts"] == 5.0

    def test_counter_tracks_toggle_and_track_max(self):
        tp = _tp()
        tp.irqs_off(1000, 0)
        tp.irqs_on(4000, 0)      # 3 us window
        tp.irqs_off(5000, 0)
        tp.irqs_on(5500, 0)      # 0.5 us window: max unchanged
        events = build_trace_events(tp)
        state = [e for e in events if e["ph"] == "C"
                 and e["name"] == "cpu0 irq-off"]
        # initial 0, then 1/0 per toggle pair
        assert [e["args"]["on"] for e in state] == [0, 1, 0, 1, 0]
        peaks = [e for e in events if e["ph"] == "C"
                 and e["name"] == "cpu0 max irq-off (us)"]
        assert [e["args"]["us"] for e in peaks] == [0.0, 3.0]
        assert peaks[-1]["ts"] == 4.0  # stamped where the max closed

    def test_bkl_counter_uses_release_hold_ns(self):
        tp = _tp(capacity=2)
        tp.lock_acquire(1000, 0, "bkl", "rt", True)
        tp.timer_tick(2000, 0)
        # acquire evicted by wrap; hold_ns keeps the max exact
        tp.lock_release(9000, 0, "bkl", "rt", 8000, True)
        events = build_trace_events(tp)
        peaks = [e for e in events if e["ph"] == "C"
                 and e["name"] == "cpu0 max bkl (us)"]
        assert [e["args"]["us"] for e in peaks] == [0.0, 8.0]

    def test_open_state_closes_at_window_end(self):
        tp = _tp()
        tp.preempt_off(1000, 0, "rt")
        tp.timer_tick(6000, 0)
        events = build_trace_events(tp)
        state = [e for e in events if e["ph"] == "C"
                 and e["name"] == "cpu0 preempt-off"]
        assert [e["args"]["on"] for e in state] == [0, 1, 0]
        assert state[-1]["ts"] == 6.0

    def test_document_shape(self):
        tp = _tp()
        tp.timer_tick(1000, 0)
        doc = to_chrome_trace(tp, metadata={"scenario": "x", "seed": 3})
        assert doc["displayTimeUnit"] == "ns"
        assert doc["otherData"] == {"scenario": "x", "seed": 3}
        assert json.loads(json.dumps(doc)) == doc  # JSON-safe


class TestScenarioExport:
    def test_run_scenario_writes_perfetto_json(self, tmp_path):
        out = tmp_path / "fig6.trace.json"
        spec = scenario("fig6").configured(samples=200)
        result = run_scenario(spec, trace=TraceConfig(out=str(out)))
        assert result.trace is not None
        with out.open("r", encoding="utf-8") as fh:
            doc = json.load(fh)
        events = doc["traceEvents"]
        assert doc["otherData"]["scenario"] == "fig6"
        assert any(e["ph"] == "B" for e in events)
        # Every thread's duration events balance even after ring wrap.
        for tid in sorted({e["tid"] for e in events}):
            assert (len(_by_phase(events, "B", tid))
                    == len(_by_phase(events, "E", tid)))

    def test_fig6_export_bytes_are_pinned(self, tmp_path):
        # The export's metadata is only scenario and seed, so its bytes
        # are stable enough to pin.
        out = tmp_path / "fig6.trace.json"
        spec = scenario("fig6").configured(samples=300, seed=1)
        run_scenario(spec, trace=TraceConfig(out=str(out)))
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "a728435fcd0e219d0aff3cd5089370d6b3f27174d71d7b1017d2ab42cb0fff4b")

    def test_fault_injections_are_named_by_their_key(self, tmp_path):
        out = tmp_path / "storm.trace.json"
        spec = scenario("storm-fig6").configured(samples=300, seed=1)
        run_scenario(spec, trace=TraceConfig(out=str(out)))
        doc = json.loads(out.read_text(encoding="utf-8"))
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "i"}
        assert "fault:irq-storm#0" in names
        assert not [n for n in names if n.startswith("fault fault:")]
