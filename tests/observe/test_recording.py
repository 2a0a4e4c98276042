"""Trace recordings: capture, exact closure, persistence, ring wrap."""

import gc
import hashlib
import json
import os
import sys
import threading
import types

import pytest

from repro.experiments.scenario import run_scenario, scenario
from repro.observe.diff import (
    RecordingError,
    TraceRecording,
    diff_recordings,
    extract_spans,
    golden_names,
    golden_path,
    record_scenario,
    spec_for_recording,
)
from repro.observe.tracer import TraceConfig
from repro.store import (canonical_json, decode_recording, digest_of,
                         encode_recording)


def _spec(samples=40, **kw):
    return scenario("fig6").configured(samples=samples, seed=1, **kw)


@pytest.fixture(scope="module")
def fig6_rec():
    rec, _result = record_scenario(_spec(), capacity=8192)
    return rec


class TestCapture:
    def test_recording_rides_on_result(self):
        result = run_scenario(
            _spec(), trace=TraceConfig(capacity=4096, record=True))
        body = result.trace["recording"]
        assert body["scenario"] == "fig6"
        rec = TraceRecording.from_body(body)
        assert rec.seed == 1
        assert rec.shielded
        assert rec.capacity == 4096

    def test_no_recording_without_the_flag(self):
        result = run_scenario(_spec(), trace=TraceConfig(capacity=4096))
        assert "recording" not in (result.trace or {})

    def test_every_sample_closes_exactly(self, fig6_rec):
        assert fig6_rec.samples
        for _end, latency, breakdown in fig6_rec.samples:
            assert sum(breakdown.values()) == latency
            assert 0 not in breakdown.values()

    def test_events_are_time_ordered(self, fig6_rec):
        times = [row[0] for row in fig6_rec.events]
        assert times == sorted(times)

    def test_body_is_json_plain(self, fig6_rec):
        body = fig6_rec.to_body()
        loaded = json.loads(json.dumps(body))
        assert canonical_json(loaded) == canonical_json(body)
        assert diff_recordings(TraceRecording.from_body(loaded),
                               fig6_rec).identical

    def test_faults_summary_rides_on_storm_recordings(self):
        spec = scenario("storm-fig6").configured(samples=30, seed=1)
        rec, _result = record_scenario(spec, capacity=4096)
        assert rec.fault_plan == "storm-fig6"
        assert rec.faults is not None
        assert rec.faults["injections"] > 0


class TestPersistence:
    def test_save_load_roundtrip(self, fig6_rec, tmp_path):
        path = str(tmp_path / "fig6.rtrace")
        fig6_rec.save(path)
        back = TraceRecording.load(path)
        assert (canonical_json(back.to_body())
                == canonical_json(fig6_rec.to_body()))
        assert diff_recordings(back, fig6_rec).identical

    def test_corrupt_file_raises_recording_error(self, fig6_rec,
                                                 tmp_path):
        path = str(tmp_path / "fig6.rtrace")
        fig6_rec.save(path)
        with open(path, "r+b") as fh:
            fh.seek(40)
            fh.write(b"\xff\xff")
        with pytest.raises(RecordingError):
            TraceRecording.load(path)

    def test_missing_file_raises_recording_error(self, tmp_path):
        with pytest.raises(RecordingError):
            TraceRecording.load(str(tmp_path / "nope.rtrace"))

    def test_body_that_no_longer_matches_its_key_is_refused(
            self, fig6_rec, tmp_path):
        # A changed body re-framed under its old key passes the CRC and
        # length checks; only the body digest can catch it.
        path = str(tmp_path / "fig6.rtrace")
        fig6_rec.save(path)
        with open(path, "rb") as fh:
            meta, body = decode_recording(fh.read())
        body["dropped"] += 1
        with open(path, "wb") as fh:
            fh.write(encode_recording(body, meta["key"], meta["code"]))
        with pytest.raises(RecordingError) as info:
            TraceRecording.load(path)
        assert meta["key"] in str(info.value)
        assert digest_of(body) in str(info.value)

    @pytest.mark.parametrize("name", golden_names())
    def test_committed_goldens_self_validate(self, name):
        rec = TraceRecording.load(golden_path(name))
        assert rec.samples

    def test_threads_saving_one_path_leave_it_whole(self, fig6_rec,
                                                    tmp_path):
        path = str(tmp_path / "fig6.rtrace")
        errors = []

        def saver():
            try:
                for _ in range(10):
                    fig6_rec.save(path)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=saver) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        back = TraceRecording.load(path)
        assert (canonical_json(back.to_body())
                == canonical_json(fig6_rec.to_body()))
        assert diff_recordings(back, fig6_rec).identical
        assert os.listdir(tmp_path) == ["fig6.rtrace"]

    def test_unsupported_format_rejected(self, fig6_rec):
        body = fig6_rec.to_body()
        body["recording_format"] = 99
        with pytest.raises(RecordingError):
            TraceRecording.from_body(body)


class TestReplay:
    def test_spec_for_recording_rebuilds_the_run(self, fig6_rec):
        spec = spec_for_recording(fig6_rec)
        assert spec.name == "fig6"
        assert spec.measurement.samples == 40
        assert spec.seed == 1
        assert spec.shield.any_component

    def test_unshielded_twin_round_trips(self):
        base = scenario("fig6").configured(samples=20, seed=1)
        from repro.experiments.scenario import ShieldSpec

        twin = base.with_overrides(
            shield=ShieldSpec(cpu=base.shield.cpu))
        rec, _result = record_scenario(twin, capacity=4096)
        assert not rec.shielded
        spec = spec_for_recording(rec)
        assert not spec.shield.any_component
        assert spec.shield.cpu == base.shield.cpu


def _reference_spans(events):
    """The span extraction as first written (enum codes, ``max`` per
    row, a lambda sort key): the oracle for the plain-int version."""
    from repro.observe.diff.align import Span
    from repro.observe.tracepoints import TP

    frames, toggles, first_time, spans = {}, {}, {}, []
    last_time = 0
    for row in events:
        t, cpu, tp, args = int(row[0]), int(row[1]), int(row[2]), row[3]
        last_time = max(last_time, t)
        if cpu not in first_time:
            first_time[cpu] = t
        if tp == TP.FRAME_PUSH:
            kind, label, owner = args
            frames.setdefault(cpu, []).append(
                Span(cpu, kind, owner or label, t, t))
        elif tp == TP.FRAME_POP:
            kind, label, owner = args
            stack = frames.get(cpu)
            if stack:
                span = stack.pop()
                span.end = t
            else:
                span = Span(cpu, kind, owner or label, first_time[cpu], t,
                            synthetic=True)
            spans.append(span)
        elif tp == TP.IRQS_OFF:
            toggles[(cpu, "irq_off")] = Span(cpu, "irq_off", "", t, t)
        elif tp == TP.IRQS_ON:
            span = toggles.pop((cpu, "irq_off"), None)
            if span is None:
                span = Span(cpu, "irq_off", "", first_time[cpu], t,
                            synthetic=True)
            else:
                span.end = t
            spans.append(span)
        elif tp == TP.PREEMPT_OFF:
            toggles[(cpu, "preempt_off")] = Span(
                cpu, "preempt_off", args[0] if args else "", t, t)
        elif tp == TP.PREEMPT_ON:
            span = toggles.pop((cpu, "preempt_off"), None)
            if span is None:
                span = Span(cpu, "preempt_off", args[0] if args else "",
                            first_time[cpu], t, synthetic=True)
            else:
                span.end = t
            spans.append(span)
    for stack in frames.values():
        for span in stack:
            span.end = last_time
            span.synthetic = True
            spans.append(span)
    for span in toggles.values():
        span.end = last_time
        span.synthetic = True
        spans.append(span)
    spans.sort(key=lambda s: (s.start, s.cpu, s.kind, s.name))
    return spans


class TestSpanOracle:
    """``extract_spans`` equals its first version, span for span."""

    def test_full_recording(self, fig6_rec):
        spans = [s.to_dict() for s in extract_spans(fig6_rec.events)]
        assert spans == [s.to_dict()
                         for s in _reference_spans(fig6_rec.events)]
        assert any(s["kind"] == "preempt_off" for s in spans)

    def test_ring_wrapped_recording(self):
        rec, _result = record_scenario(_spec(samples=60), capacity=96)
        assert rec.dropped > 0
        spans = [s.to_dict() for s in extract_spans(rec.events)]
        assert spans == [s.to_dict() for s in _reference_spans(rec.events)]
        assert any(s["synthetic"] for s in spans)


class TestRingWrap:
    """The satellite case: recordings that wrapped the ring still
    align, diff and report -- the window is truncated, never wrong."""

    def test_wrapped_recording_is_marked_and_usable(self):
        rec, _result = record_scenario(_spec(samples=60), capacity=256)
        assert rec.dropped > 0          # the ring really wrapped
        spans = extract_spans(rec.events)
        assert spans
        window_start = min(row[0] for row in rec.events)
        for span in spans:
            assert span.start >= window_start
            assert span.end >= span.start

    def test_wrap_boundary_orphan_pop_synthesizes_span(self):
        # An orphan FRAME_POP right at the wrap boundary gets a
        # synthetic span opened at the surviving window's start.
        from repro.observe.tracepoints import TP

        events = [
            [1_000, 0, int(TP.TIMER_TICK), []],
            [3_000, 0, int(TP.FRAME_POP), ["task", "rt", "rt"]],
        ]
        spans = extract_spans(events)
        task = [s for s in spans if s.kind == "task"]
        assert len(task) == 1
        assert task[0].synthetic
        assert task[0].start == 1_000
        assert task[0].end == 3_000

    def test_wrapped_ring_keeps_the_newest_rows(self):
        # Pinned counts: each CPU's 64-row ring keeps its newest rows,
        # and every evicted row counts as dropped.
        spec = scenario("fig6").configured(samples=200, seed=3)
        rec, _result = record_scenario(spec, capacity=64)
        assert len(rec.events) == 128
        assert rec.dropped == 27_160

    def test_identical_wrapped_runs_diff_identical(self):
        rec_a, _ = record_scenario(_spec(samples=60), capacity=256)
        rec_b, _ = record_scenario(_spec(samples=60), capacity=256)
        diff = diff_recordings(rec_a, rec_b)
        assert diff.identical
        assert diff.latency_delta_ns == 0


#: ``code`` stands in for the source-tree digest, so the pins below
#: hold on any tree.
_PINNED_CODE = "0" * 64

#: (scenario, samples, capacity) -> (digest_of(body), sha256 of the
#: RTRACE1 frame), seed 1.  A change that moves either one changes the
#: bytes every recording is stored as.
_RECORDING_PINS = {
    ("fig6", 300, 65536): (
        "9d1127652fec775930dbaaa51630fc191d41605df5028095e638b3d55d32fb54",
        "360041e7dbc62bef5f7c7eb70562849a01b81fb35bd8bd2839d47a7f87a51879"),
    # The 4,096-row rings wrap: 8,192 rows kept, 31,802 dropped.
    ("fig5", 100, 4096): (
        "0ccd0657c88942f7dd8c0818b9bd1a21edabdf38730f8d6fbeb3372a8ffc7f6b",
        "64ff58cec74c68016448e8e2e7b7815239939ba473ee18d971eaa0f2cdfb0e20"),
}


class TestRecordingBytes:
    @pytest.mark.parametrize("name,samples,capacity",
                             sorted(_RECORDING_PINS))
    def test_body_digest_and_frame_are_pinned(self, name, samples,
                                              capacity):
        spec = scenario(name).configured(samples=samples, seed=1)
        result = run_scenario(
            spec, trace=TraceConfig(capacity=capacity, record=True))
        body = result.trace["recording"]
        body["code"] = _PINNED_CODE
        digest = digest_of(body)
        frame = encode_recording(body, digest, _PINNED_CODE)
        assert (digest, hashlib.sha256(frame).hexdigest()) \
            == _RECORDING_PINS[(name, samples, capacity)]


class TestRingRelease:
    def test_body_rows_are_held_by_the_body_alone(self):
        # run_scenario empties the rings once the recording is built, so
        # its rows die with the body instead of with the bench's cycle.
        result = run_scenario(
            _spec(), trace=TraceConfig(capacity=4096, record=True))
        events = result.trace["recording"]["events"]
        row = events[len(events) // 2]
        holders = [ref for ref in gc.get_referrers(row)
                   if not isinstance(ref, types.FrameType)]
        assert len(holders) == 1 and holders[0] is events
