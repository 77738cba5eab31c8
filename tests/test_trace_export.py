"""JSONL trace export: round trips, offline replay, and radio timelines."""

import io

import pytest

from repro.energy.devices import GALAXY_NOTE
from repro.energy.model import radio_state_events
from repro.experiments import SessionConfig, run_session
from repro.mptcp.activity import ActivityLog
from repro.obs import (RADIO_ACTIVE, RADIO_IDLE, RADIO_TAIL, EventBus,
                       Trace, TraceMeta, TraceRecorder, dump_jsonl,
                       dumps_jsonl, gzip_bytes, load_jsonl, loads_jsonl,
                       metrics_from_trace, replay)
from repro.obs.events import PacketSent, StallStart
from repro.obs.trace_export import analyzer_from_trace


def _short_session(**overrides):
    kwargs = dict(video_duration=40.0, mpdash=True, record_trace=True)
    kwargs.update(overrides)
    return run_session(SessionConfig(**kwargs))


class TestRecorder:
    def test_records_in_publication_order(self):
        bus = EventBus()
        recorder = TraceRecorder(bus)
        bus.publish(StallStart(1.0))
        bus.publish(PacketSent(2.0, "wifi", 10.0))
        assert [type(e).__name__ for e in recorder.events] == [
            "StallStart", "PacketSent"]

    def test_session_capture_off_by_default(self):
        result = run_session(SessionConfig(video_duration=20.0))
        assert result.events is None
        with pytest.raises(ValueError, match="record_trace"):
            result.export_trace(io.StringIO())


class TestRoundTrip:
    def test_text_round_trip_is_exact(self):
        result = _short_session()
        text = dumps_jsonl(result.events, result.trace_meta)
        trace = loads_jsonl(text)
        assert trace.meta == result.trace_meta
        assert trace.events == result.events
        # Re-dumping the loaded trace reproduces the bytes.
        assert dumps_jsonl(trace.events, trace.meta) == text

    def test_file_round_trip(self, tmp_path):
        result = _short_session()
        path = tmp_path / "session.jsonl"
        result.export_trace(str(path))
        trace = load_jsonl(str(path))
        assert trace.events == result.events

    def test_gzip_round_trip_is_exact(self, tmp_path):
        result = _short_session()
        path = tmp_path / "session.jsonl.gz"
        dump_jsonl(str(path), result.events, result.trace_meta)
        trace = load_jsonl(str(path))
        assert trace.meta == result.trace_meta
        assert trace.events == result.events
        assert dumps_jsonl(trace.events, trace.meta) == \
            dumps_jsonl(result.events, result.trace_meta)

    def test_gzip_and_plain_carry_the_same_trace(self, tmp_path):
        result = _short_session()
        plain = tmp_path / "session.jsonl"
        packed = tmp_path / "session.jsonl.gz"
        dump_jsonl(str(plain), result.events, result.trace_meta)
        dump_jsonl(str(packed), result.events, result.trace_meta)
        assert packed.stat().st_size < plain.stat().st_size
        assert load_jsonl(str(packed)).events == \
            load_jsonl(str(plain)).events

    def test_gzip_bytes_is_deterministic(self, tmp_path):
        # mtime is pinned, so equal traces compress to equal bytes —
        # the property the flight recorder's artifact identity rests on.
        result = _short_session()
        text = dumps_jsonl(result.events, result.trace_meta).encode()
        assert gzip_bytes(text) == gzip_bytes(text)
        one = tmp_path / "one.jsonl.gz"
        two = tmp_path / "two.jsonl.gz"
        dump_jsonl(str(one), result.events, result.trace_meta)
        dump_jsonl(str(two), result.events, result.trace_meta)
        assert one.read_bytes() == two.read_bytes()

    def test_offline_metrics_identical_to_live(self):
        result = _short_session()
        trace = loads_jsonl(dumps_jsonl(result.events, result.trace_meta))
        assert metrics_from_trace(trace) == result.metrics

    def test_offline_metrics_identical_for_vanilla_session(self):
        result = _short_session(mpdash=False)
        trace = loads_jsonl(dumps_jsonl(result.events, result.trace_meta))
        assert metrics_from_trace(trace) == result.metrics

    def test_analyzer_from_trace_rebuilds_views(self):
        result = _short_session()
        trace = loads_jsonl(dumps_jsonl(result.events, result.trace_meta))
        offline = analyzer_from_trace(trace)
        live = result.analyzer
        assert offline.session_duration == live.session_duration
        for path in live.activity.paths():
            assert (offline.activity.total_bytes(path)
                    == live.activity.total_bytes(path))
        assert len(offline.log.chunks) == len(live.log.chunks)
        assert ([c.level for c in offline.log.chunks]
                == [c.level for c in live.log.chunks])
        assert offline.utilization() == live.utilization()

    def test_count_by_type(self):
        result = _short_session()
        trace = Trace(meta=result.trace_meta, events=result.events)
        counts = trace.count_by_type()
        assert counts["SessionClosed"] == 1
        assert counts["ChunkDownloaded"] == len(result.analyzer.log.chunks)
        assert sum(counts.values()) == len(result.events)


class TestLoaderValidation:
    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            loads_jsonl("")

    def test_missing_meta_rejected(self):
        with pytest.raises(ValueError, match="meta"):
            loads_jsonl('{"type":"StallStart","time":0.0}\n')

    def test_wrong_version_rejected(self):
        text = dumps_jsonl([], TraceMeta(session_duration=1.0, version=99))
        with pytest.raises(ValueError, match="version"):
            loads_jsonl(text)

    def test_dump_to_file_object(self):
        buffer = io.StringIO()
        dump_jsonl(buffer, [StallStart(1.0)],
                   TraceMeta(session_duration=2.0))
        trace = load_jsonl(io.StringIO(buffer.getvalue()))
        assert trace.events == [StallStart(1.0)]


class TestReplay:
    def test_replay_preserves_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe_all(seen.append)
        events = [StallStart(1.0), PacketSent(2.0, "wifi", 5.0)]
        replay(events, bus)
        assert seen == events


class TestRadioTimeline:
    def test_states_alternate_and_start_active(self):
        activity = ActivityLog(0.1)
        activity.record(0.0, "cellular", 1000.0)
        activity.record(5.0, "cellular", 1000.0)
        events = radio_state_events(activity, "cellular",
                                    GALAXY_NOTE.lte, session_end=20.0)
        states = [e.state for e in events]
        assert states[0] == RADIO_ACTIVE
        assert RADIO_TAIL in states and RADIO_IDLE in states
        times = [e.time for e in events]
        assert times == sorted(times)
