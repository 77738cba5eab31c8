"""One replay per trace, one walk per per-path series.

Every offline view of a trace reads the shared analysis replay
(``repro.obs.trace_export._Analysis``): the analyzer's logs, the metrics
collector and the span builder listen on one bus, the collector reads
the replay's :class:`~repro.mptcp.activity.ActivityLog` instead of
binning its own copy, and one :class:`~repro.energy.model.RadioTimeline`
walks each path's bursts and radio transitions for the collector's
residency, the energy model and the report's radio lanes.

The collector as it read before — private bins filled per
``PacketSent`` and copied into a fresh log at close — is kept here as
the oracle the shared form must equal, as ``tests/test_algorithm1.py``
keeps the old decision rules.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.energy.devices import DEVICES
from repro.energy.model import radio_transitions
from repro.experiments import SessionConfig, run_session
from repro.mptcp.activity import ActivityLog
from repro.obs import (EventBus, SessionMetricsCollector, Trace, TraceMeta,
                       analyzer_from_trace, attributions_from_trace,
                       check_trace, dump_jsonl, dumps_jsonl, loads_jsonl,
                       metrics_from_trace, registry_from_trace,
                       session_report_html, spans_from_trace)
from repro.obs.events import (RADIO_IDLE, ChunkDownloaded, ChunkRequested,
                              DeadlineMissed, HttpRequestSent,
                              HttpResponseReceived, PacketSent,
                              SchedulerActivated, SessionClosed, StallEnd,
                              StallStart, TransferCompleted, TransferStarted)
from repro.obs.spans import SpanBuilder, spans_to_dicts
from repro.obs.trace_export import _Analysis, replay


class PrivateBinsCollector(SessionMetricsCollector):
    """The collector before the shared replay: it bins every PacketSent
    into a private dict and copies it into a fresh log at close."""

    def __init__(self, bus, activity_bin, device):
        self._activity = {}
        super().__init__(bus, activity_bin=activity_bin, device=device)

    def _on_packet(self, event):
        state = self._packet_state.get(event.path)
        if state is None:
            labels = {"path": event.path}
            state = (
                self.registry.counter("repro_path_bytes_total", labels),
                self.registry.timeseries(
                    "repro_path_throughput_bytes_per_second", labels),
                self._activity.setdefault(event.path, {}))
            self._packet_state[event.path] = state
        total, throughput, bins = state
        total.inc(event.num_bytes)
        throughput.samples.append(
            (event.time, event.num_bytes / self._bin_width))
        index = int(event.time / self._bin_width)
        bins[index] = bins.get(index, 0.0) + event.num_bytes

    def _derive_radio_residency(self, session_end):
        if session_end <= 0 or not self._activity:
            return
        device = DEVICES.get(self.device)
        if device is None:
            return
        activity = ActivityLog(self._bin_width)
        activity._bins = {path: dict(bins)
                          for path, bins in self._activity.items()}
        for path in activity.paths():
            changes = radio_transitions(activity, path,
                                        device.for_interface(path),
                                        session_end)
            residency = {}
            state, since = RADIO_IDLE, 0.0
            for time, next_state in changes:
                residency[state] = residency.get(state, 0.0) + (time - since)
                state, since = next_state, time
            residency[state] = residency.get(state, 0.0) + (
                session_end - since)
            for state, seconds in residency.items():
                self.registry.gauge(
                    "repro_radio_residency_seconds",
                    {"path": path, "state": state}).add(seconds)


def oracle_registry(trace):
    bus = EventBus()
    collector = PrivateBinsCollector(bus, trace.meta.activity_bin,
                                     trace.meta.device)
    replay(trace.events, bus)
    return collector.registry.to_dict()


def standalone_spans(trace):
    bus = EventBus()
    builder = SpanBuilder(bus)
    replay(trace.events, bus)
    return spans_to_dicts(builder.spans)


# ----------------------------------------------------------------------
# Random streams
# ----------------------------------------------------------------------
@st.composite
def packet_streams(draw):
    """Positive PacketSent on several paths and connections, ending in
    SessionClosed; sometimes a few more packets arrive after it."""
    end = draw(st.sampled_from([0.35, 5.0, 30.0]))
    packets = draw(st.lists(
        st.tuples(st.floats(0.0, end * 1.2),
                  st.sampled_from(["wifi", "cellular"]),
                  st.sampled_from([1.0, 1500.0, 4e5]),
                  st.integers(0, 2)),
        max_size=60))
    events = [PacketSent(time, path, num_bytes, conn)
              for time, path, num_bytes, conn in packets]
    events.append(SessionClosed(end))
    late = draw(st.lists(st.tuples(st.floats(0.0, end * 1.2),
                                   st.sampled_from(["wifi", "cellular"])),
                         max_size=3))
    events.extend(PacketSent(time, path, 9000.0) for time, path in late)
    meta = TraceMeta(session_duration=end,
                     activity_bin=draw(st.sampled_from([0.1, 0.25])),
                     device=draw(st.sampled_from(sorted(DEVICES))))
    return Trace(meta=meta, events=events)


@given(packet_streams())
@settings(max_examples=200, deadline=None)
def test_shared_log_registry_equals_the_private_bins_oracle(trace):
    assert _Analysis(trace).collector.registry.to_dict() == \
        oracle_registry(trace)


@given(packet_streams())
@settings(max_examples=100, deadline=None)
def test_shared_timeline_energy_equals_a_fresh_walk(trace):
    """Packets after SessionClosed change the bins the collector walked
    at close; the energy read after the replay must see them."""
    assert metrics_from_trace(trace) == \
        analyzer_from_trace(trace).metrics(trace.meta.steady_state_fraction)


@st.composite
def chunk_streams(draw):
    """The per-chunk causal chain, with links dropped at random so the
    span builder's joins also see orphans."""
    events, time = [], 0.0
    for index in range(draw(st.integers(0, 6))):
        url = f"/seg{index % 3}"
        request, transfer = index + 1, 100 + index
        chain = [ChunkRequested(time, index, 2, 4.0),
                 HttpRequestSent(time, url, request),
                 TransferStarted(time, transfer, url, 5e5),
                 SchedulerActivated(time, transfer, 5e5, 2.0),
                 PacketSent(time + 0.5, "wifi", 3e5),
                 PacketSent(time + 0.5, "cellular", 2e5),
                 DeadlineMissed(time + 2.0, transfer),
                 TransferCompleted(time + 2.5, transfer, url, 5e5, 2.5),
                 HttpResponseReceived(time + 2.5, url, 200, 500000, request),
                 ChunkDownloaded(time + 2.5, index, 2, 5e5, 2.5, time,
                                 2e5, {"wifi": 3e5, "cellular": 2e5}, None,
                                 4.0),
                 StallStart(time + 2.6), StallEnd(time + 2.9)]
        events.extend(event for event in chain if draw(st.booleans()))
        time += 3.0
    events.append(SessionClosed(time))
    return Trace(meta=TraceMeta(session_duration=max(time, 1.0)),
                 events=events)


@given(chunk_streams())
@settings(max_examples=100, deadline=None)
def test_shared_replay_spans_equal_a_standalone_builder(trace):
    assert spans_to_dicts(spans_from_trace(trace)) == \
        standalone_spans(trace)
    assert _Analysis(trace).collector.registry.to_dict() == \
        oracle_registry(trace)


# ----------------------------------------------------------------------
# One replay, one walk, copies only for the public calls
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def text():
    result = run_session(SessionConfig(
        video="big_buck_bunny", abr="festive", mpdash=True,
        deadline_mode="rate", wifi_mbps=3.8, lte_mbps=3.0,
        video_duration=40.0, record_trace=True, collect_metrics=True))
    return dumps_jsonl(result.events, result.trace_meta)


def test_every_view_reads_one_replay_and_one_walk_per_path(text,
                                                           monkeypatch):
    import repro.energy.model as model
    import repro.obs.trace_export as trace_export
    from repro.obs.metrics import MetricsRegistry

    calls = {"replay": 0, "bursts": [], "transitions": [], "copy": 0}
    original_replay = trace_export.replay
    original_bursts = ActivityLog.bursts
    original_transitions = model.radio_transitions
    original_copy = MetricsRegistry.copy

    def spy_replay(events, bus):
        calls["replay"] += 1
        return original_replay(events, bus)

    def spy_bursts(log, path, until):
        calls["bursts"].append(path)
        return original_bursts(log, path, until)

    def spy_transitions(activity, path, profile, end):
        calls["transitions"].append(path)
        return original_transitions(activity, path, profile, end)

    def spy_copy(registry):
        calls["copy"] += 1
        return original_copy(registry)

    paths = sorted(_Analysis(loads_jsonl(text)).activity.paths())
    assert paths == ["cellular", "wifi"]
    monkeypatch.setattr(trace_export, "replay", spy_replay)
    monkeypatch.setattr(ActivityLog, "bursts", spy_bursts)
    monkeypatch.setattr(model, "radio_transitions", spy_transitions)
    monkeypatch.setattr(MetricsRegistry, "copy", spy_copy)

    trace = loads_jsonl(text)
    report = check_trace(trace)
    assert spans_from_trace(trace)
    attributions_from_trace(trace, report=report)
    attributions_from_trace(trace)
    registry_from_trace(trace)
    metrics_from_trace(trace)
    assert session_report_html(trace)
    assert calls["replay"] == 1
    assert sorted(calls["bursts"]) == paths
    assert sorted(calls["transitions"]) == paths
    # registry_from_trace's and the report's: each public lookup copies.
    assert calls["copy"] == 2


def test_live_collector_bins_its_own_log(text):
    """Without a log passed in, the collector fills one of its own, equal
    to the one the shared replay reads."""
    trace = loads_jsonl(text)
    bus = EventBus()
    collector = SessionMetricsCollector(
        bus, activity_bin=trace.meta.activity_bin, device=trace.meta.device)
    replay(trace.events, bus)
    shared = _Analysis(trace)
    assert collector.activity is not shared.activity
    assert collector.activity._bins == shared.activity._bins
    assert collector.registry.to_dict() == \
        shared.collector.registry.to_dict()


def test_own_log_collector_skips_a_packet_at_a_non_finite_time():
    """The offline pattern the collector documents (a bus of its own,
    then replay) accepts what the shared replay accepts."""
    trace = Trace(meta=TraceMeta(session_duration=3.0), events=[
        PacketSent(0.5, "wifi", 1500.0),
        PacketSent(float("nan"), "wifi", 1500.0),
        PacketSent(float("inf"), "cellular", 1500.0), SessionClosed(3.0)])
    bus = EventBus()
    collector = SessionMetricsCollector(bus)
    replay(trace.events, bus)
    assert collector.activity.paths() == ["wifi"]
    assert collector.registry.to_dict() == registry_from_trace(trace).to_dict()


# ----------------------------------------------------------------------
# Non-positive deliveries
# ----------------------------------------------------------------------
def three_events(num_bytes):
    return Trace(meta=TraceMeta(session_duration=5.0), events=[
        PacketSent(0.5, "wifi", 1500.0),
        PacketSent(0.6, "cellular", num_bytes),
        SessionClosed(5.0)])


@pytest.mark.parametrize("num_bytes", [-600.0, 0.0])
def test_non_positive_deliveries_are_skipped_like_the_activity_log(
        num_bytes):
    trace = three_events(num_bytes)
    registry = registry_from_trace(trace)
    paths = {dict(metric.labels).get("path") for metric in registry}
    assert paths == {"wifi", None}
    assert _Analysis(trace).activity.paths() == ["wifi"]
    assert registry.get("repro_path_bytes_total",
                        {"path": "wifi"}).value == 1500.0


def test_report_shows_the_negative_delivery_violation():
    trace = three_events(-600.0)
    assert [v.checker for v in check_trace(trace).violations] == \
        ["byte-conservation"]
    html = session_report_html(trace)
    assert "byte-conservation" in html
    assert "negative PacketSent on 'cellular': -600.0" in html


@pytest.mark.parametrize("command", [["stats"], ["report", "--out", "{out}"],
                                     ["spans"], ["check"]])
def test_commands_load_a_negative_delivery_without_a_traceback(
        command, tmp_path, capsys):
    path = tmp_path / "negative.jsonl"
    trace = three_events(-600.0)
    dump_jsonl(str(path), trace.events, trace.meta)
    argv = [arg.format(out=tmp_path / "out.html") for arg in command]
    status = main(argv + ["--load", str(path)])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert status == (1 if command == ["check"] else 0)


def test_a_trace_without_positive_bins_is_rejected_by_the_loader(
        tmp_path, capsys):
    path = tmp_path / "unbinned.jsonl"
    path.write_text('{"meta":{"activity_bin":0.0,"session_duration":1.0}}\n'
                    '{"time":1.0,"type":"SessionClosed"}\n')
    assert main(["spans", "--load", str(path)]) == 1
    captured = capsys.readouterr()
    assert "activity_bin must be positive" in captured.err
    assert "Traceback" not in captured.err


def test_spans_and_why_survive_what_the_analysis_logs_reject(tmp_path,
                                                             capsys):
    """Spans and attributions read the shared replay, so its logs must
    accept any stream the span builder accepts: an unpaired StallEnd, a
    path no radio profile covers and a packet at a non-finite time."""
    trace = Trace(meta=TraceMeta(session_duration=3.0), events=[
        StallEnd(1.0), PacketSent(1.5, "ethernet", 1500.0),
        PacketSent(float("nan"), "wifi", 1500.0),
        PacketSent(float("inf"), "wifi", 1500.0), SessionClosed(3.0)])
    assert [span.kind for span in spans_from_trace(trace)] == ["session"]
    assert {v.checker for v in check_trace(trace).violations} == \
        {"stall-pairing", "monotonic-time"}
    assert _Analysis(trace).activity.paths() == ["ethernet"]
    assert registry_from_trace(trace).get(
        "repro_path_bytes_total", {"path": "ethernet"}).value == 1500.0
    path = tmp_path / "odd.jsonl"
    dump_jsonl(str(path), trace.events, trace.meta)
    assert main(["spans", "--load", str(path)]) == 0
    assert main(["why", "--load", str(path)]) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err


# ----------------------------------------------------------------------
# Paths no radio profile covers
# ----------------------------------------------------------------------
def ethernet_trace(with_ethernet=True):
    events = [PacketSent(0.5, "wifi", 1500.0), SessionClosed(5.0)]
    if with_ethernet:
        events.insert(1, PacketSent(0.6, "ethernet", 600.0))
    return Trace(meta=TraceMeta(session_duration=5.0), events=events)


def test_energy_and_radio_lanes_cover_only_profiled_interfaces():
    """As radio residency does, energy and the report's radio lanes skip
    a path the device has no radio profile for; its bytes still count."""
    trace = ethernet_trace()
    analyzer = analyzer_from_trace(trace)
    assert analyzer.radio_transitions("ethernet", 5.0) == []
    assert analyzer.radio_transitions("wifi", 5.0) == \
        analyzer_from_trace(ethernet_trace(False)).radio_transitions(
            "wifi", 5.0)
    assert registry_from_trace(trace).get(
        "repro_path_bytes_total", {"path": "ethernet"}).value == 600.0
    metrics = metrics_from_trace(trace)
    assert metrics.energy_per_path == \
        metrics_from_trace(ethernet_trace(False)).energy_per_path
    assert metrics.energy_total == \
        metrics_from_trace(ethernet_trace(False)).energy_total > 0
    html = session_report_html(trace)
    assert "wifi energy" in html and "ethernet energy" not in html


def test_report_and_trace_load_a_path_no_radio_profile_covers(tmp_path,
                                                              capsys):
    path = tmp_path / "ethernet.jsonl"
    trace = ethernet_trace()
    dump_jsonl(str(path), trace.events, trace.meta)
    assert main(["report", "--out", str(tmp_path / "out.html"),
                 "--load", str(path)]) == 0
    assert main(["trace", "--load", str(path)]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_a_live_metrics_session_walks_each_path_once(monkeypatch):
    """``run_session`` builds its collector on the connection's log, so
    the residency and the analyzer's energy share one walk per path, and
    the session measures what an uninstrumented one does."""
    config = SessionConfig(video="big_buck_bunny", abr="festive",
                           wifi_mbps=3.8, lte_mbps=3.0, video_duration=30.0)
    bare = run_session(config)
    walked = []
    original_bursts = ActivityLog.bursts

    def spy_bursts(log, path, until):
        walked.append(path)
        return original_bursts(log, path, until)

    monkeypatch.setattr(ActivityLog, "bursts", spy_bursts)
    result = run_session(replace(config, collect_metrics=True))
    assert sorted(walked) == sorted(result.analyzer.activity.paths())
    assert result.analyzer.timeline is not None
    assert result.metrics == bare.metrics
