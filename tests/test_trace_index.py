"""The per-trace view index: every offline view computed once, served
read-only, and equal to the same view of a freshly loaded copy."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler import DeadlineAwareScheduler
from repro.energy import GALAXY_S3
from repro.experiments import SessionConfig, run_session
from repro.obs import (MetricsRegistry, Trace, analyzer_from_trace,
                       attributions_from_trace, check_trace, dumps_jsonl,
                       loads_jsonl, metrics_from_trace, registry_from_trace,
                       session_report_html, spans_from_trace)
from repro.obs.check import Checker, MonotonicTimeChecker
from repro.obs.events import SessionClosed, StallStart
from repro.obs.spans import spans_to_dicts


@pytest.fixture(scope="module")
def text():
    """A recorded session with a seeded scheduler fault, so every view —
    violations and attributions included — has something to show."""
    original = DeadlineAwareScheduler.on_transfer_start

    def faulty(scheduler, now, transfer, conn):
        original(scheduler, now, transfer, conn)
        if scheduler.active:
            for name in conn.path_names():
                conn.request_path_state(name, False)

    DeadlineAwareScheduler.on_transfer_start = faulty
    try:
        result = run_session(SessionConfig(
            video="big_buck_bunny", abr="festive", mpdash=True,
            deadline_mode="rate", wifi_mbps=3.8, lte_mbps=3.0,
            video_duration=40.0, record_trace=True, collect_metrics=True))
    finally:
        DeadlineAwareScheduler.on_transfer_start = original
    return dumps_jsonl(result.events, result.trace_meta)


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True,
                                     default=repr).encode()).hexdigest()


#: Every public view of a trace, as a JSON-able value.
VIEWS = {
    "check": lambda trace: check_trace(trace).to_dict(),
    "spans": lambda trace: spans_to_dicts(spans_from_trace(trace)),
    "registry": lambda trace: registry_from_trace(trace).to_dict(),
    "why": lambda trace: [a.to_dict()
                          for a in attributions_from_trace(trace)],
    "metrics": lambda trace: repr(metrics_from_trace(trace)),
    "analyzer": lambda trace: repr(analyzer_from_trace(trace).metrics()),
    "report": session_report_html,
}


@pytest.fixture(scope="module")
def expected(text):
    """Each view's digest, each computed on its own fresh copy."""
    return {name: digest(view(loads_jsonl(text)))
            for name, view in VIEWS.items()}


def test_fault_gives_every_view_content(text):
    trace = loads_jsonl(text)
    assert not check_trace(trace).ok
    assert attributions_from_trace(trace)
    assert spans_from_trace(trace) and len(registry_from_trace(trace))


@given(st.lists(st.sampled_from(sorted(VIEWS)), min_size=1, max_size=12))
@settings(max_examples=25, deadline=None)
def test_any_call_order_matches_a_fresh_copy(text, expected, order):
    trace = loads_jsonl(text)
    for name in order:
        assert digest(VIEWS[name](trace)) == expected[name], name


def test_views_are_computed_once(text, monkeypatch):
    import repro.obs.check as check
    import repro.obs.trace_export as trace_export

    built = []
    judge = check._judge
    monkeypatch.setattr(check, "_judge",
                        lambda *args: built.append("check") or judge(*args))
    analysis = trace_export._Analysis
    monkeypatch.setattr(
        trace_export, "_Analysis",
        lambda trace: built.append("analysis") or analysis(trace))
    trace = loads_jsonl(text)
    for _ in range(3):
        check_trace(trace)
        attributions_from_trace(trace)
        registry_from_trace(trace)
        metrics_from_trace(trace)
        session_report_html(trace)
    assert sorted(built) == ["analysis", "check"]


def test_report_shares_one_replay_with_the_registry(text, monkeypatch):
    """The analyzer's logs, the metrics collector and the span builder
    share one replay (three replays before, then two)."""
    from repro.obs.bus import EventBus

    published = []
    publish = EventBus.publish
    monkeypatch.setattr(EventBus, "publish", lambda bus, event: (
        published.append(1), publish(bus, event)))
    trace = loads_jsonl(text)
    report = check_trace(trace)
    spans_from_trace(trace)
    attributions_from_trace(trace, report=report)
    registry_from_trace(trace)
    session_report_html(trace)
    assert len(trace.events) > 0
    assert len(published) == len(trace.events)


def test_mutating_returned_views_changes_no_later_view(text, expected):
    trace = loads_jsonl(text)
    registry = registry_from_trace(trace)
    registry.merge(registry_from_trace(trace))
    registry.counter("repro_extra_total").inc()
    for metric in list(registry):
        for name in ("samples", "counts", "bounds"):
            values = getattr(metric, name, None)
            if values:
                values.append(values[-1])
    report = check_trace(trace)
    report.violations[0].details["extra"] = 1
    report.violations.clear()
    report.checkers.append("extra")
    spans = spans_from_trace(trace)
    spans[1].close(0.0, "missed")
    spans[1].attrs["extra"] = 1
    spans.clear()
    attributions_from_trace(trace).clear()
    metrics = metrics_from_trace(trace)
    metrics.bytes_per_path.clear()
    metrics.levels.clear()
    analyzer = analyzer_from_trace(trace)
    analyzer.activity.record(1.0, "wifi", 1e9)
    analyzer.activity.record(2.0, "extra", 1e9)
    analyzer.log.started_at = 0.5
    analyzer.log.chunks.clear()
    analyzer.log.stalls.clear()
    assert digest(session_report_html(trace)) == expected["report"]
    for name, view in VIEWS.items():
        assert digest(view(trace)) == expected[name], name


def test_registry_copy_shares_nothing(text):
    shared = registry_from_trace(loads_jsonl(text))
    copy = shared.copy()
    assert isinstance(copy, MetricsRegistry)
    assert copy.to_dict() == shared.to_dict()
    for mine, theirs in zip(copy, shared):
        assert mine is not theirs
        for name, value in vars(mine).items():
            if isinstance(value, list):
                assert value is not getattr(theirs, name)


class CountingChecker(Checker):
    name = "counting"

    def __init__(self):
        super().__init__()
        self.seen = 0

    def subscriptions(self):
        return {None: self._on_event}

    def _on_event(self, event):
        self.seen += 1


def test_custom_checkers_bypass_the_index(text, expected):
    trace = loads_jsonl(text)
    default = check_trace(trace)
    for _ in range(2):
        counting = CountingChecker()
        custom = check_trace(trace, [counting])
        assert counting.seen == len(trace.events)
        assert custom.checkers == ["counting"]
    assert check_trace(trace, [MonotonicTimeChecker()]).checkers == \
        ["monotonic-time"]
    assert check_trace(trace).to_dict() == default.to_dict()
    assert digest(default.to_dict()) == expected["check"]


def test_explicit_device_and_report_bypass_the_index(text):
    trace = loads_jsonl(text)
    default = metrics_from_trace(trace)
    other = metrics_from_trace(trace, device=GALAXY_S3)
    assert other.radio_energy != default.radio_energy
    assert other == metrics_from_trace(loads_jsonl(text), device=GALAXY_S3)
    assert metrics_from_trace(trace) == default
    assert analyzer_from_trace(trace) is not analyzer_from_trace(trace)
    clean = check_trace(trace, [])
    assert attributions_from_trace(trace, clean) != \
        attributions_from_trace(trace)


def test_rebinding_events_recomputes_the_views(text):
    trace = loads_jsonl(text)
    full = check_trace(trace)
    spans = spans_from_trace(trace)
    cut = len(trace.events) // 2
    trace.events = trace.events[:cut]
    assert check_trace(trace).events == cut
    assert spans_from_trace(trace) != spans
    fresh = Trace(meta=trace.meta, events=list(trace.events))
    assert check_trace(trace).to_dict() == check_trace(fresh).to_dict()
    assert registry_from_trace(trace).to_dict() == \
        registry_from_trace(fresh).to_dict()
    # Same length, different list: still recomputed.
    cut_report = check_trace(trace).to_dict()
    trace.events = trace.events[1:] + trace.events[:1]
    rotated = check_trace(trace).to_dict()
    assert rotated != cut_report
    assert rotated == check_trace(
        Trace(meta=trace.meta, events=list(trace.events))).to_dict()
    trace.events = loads_jsonl(text).events
    assert check_trace(trace).to_dict() == full.to_dict()


def test_appending_events_recomputes_the_views(text):
    trace = loads_jsonl(text)
    before = check_trace(trace)
    stalls = len([a for a in attributions_from_trace(trace)
                  if a.kind == "stall"])
    end = trace.events[-1].time
    trace.events.append(StallStart(end))
    trace.events.append(SessionClosed(end + 1.0))
    after = check_trace(trace)
    assert after.events == before.events + 2
    assert len([a for a in attributions_from_trace(trace)
                if a.kind == "stall"]) == stalls + 1
    fresh = Trace(meta=trace.meta, events=list(trace.events))
    assert session_report_html(trace) == session_report_html(fresh)


def test_index_is_private_to_each_trace(text):
    a = loads_jsonl(text)
    b = Trace(meta=a.meta, events=a.events)
    assert a == b and repr(a) == repr(b)
    check_trace(a)
    assert check_trace(b).to_dict() == check_trace(a).to_dict()


def test_check_alone_builds_no_other_view(text, monkeypatch):
    import repro.obs.metrics as metrics
    import repro.obs.trace_export as trace_export

    def forbidden(trace):
        raise AssertionError("built a view nobody asked for")

    monkeypatch.setattr(metrics, "collector_from_trace", forbidden)
    monkeypatch.setattr(trace_export, "analyzer_from_trace", forbidden)
    monkeypatch.setattr(trace_export, "_Analysis", forbidden)
    trace = loads_jsonl(text)
    assert not check_trace(trace).ok
    with pytest.raises(AssertionError, match="nobody asked"):
        spans_from_trace(trace)
    with pytest.raises(AssertionError, match="nobody asked"):
        registry_from_trace(trace)
