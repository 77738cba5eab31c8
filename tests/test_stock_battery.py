"""The offline judge's stock battery is built once and reset per trace.

Every offline stock judge (the flight recorder's per-session check,
triage and the read-side views) reuses one :class:`InvariantMonitor`,
reset between traces.  These tests hold the reused battery to a freshly
built one over whole fleet campaigns and a ``trace_views``-shaped corpus,
keep the pre-fast-path :class:`MonotonicTimeChecker` handler as an
oracle, pin the capture line encoder to the plain ``json.dumps`` text
it replaces, and pin the checkpoint file to ``json.dumps`` of its body.
"""

import hashlib
import json
import math
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.configs import SessionConfig
from repro.experiments.fleet import (FleetConfig, load_checkpoint, run_fleet,
                                     save_checkpoint)
from repro.experiments.runner import run_session
from repro.net.trace import BandwidthTrace
from repro.net.units import mbps
from repro.obs import check
from repro.obs.check import (Checker, InvariantMonitor, MonotonicTimeChecker,
                             _judge, check_trace, stock_checkers)
from repro.obs.events import (ChunkRequested, PacketSent, RadioStateChange,
                              StallStart)
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import RecorderConfig
from repro.obs.trace_export import (Trace, TraceMeta, _dump_line,
                                    _line_encoder)

#: The CI campaign the recorder-overhead and garbage steps pin.
CI_CAMPAIGN = dict(sessions=96, shard_size=16, video_duration=20.0,
                   seed=2016)


def _fresh(trace):
    """The stock verdicts of a battery built for this trace alone."""
    return _judge(Trace(trace.meta, list(trace.events)),
                  stock_checkers()).to_dict()


def _recorded_campaign(config, artifact_dir, session=lambda drawn: drawn):
    """Every session trace of a recorder campaign, in session order;
    ``session`` maps the fleet's drawn config to the one to run."""
    traces = []

    def runner(drawn):
        result = run_session(session(drawn))
        traces.append(Trace(result.trace_meta, list(result.events)))
        return result

    run_fleet(config, jobs=1, runner=runner,
              recorder=RecorderConfig(artifact_dir=artifact_dir))
    return traces


@pytest.mark.parametrize("fault", [None, 5], ids=["clean", "fault5"])
def test_reused_battery_judges_every_campaign_session_like_a_fresh_one(
        tmp_path, fault):
    traces = _recorded_campaign(
        FleetConfig(fault_session=fault, **CI_CAMPAIGN), str(tmp_path))
    assert len(traces) == CI_CAMPAIGN["sessions"]
    reused = [check_trace(trace).to_dict() for trace in traces]
    assert reused == [_fresh(trace) for trace in traces]
    if fault is not None:
        # The session after the violating one is judged clean again.
        assert not reused[fault]["ok"] and reused[fault + 1]["ok"]


def _corpus_session(rng):
    """A ``trace_views`` corpus session: MP-DASH rate mode near Figure
    7's operating point on seeded random-walk channels, 300 s."""
    horizon = 780.0
    return SessionConfig(
        video="big_buck_bunny", abr="festive", video_duration=300.0,
        wifi_mbps=None, lte_mbps=None, record_trace=True,
        wifi_trace=BandwidthTrace.random_walk(
            mbps(3.8), 0.2, horizon, interval=0.5,
            seed=rng.randrange(1, 2**31)),
        lte_trace=BandwidthTrace.random_walk(
            mbps(3.0), 0.15, horizon, interval=0.5,
            seed=rng.randrange(1, 2**31))).with_scheme("rate")


def test_reused_battery_judges_a_trace_views_corpus_like_a_fresh_one(
        tmp_path):
    rng = random.Random("trace_views:7")
    sessions = iter([_corpus_session(rng) for _ in range(16)])
    traces = _recorded_campaign(
        FleetConfig(sessions=16, shard_size=16, video_duration=300.0,
                    seed=7, fault_session=rng.randrange(16)),
        str(tmp_path), session=lambda drawn: next(sessions))
    assert len(traces) == 16
    reused = [check_trace(trace).to_dict() for trace in traces]
    assert reused == [_fresh(trace) for trace in traces]
    assert not all(report["ok"] for report in reused)


def test_a_recorder_campaign_builds_the_stock_checkers_once_per_shard(
        tmp_path, monkeypatch):
    builds = []
    build = check.stock_checkers

    def counting(*args, **kwargs):
        builds.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(check, "_spare", [], raising=False)
    monkeypatch.setattr(check, "stock_checkers", counting)
    config = FleetConfig(sessions=64, shard_size=16, video_duration=20.0,
                         seed=7, fault_session=3)
    result = run_fleet(config, jobs=1,
                       recorder=RecorderConfig(artifact_dir=str(tmp_path)))
    assert result.sessions == 64
    assert 1 <= len(builds) <= config.total_shards


def test_a_re_entered_judge_builds_its_own_battery():
    meta = TraceMeta(session_duration=10.0)
    other = Trace(meta, [StallStart(0.5)])
    inner = []

    class Reentrant(list):
        """An event list whose iteration first judges another trace."""

        def __iter__(self):
            inner.append(_judge(other).to_dict())
            return super().__iter__()

    events = [StallStart(1.0), StallStart(2.0)]
    _judge(other)  # the battery exists before the outer judge takes it
    outer = _judge(Trace(meta, Reentrant(events)))
    assert outer.to_dict() == _fresh(Trace(meta, events))
    assert not outer.ok
    assert inner == [_fresh(other)]
    assert len(check._spare) == 1


def test_concurrent_judges_never_share_a_battery(tmp_path):
    traces = _recorded_campaign(
        FleetConfig(sessions=16, shard_size=16, video_duration=20.0,
                    seed=11, fault_session=2), str(tmp_path))
    expected = [_fresh(trace) for trace in traces]
    results = {}

    def judge(worker):
        results[worker] = [
            check_trace(Trace(trace.meta, list(trace.events))).to_dict()
            for _ in range(3) for trace in traces]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=judge, args=(worker,))
                   for worker in range(6)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert results == {worker: expected * 3 for worker in range(6)}


# ----------------------------------------------------------------------
# MonotonicTimeChecker: the per-path fast path against the old handler
# ----------------------------------------------------------------------
_PER_PATH_EVENTS = frozenset((PacketSent, RadioStateChange))
_INF = math.inf


class OracleMonotonicTimeChecker(Checker):
    """The handler as it was before the per-path fast path, verbatim."""

    name = "monotonic-time"

    def __init__(self) -> None:
        super().__init__()
        self._watermark = 0.0
        self._per_path = {}

    def subscriptions(self):
        return {None: self._on_event}

    def _on_event(self, event) -> None:
        cls = event.__class__
        time = event.time
        # Hot path first: this handler sees every event of every checked
        # session, and almost all of them just advance the watermark.
        if self._watermark <= time < _INF \
                and cls not in _PER_PATH_EVENTS:
            self._watermark = time
            return
        if not math.isfinite(time) or time < 0.0:
            self.violation(0.0, f"{type(event).__name__} has illegal "
                           f"timestamp {time!r}", value=time)
            return
        if cls in _PER_PATH_EVENTS:
            key = (type(event).__name__, event.path)
            previous = self._per_path.get(key, 0.0)
            if time < previous - 1e-9:
                self.violation(
                    time, f"{key[0]} on path {event.path!r} went backwards: "
                    f"{time:.6f} < {previous:.6f}",
                    path=event.path, previous=previous)
            else:
                self._per_path[key] = time
            return
        if time < self._watermark - 1e-9:
            self.violation(
                time, f"{type(event).__name__} went backwards: "
                f"{time:.6f} < {self._watermark:.6f}",
                previous=self._watermark)
        else:
            self._watermark = time


#: Equal, backwards, within-tolerance and illegal times.
_times = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -1e-12, 0.0]),
    st.integers(0, 12).map(lambda step: step * 0.5),
    st.integers(1, 12).map(lambda step: step * 0.5 - 5e-10),
    st.integers(1, 12).map(lambda step: step * 0.5 - 2e-9))

_events = st.one_of(
    st.builds(PacketSent, _times, st.sampled_from(["wifi", "cellular"]),
              st.just(1000.0)),
    st.builds(RadioStateChange, _times,
              st.sampled_from(["wifi", "cellular"]), st.just("active")),
    st.builds(StallStart, _times),
    st.builds(ChunkRequested, _times, st.just(0), st.just(0),
              st.just(1.0)))

#: One monitor reused (and reset) across every drawn stream, as the
#: offline judge reuses its battery.
_REUSED = InvariantMonitor([MonotonicTimeChecker()])


@settings(max_examples=400, deadline=None)
@given(st.lists(st.lists(_events, max_size=30), min_size=1, max_size=3))
def test_monotonic_time_fast_path_matches_the_old_handler(streams):
    for stream in streams:
        oracle = InvariantMonitor([OracleMonotonicTimeChecker()])
        _REUSED.reset()
        for event in stream:
            oracle.observe(event)
            _REUSED.observe(event)
        expected = [v.to_dict() for v in oracle.violations]
        assert repr([v.to_dict() for v in _REUSED.violations]) == \
            repr(expected)


# ----------------------------------------------------------------------
# Capture lines and checkpoints: the same text as plain json.dumps
# ----------------------------------------------------------------------
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70),
    st.floats(allow_nan=True, allow_infinity=True), st.text())
_values = st.recursive(
    _scalars, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4), max_leaves=20)
_records = st.dictionaries(st.text(), _values, max_size=8)


def _reference(record):
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


@settings(max_examples=300, deadline=None)
@given(_records)
def test_dump_line_is_plain_json_dumps(record):
    assert _dump_line(record) == _reference(record)


@settings(max_examples=100, deadline=None)
@given(_records)
def test_dump_line_without_the_c_encoder_is_plain_json_dumps(record):
    assert _PURE_PYTHON_LINE(record) == _reference(record)


def _line_encoder_with(c_make_encoder):
    """``_line_encoder()`` built while ``json.encoder.c_make_encoder`` is
    ``c_make_encoder``."""
    import json.encoder

    saved = json.encoder.c_make_encoder
    json.encoder.c_make_encoder = c_make_encoder
    try:
        return _line_encoder()
    finally:
        json.encoder.c_make_encoder = saved


_PURE_PYTHON_LINE = _line_encoder_with(None)


def test_dump_line_falls_back_where_the_c_constructor_changed():
    def other_signature(markers, default, encoder):
        raise AssertionError("a nine-argument call cannot reach this")

    record = {"b": [1.5, math.nan], "a": {"é": None}}
    assert _line_encoder_with(other_signature)(record) == _reference(record)


def test_dump_line_names_the_special_floats_and_escapes_non_ascii():
    record = {"é": [math.nan, math.inf, -math.inf], "b": True,
              "n": None, "nested": {"z": " ", "a": 1.5}}
    assert _dump_line(record) == (
        '{"b":true,"n":null,"nested":{"a":1.5,"z":"\\u2028"},'
        '"\\u00e9":[NaN,Infinity,-Infinity]}')


@pytest.mark.parametrize("recorder_state", [
    None, {"stats": {"sessions": 3}, "records": [
        {"index": 1, "error": 'x "sha256": "y", "shards_done": 9'}]}])
def test_checkpoint_file_is_the_sorted_body_with_its_digest(
        tmp_path, recorder_state):
    registry = MetricsRegistry()
    registry.counter("repro_fleet_sessions_total").inc(3)
    registry.histogram("repro_fleet_bitrate_mbps", [1.0, 2.0],
                       {"scenario": "é"}).observe(1.5)
    path = str(tmp_path / "checkpoint.json")
    save_checkpoint(path, "key", 2, 3, 1, 12.5, ["session 4: boom"],
                    registry, error_total=1, recorder_state=recorder_state)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    body = json.loads(text)
    digest = body.pop("sha256")
    assert digest == hashlib.sha256(json.dumps(
        body, sort_keys=True).encode("utf-8")).hexdigest()
    assert text == json.dumps(dict(body, sha256=digest), sort_keys=True)
    state = load_checkpoint(path, "key")
    assert state["registry"].to_dict() == registry.to_dict()
    assert state["recorder"] == recorder_state
