"""Tests for repro.obs.why: causal root-cause attribution.

Synthetic event streams exercise each rule in isolation; the
determinism pins for full sessions live in test_determinism.py and the
CLI surface in test_cli.py.
"""

import gzip
import json

import pytest

from repro.obs import MetricsRegistry
from repro.obs.check import ERROR, WARNING, CheckReport, Violation
from repro.obs.events import (ChunkDownloaded, ChunkRequested,
                              DeadlineMissed, HttpRequestSent,
                              HttpResponseReceived, MpDashArmed,
                              MpDashSkipped, PathSampled, SchedulerActivated,
                              SessionClosed, StallStart, TransferCompleted,
                              TransferStarted)
from repro.obs.trace_export import Trace, TraceMeta, dumps_jsonl
from repro.obs.why import (CAUSE_ABR_OVERREACH, CAUSE_ACTIVATION_LATENCY,
                           CAUSE_BANDWIDTH_DROP, CAUSE_ESTIMATOR_DRIFT,
                           CAUSE_INVARIANT, CAUSE_PATH_CONTROL,
                           CAUSE_QUEUE_BUILDUP, CAUSE_UNKNOWN,
                           CONFIDENCE_HIGH, CONFIDENCE_LOW,
                           CONFIDENCE_MEDIUM, KIND_MISS, KIND_STALL,
                           KIND_VIOLATION, LAYER_ABR, LAYER_ESTIMATOR,
                           LAYER_NETWORK, LAYER_PLAYER, LAYER_SCHEDULER,
                           LAYER_UNKNOWN, Attribution,
                           attributions_from_trace, diff_traces,
                           fold_attributions, render_attributions,
                           summarize_attributions)


def clean_report():
    """A CheckReport with no violations: isolates the event-driven rules."""
    return CheckReport(violations=[], events=0, checkers=[])


def make_trace(events, duration=60.0):
    return Trace(meta=TraceMeta(session_duration=duration),
                 events=list(events))


def chain(events, index=0, transfer=1, request=1, start=0.0, level=2,
          size=1e6, window=4.0, activation_gap=0.01, miss=False,
          done=None, throughput=None, armed=True, downloaded=True):
    """Append one chunk's full causal chain to ``events``.

    Timing mirrors the simulator: transfer starts 0.01 s after the
    request, the deadline activates ``activation_gap`` later, and a
    missed chunk finishes 1 s past its deadline unless ``done`` says
    otherwise.
    """
    url = f"/chunk{index}"
    events.append(ChunkRequested(start, index, level, 5.0))
    if armed:
        events.append(MpDashArmed(start, index, window))
    else:
        events.append(MpDashSkipped(start, index))
    events.append(HttpRequestSent(start, url, request))
    events.append(TransferStarted(start + 0.01, transfer, url, size))
    activated = start + 0.01 + activation_gap
    events.append(SchedulerActivated(activated, transfer, size, window))
    deadline_at = activated + window
    if miss:
        events.append(DeadlineMissed(deadline_at + 0.01, transfer))
        done_t = done if done is not None else deadline_at + 1.0
    else:
        done_t = done if done is not None else start + 2.0
    events.append(TransferCompleted(done_t, transfer, url, size,
                                    done_t - start - 0.01))
    events.append(HttpResponseReceived(done_t, url, 200, int(size),
                                       request))
    if downloaded:
        tput = (throughput if throughput is not None
                else size / max(done_t - start, 1e-9))
        events.append(ChunkDownloaded(done_t, index, level, size,
                                      done_t - start, start, tput,
                                      {"wifi": size}, window, 5.0))


def samples(events, times, throughput=1e6, rtt=0.05, path="wifi"):
    for time in times:
        events.append(PathSampled(time, path, 10.0, rtt, throughput))


def only(attributions, kind):
    picked = [a for a in attributions if a.kind == kind]
    assert len(picked) == 1, picked
    return picked[0]


class TestMissRules:
    def test_activation_latency_blames_scheduler(self):
        events = []
        chain(events, index=0, start=0.0, activation_gap=2.0, miss=True)
        events.append(SessionClosed(20.0))
        trace = make_trace(events)
        verdict = only(attributions_from_trace(trace, clean_report()),
                       KIND_MISS)
        assert verdict.cause == CAUSE_ACTIVATION_LATENCY
        assert verdict.layer == LAYER_SCHEDULER
        assert verdict.chunk == 0 and verdict.transfer == 1
        # The arm gap itself is the counterfactual slack, and it covers
        # the 1 s deficit, so the verdict is high-confidence.
        assert verdict.slack == pytest.approx(2.0)
        assert verdict.confidence == CONFIDENCE_HIGH
        assert "activating at start" in verdict.counterfactual

    def test_bandwidth_drop_blames_network(self):
        events = []
        samples(events, range(8), throughput=1e6)
        chain(events, index=0, start=10.0, miss=True)
        samples(events, (11.0, 12.0), throughput=0.25e6)
        events.append(SessionClosed(20.0))
        verdict = only(
            attributions_from_trace(make_trace(events), clean_report()),
            KIND_MISS)
        assert verdict.cause == CAUSE_BANDWIDTH_DROP
        assert verdict.layer == LAYER_NETWORK
        assert verdict.confidence == CONFIDENCE_HIGH  # below 0.4x
        assert "deadline met" in verdict.counterfactual
        assert verdict.slack is not None and verdict.slack > 0

    def test_abr_overreach_blames_abr(self):
        events = []
        chain(events, index=0, transfer=1, request=1, start=0.0,
              throughput=2e5)
        chain(events, index=1, transfer=2, request=2, start=10.0,
              size=2e6, miss=True)
        events.append(SessionClosed(20.0))
        verdict = only(
            attributions_from_trace(make_trace(events), clean_report()),
            KIND_MISS)
        assert verdict.cause == CAUSE_ABR_OVERREACH
        assert verdict.layer == LAYER_ABR
        # 2 MB over a 4 s window needs 2.5x the 2e5 B/s recent rate.
        assert verdict.confidence == CONFIDENCE_HIGH
        assert verdict.slack == pytest.approx(4.0 - 2e6 / 2e5)

    def test_estimator_drift_blames_estimator(self):
        events = []
        samples(events, range(8), throughput=3e6)
        chain(events, index=0, transfer=1, request=1, start=0.0,
              throughput=1e6)
        chain(events, index=1, transfer=2, request=2, start=10.0,
              miss=True, throughput=1e6)
        events.append(SessionClosed(20.0))
        verdict = only(
            attributions_from_trace(make_trace(events), clean_report()),
            KIND_MISS)
        assert verdict.cause == CAUSE_ESTIMATOR_DRIFT
        assert verdict.layer == LAYER_ESTIMATOR
        assert verdict.confidence == CONFIDENCE_HIGH  # 3x lead
        assert "promised" in verdict.counterfactual

    def test_queue_buildup_blames_network(self):
        events = []
        samples(events, range(8), throughput=1e6, rtt=0.05)
        chain(events, index=0, transfer=1, request=1, start=0.0,
              throughput=1e6)
        chain(events, index=1, transfer=2, request=2, start=10.0,
              miss=True, throughput=1e6)
        samples(events, (11.0, 12.0), throughput=1e6, rtt=0.2)
        events.append(SessionClosed(20.0))
        verdict = only(
            attributions_from_trace(make_trace(events), clean_report()),
            KIND_MISS)
        assert verdict.cause == CAUSE_QUEUE_BUILDUP
        assert verdict.layer == LAYER_NETWORK
        assert verdict.confidence == CONFIDENCE_MEDIUM
        assert "RTT inflated" in verdict.counterfactual

    def test_path_control_error_wins_over_every_rule(self):
        events = []
        chain(events, index=0, start=0.0, activation_gap=2.0, miss=True)
        events.append(SessionClosed(20.0))
        report = CheckReport(violations=[
            Violation(checker="path-control", severity=ERROR, time=3.0,
                      message="all paths disabled while armed",
                      events=(4,))], events=len(events), checkers=[])
        verdicts = attributions_from_trace(make_trace(events), report)
        miss = only(verdicts, KIND_MISS)
        assert miss.cause == CAUSE_PATH_CONTROL
        assert miss.layer == LAYER_SCHEDULER
        assert miss.confidence == CONFIDENCE_HIGH
        assert miss.slack == pytest.approx(1.0)  # the deadline deficit
        assert 4 in miss.evidence and miss.anomaly_index in miss.evidence
        # The ERROR itself is also explained, as a violation verdict.
        violation = only(verdicts, KIND_VIOLATION)
        assert violation.cause == CAUSE_PATH_CONTROL
        assert violation.layer == LAYER_SCHEDULER

    def test_no_rule_matched_is_insufficient_evidence(self):
        events = []
        chain(events, index=0, start=0.0, miss=True)
        events.append(SessionClosed(20.0))
        verdict = only(
            attributions_from_trace(make_trace(events), clean_report()),
            KIND_MISS)
        assert verdict.cause == CAUSE_UNKNOWN
        assert verdict.layer == LAYER_UNKNOWN
        assert verdict.confidence == CONFIDENCE_LOW

    def test_verdicts_sorted_by_stream_position(self):
        events = []
        chain(events, index=0, transfer=1, request=1, start=0.0,
              activation_gap=2.0, miss=True)
        chain(events, index=1, transfer=2, request=2, start=20.0,
              activation_gap=2.0, miss=True)
        events.append(SessionClosed(40.0))
        verdicts = attributions_from_trace(make_trace(events),
                                           clean_report())
        assert [v.chunk for v in verdicts] == [0, 1]
        assert verdicts[0].anomaly_index < verdicts[1].anomaly_index


class TestDegradedChains:
    """Malformed causal chains degrade to confidence="low", never raise."""

    def test_truncated_trace_degrades_confidence(self):
        events = []
        chain(events, index=0, start=0.0, activation_gap=2.0, miss=True)
        # No SessionClosed: the stream was cut mid-session.
        verdict = only(
            attributions_from_trace(make_trace(events), clean_report()),
            KIND_MISS)
        assert verdict.cause == CAUSE_ACTIVATION_LATENCY
        assert verdict.confidence == CONFIDENCE_LOW

    def test_chunk_never_downloaded_degrades_confidence(self):
        events = []
        chain(events, index=0, start=0.0, activation_gap=2.0, miss=True,
              downloaded=False)
        events.append(SessionClosed(20.0))
        verdict = only(
            attributions_from_trace(make_trace(events), clean_report()),
            KIND_MISS)
        assert verdict.cause == CAUSE_ACTIVATION_LATENCY
        assert verdict.confidence == CONFIDENCE_LOW

    def test_orphan_miss_still_gets_a_verdict(self):
        events = [DeadlineMissed(5.0, 99), SessionClosed(10.0)]
        verdict = only(
            attributions_from_trace(make_trace(events), clean_report()),
            KIND_MISS)
        assert verdict.cause == CAUSE_UNKNOWN
        assert verdict.confidence == CONFIDENCE_LOW
        assert verdict.transfer == 99 and verdict.chunk is None

    def test_orphan_transfer_events_never_raise(self):
        events = [TransferStarted(1.0, 7, "/stray", 1e6),
                  DeadlineMissed(2.0, 7),
                  TransferCompleted(3.0, 7, "/stray", 1e6, 2.0),
                  SessionClosed(4.0)]
        verdict = only(
            attributions_from_trace(make_trace(events), clean_report()),
            KIND_MISS)
        assert verdict.confidence == CONFIDENCE_LOW
        assert verdict.transfer == 7

    def test_crashing_walker_degrades_instead_of_raising(self, monkeypatch):
        from repro.obs import why as why_mod

        def boom(self, index, time, transfer):
            raise KeyError("synthetic walker crash")

        monkeypatch.setattr(why_mod._Attributor, "_explain_miss", boom)
        events = []
        chain(events, index=0, start=0.0, activation_gap=2.0, miss=True)
        events.append(SessionClosed(20.0))
        verdict = only(
            attributions_from_trace(make_trace(events), clean_report()),
            KIND_MISS)
        assert verdict.cause == CAUSE_UNKNOWN
        assert verdict.confidence == CONFIDENCE_LOW
        assert "walker degraded" in verdict.message
        assert "KeyError" in verdict.message


class TestStalls:
    def test_stall_inherits_recent_miss_cause(self):
        events = []
        chain(events, index=0, start=0.0, activation_gap=2.0, miss=True)
        events.append(StallStart(8.0))
        events.append(SessionClosed(20.0))
        verdicts = attributions_from_trace(make_trace(events),
                                           clean_report())
        stall = only(verdicts, KIND_STALL)
        miss = only(verdicts, KIND_MISS)
        assert stall.cause == miss.cause == CAUSE_ACTIVATION_LATENCY
        assert stall.chunk == miss.chunk
        assert stall.anomaly_index in stall.evidence
        assert set(miss.evidence) <= set(stall.evidence)
        assert "follows the missed deadline" in stall.message

    def test_orphan_stall_probes_bandwidth(self):
        events = []
        samples(events, range(8), throughput=1e6)
        samples(events, (26.0, 27.0), throughput=0.2e6)
        events.append(StallStart(30.0))
        events.append(SessionClosed(40.0))
        stall = only(
            attributions_from_trace(make_trace(events), clean_report()),
            KIND_STALL)
        assert stall.cause == CAUSE_BANDWIDTH_DROP
        assert stall.layer == LAYER_NETWORK
        assert stall.confidence == CONFIDENCE_HIGH
        assert "buffer drained" in stall.message

    def test_orphan_stall_without_samples_is_unknown(self):
        events = [StallStart(5.0), SessionClosed(10.0)]
        stall = only(
            attributions_from_trace(make_trace(events), clean_report()),
            KIND_STALL)
        assert stall.cause == CAUSE_UNKNOWN
        assert stall.confidence == CONFIDENCE_LOW


class TestViolations:
    def test_checker_maps_to_layer(self):
        report = CheckReport(violations=[
            Violation(checker="stall-pairing", severity=ERROR, time=1.0,
                      message="StallEnd without StallStart",
                      events=(0,))], events=1, checkers=[])
        trace = make_trace([SessionClosed(1.0)])
        verdict = only(attributions_from_trace(trace, report),
                       KIND_VIOLATION)
        assert verdict.layer == LAYER_PLAYER
        assert verdict.cause == CAUSE_INVARIANT
        assert verdict.confidence == CONFIDENCE_HIGH
        assert verdict.anomaly_index == 0

    def test_unknown_checker_degrades(self):
        report = CheckReport(violations=[
            Violation(checker="from-the-future", severity=ERROR,
                      time=1.0, message="?", events=())],
            events=1, checkers=[])
        trace = make_trace([SessionClosed(1.0)])
        verdict = only(attributions_from_trace(trace, report),
                       KIND_VIOLATION)
        assert verdict.layer == LAYER_UNKNOWN
        assert verdict.confidence == CONFIDENCE_LOW

    def test_warnings_are_not_anomalies(self):
        report = CheckReport(violations=[
            Violation(checker="stall-budget", severity=WARNING, time=1.0,
                      message="soft", events=())], events=1, checkers=[])
        assert attributions_from_trace(make_trace([SessionClosed(1.0)]),
                                       report) == []


class TestPublicApi:
    def test_anomaly_free_trace_attributes_nothing(self):
        events = []
        chain(events, index=0)
        events.append(SessionClosed(10.0))
        assert attributions_from_trace(make_trace(events),
                                       clean_report()) == []

    def test_summary_counts_and_tie_break(self):
        def verdict(cause, layer):
            return Attribution(kind=KIND_VIOLATION, anomaly_index=0,
                               time=0.0, layer=layer, cause=cause,
                               confidence=CONFIDENCE_HIGH)
        attrs = [verdict(CAUSE_INVARIANT, "trace"),
                 verdict(CAUSE_INVARIANT, "trace"),
                 verdict(CAUSE_PATH_CONTROL, LAYER_SCHEDULER),
                 verdict(CAUSE_PATH_CONTROL, LAYER_SCHEDULER)]
        summary = summarize_attributions(attrs)
        assert summary["total"] == 4
        assert summary["counts"] == {CAUSE_INVARIANT: 2,
                                     CAUSE_PATH_CONTROL: 2}
        # On tied counts the specific rule cause wins the headline.
        assert summary["top_cause"] == CAUSE_PATH_CONTROL
        assert summary["confidences"] == {CONFIDENCE_HIGH: 4}

    def test_empty_summary(self):
        summary = summarize_attributions([])
        assert summary["total"] == 0
        assert summary["top_cause"] is None
        assert summary["top_layer"] is None

    def test_to_dict_round_trips_through_json(self):
        events = []
        chain(events, index=0, activation_gap=2.0, miss=True)
        events.append(SessionClosed(20.0))
        verdicts = attributions_from_trace(make_trace(events),
                                           clean_report())
        payload = json.loads(json.dumps([v.to_dict() for v in verdicts]))
        assert payload[0]["cause"] == CAUSE_ACTIVATION_LATENCY
        assert payload[0]["evidence"] == list(verdicts[0].evidence)

    def test_fold_into_registry(self):
        events = []
        chain(events, index=0, activation_gap=2.0, miss=True)
        events.append(StallStart(8.0))
        events.append(SessionClosed(20.0))
        verdicts = attributions_from_trace(make_trace(events),
                                           clean_report())
        registry = MetricsRegistry()
        fold_attributions(registry, verdicts)
        total = registry.counter(
            "repro_fleet_attribution_total",
            {"cause": CAUSE_ACTIVATION_LATENCY,
             "layer": LAYER_SCHEDULER})
        assert total.value == 2  # the miss and the stall it caused
        kinds = registry.counter("repro_fleet_attribution_kind_total",
                                 {"kind": KIND_MISS})
        assert kinds.value == 1
        text = registry.render_prometheus()
        assert 'cause="scheduler-activation-latency"' in text

    def test_render_empty_and_truncated(self):
        assert "no anomalies to attribute" in render_attributions([])
        events = []
        chain(events, index=0, transfer=1, request=1, start=0.0,
              activation_gap=2.0, miss=True)
        chain(events, index=1, transfer=2, request=2, start=20.0,
              activation_gap=2.0, miss=True)
        events.append(SessionClosed(40.0))
        verdicts = attributions_from_trace(make_trace(events),
                                           clean_report())
        text = render_attributions(verdicts, top=1)
        assert CAUSE_ACTIVATION_LATENCY in text
        assert "showing the first 1 of 2" in text
        assert "top cause" in text


class TestTriageCapturesWhy:
    """The ``why`` half of :func:`repro.obs.recorder.triage_captures`."""

    @staticmethod
    def why(tmp_path, record):
        from repro.obs.recorder import triage_captures

        return triage_captures(str(tmp_path), [record])[3]["why"]

    def good_record(self, tmp_path, name="run.jsonl.gz"):
        events = []
        chain(events, index=0, activation_gap=2.0, miss=True)
        events.append(SessionClosed(20.0))
        trace = make_trace(events)
        payload = dumps_jsonl(trace.events, trace.meta).encode()
        (tmp_path / name).write_bytes(gzip.compress(payload))
        return {"index": 3, "artifact": name}

    def test_attributes_recorded_artifact(self, tmp_path):
        result = self.why(tmp_path, self.good_record(tmp_path))
        assert result["attributed"] is True
        assert result["error"] is None
        assert result["summary"]["total"] >= 1
        causes = {a["cause"] for a in result["attributions"]}
        assert CAUSE_ACTIVATION_LATENCY in causes

    def test_record_without_artifact_reports_error(self, tmp_path):
        result = self.why(tmp_path, {"index": 3})
        assert result["attributed"] is False
        assert "no trace artifact" in result["error"]

    def test_missing_artifact_reports_error(self, tmp_path):
        result = self.why(tmp_path, {"index": 3,
                                     "artifact": "gone.jsonl.gz"})
        assert result["attributed"] is False
        assert result["attributions"] == []
        assert "gone.jsonl.gz" in result["error"]


class TestDiff:
    def arm_a(self):
        events = []
        chain(events, index=0, transfer=1, request=1, start=0.0)
        chain(events, index=1, transfer=2, request=2, start=10.0,
              level=4, activation_gap=2.0, miss=True)
        events.append(SessionClosed(30.0))
        return make_trace(events)

    def arm_b(self):
        events = []
        chain(events, index=0, transfer=1, request=1, start=0.0)
        chain(events, index=1, transfer=2, request=2, start=10.0,
              level=1, armed=False)
        events.append(SessionClosed(30.0))
        return make_trace(events)

    def diff(self):
        a, b = self.arm_a(), self.arm_b()
        return diff_traces(
            a, b,
            attributions_a=attributions_from_trace(a, clean_report()),
            attributions_b=attributions_from_trace(b, clean_report()))

    def test_first_divergence_is_the_decision_split(self):
        diff = self.diff()
        assert diff.aligned_chunks == 2
        assert diff.first_divergence == {
            "chunk": 1, "decision": "level", "a": 4, "b": 1,
            "evidence_a": diff.first_divergence["evidence_a"],
            "evidence_b": diff.first_divergence["evidence_b"]}
        delta = next(d for d in diff.chunk_deltas if d["chunk"] == 1)
        assert delta["diverged"] == ["level", "mpdash"]
        assert delta["missed_a"] is True and delta["missed_b"] is False

    def test_cause_deltas_rank_the_injected_fault_first(self):
        diff = self.diff()
        assert diff.top_cause == CAUSE_ACTIVATION_LATENCY
        top = diff.cause_deltas[0]
        assert top["delta"] == 1 and top["count_b"] == 0
        assert top["layer"] == LAYER_SCHEDULER
        assert diff.summary_a["misses"] == 1
        assert diff.summary_b["anomalies"] == 0

    def test_render_and_to_dict(self):
        diff = self.diff()
        text = diff.render()
        assert "first diverging decision: chunk 1 level" in text
        assert CAUSE_ACTIVATION_LATENCY in text
        payload = json.loads(json.dumps(diff.to_dict()))
        assert payload["aligned_chunks"] == 2

    def test_identical_arms_have_no_divergence(self):
        a, b = self.arm_b(), self.arm_b()
        diff = diff_traces(a, b, attributions_a=[], attributions_b=[])
        assert diff.first_divergence is None
        assert diff.chunk_deltas == []
        assert diff.cause_deltas == []
        assert diff.top_cause is None
        assert "no diverging per-chunk decision" in diff.render()

    def test_slack_drift_alone_is_reported(self):
        events_a, events_b = [], []
        chain(events_a, index=0, done=1.5)
        chain(events_b, index=0, done=1.0)
        events_a.append(SessionClosed(10.0))
        events_b.append(SessionClosed(10.0))
        diff = diff_traces(make_trace(events_a), make_trace(events_b),
                           attributions_a=[], attributions_b=[])
        assert diff.first_divergence is None
        delta = next(d for d in diff.chunk_deltas if d["chunk"] == 0)
        assert delta["slack_delta"] == pytest.approx(0.5)
