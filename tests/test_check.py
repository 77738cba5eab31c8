"""Tests for the cross-layer invariant monitor (repro.obs.check)."""

import pytest

from repro.core.scheduler import DeadlineAwareScheduler
from repro.experiments import SessionConfig, run_session
from repro.obs import (ERROR, INFO, WARNING, EventBus, check_trace,
                       dumps_jsonl, loads_jsonl, stock_checkers)
from repro.obs.check import (BufferOccupancyChecker, ByteConservationChecker,
                             Checker, CheckReport, ChunkSanityChecker,
                             DeadlineBudgetChecker, DeadlineLifecycleChecker,
                             HttpPairingChecker, InvariantMonitor,
                             MonotonicTimeChecker, PathControlChecker,
                             RadioStateChecker, StallBudgetChecker,
                             StallPairingChecker, SubflowStateChecker,
                             TransferLifecycleChecker, Violation)
from repro.obs.events import (RADIO_ACTIVE, RADIO_IDLE, RADIO_TAIL,
                              ChunkDownloaded, ChunkRequested, DeadlineArmed,
                              DeadlineDisarmed, DeadlineExtended,
                              DeadlineMissed, HttpRequestSent,
                              HttpResponseReceived, PacketSent,
                              PathStateRequested, QualitySwitched,
                              RadioStateChange, SchedulerActivated,
                              SessionClosed, StallEnd, StallStart,
                              SubflowStateChange, TransferCompleted,
                              TransferStarted)


def short_config(**kwargs):
    defaults = dict(video="big_buck_bunny", abr="festive", mpdash=True,
                    deadline_mode="rate", wifi_mbps=3.8, lte_mbps=3.0,
                    video_duration=80.0)
    defaults.update(kwargs)
    return SessionConfig(**defaults)


def run_events(events, checkers):
    """Drive ``events`` through a monitor holding only ``checkers``."""
    monitor = InvariantMonitor(checkers)
    for event in events:
        monitor.observe(event)
    monitor.finish()
    return monitor.report()


def chunk(time=10.0, index=0, level=2, size=1e6, duration=1.0,
          requested_at=None, throughput=1e6, bytes_per_path=None,
          deadline=4.0, buffer_at_request=5.0):
    if requested_at is None:
        requested_at = time - duration
    if bytes_per_path is None:
        bytes_per_path = {"wifi": size}
    return ChunkDownloaded(time, index, level, size, duration, requested_at,
                           throughput, bytes_per_path, deadline,
                           buffer_at_request)


class TestViolation:
    def test_to_dict(self):
        violation = Violation(checker="x", severity=ERROR, time=1.5,
                              message="boom", events=(3, 7),
                              details={"a": 1})
        assert violation.to_dict() == {
            "checker": "x", "severity": "error", "time": 1.5,
            "message": "boom", "events": [3, 7], "details": {"a": 1}}


class TestMonitorFramework:
    def test_unbound_checker_cannot_report(self):
        checker = StallPairingChecker()
        with pytest.raises(RuntimeError, match="not bound"):
            checker.violation(0.0, "nope")

    def test_violation_defaults_to_current_event_index(self):
        report = run_events(
            [StallStart(1.0), StallEnd(2.0), StallEnd(3.0)],
            [StallPairingChecker()])
        assert len(report.violations) == 1
        assert report.violations[0].events == (2,)

    def test_finish_runs_once(self):
        monitor = InvariantMonitor([StallBudgetChecker(max_stall_ratio=0.0)])
        monitor.observe(StallStart(0.0))
        monitor.observe(StallEnd(5.0))
        monitor.observe(SessionClosed(10.0))  # auto-finish
        monitor.finish()
        monitor.finish()
        assert len(monitor.report().violations) == 1

    def test_attaches_to_bus(self):
        bus = EventBus()
        monitor = InvariantMonitor([StallPairingChecker()], bus=bus)
        bus.publish(StallEnd(1.0))
        assert len(monitor.violations) == 1

    def test_report_counts(self):
        report = CheckReport(
            violations=[
                Violation("a", ERROR, 0.0, "x"),
                Violation("a", WARNING, 0.0, "y"),
                Violation("b", WARNING, 0.0, "z")],
            events=10, checkers=["a", "b"])
        assert not report.ok
        assert report.by_severity() == {INFO: 0, WARNING: 2, ERROR: 1}
        assert "1 error(s), 2 warning(s)" in report.render()

    def test_clean_report_renders_all_hold(self):
        report = run_events([StallStart(1.0), StallEnd(2.0)],
                            [StallPairingChecker()])
        assert report.ok
        assert "all invariants hold" in report.render()

    def test_stock_battery_size_and_names_unique(self):
        battery = stock_checkers()
        names = [checker.name for checker in battery]
        assert len(battery) == 13
        assert len(set(names)) == len(names)

    def test_stock_battery_threshold_validation(self):
        with pytest.raises(ValueError):
            stock_checkers(max_miss_rate=1.5)
        with pytest.raises(ValueError):
            stock_checkers(max_stall_ratio=-0.1)


class TestMonotonicTime:
    def test_backwards_time_flagged(self):
        report = run_events(
            [StallStart(5.0), StallEnd(3.0)], [MonotonicTimeChecker()])
        assert [v.checker for v in report.violations] == ["monotonic-time"]

    def test_packet_sent_only_per_path_sorted(self):
        # wifi at t=2 then cellular at t=1 is legal (bins flush per path)
        # but wifi going backwards is not.
        clean = run_events(
            [PacketSent(2.0, "wifi", 10.0), PacketSent(1.0, "cellular", 5.0)],
            [MonotonicTimeChecker()])
        assert clean.ok and not clean.violations
        dirty = run_events(
            [PacketSent(2.0, "wifi", 10.0), PacketSent(1.0, "wifi", 5.0)],
            [MonotonicTimeChecker()])
        assert len(dirty.violations) == 1

    def test_nan_and_negative_times_flagged(self):
        report = run_events(
            [StallStart(float("nan")), StallEnd(-1.0)],
            [MonotonicTimeChecker()])
        assert len(report.violations) == 2


class TestDeadlineLifecycle:
    def test_legal_cycle_is_clean(self):
        report = run_events(
            [DeadlineArmed(0.0, 1e6, 4.0),
             TransferStarted(0.1, 1, "chunk", 1e6),
             SchedulerActivated(0.1, 1, 1e6, 4.0),
             TransferCompleted(2.0, 1, "chunk", 1e6, 2.0),
             DeadlineDisarmed(3.0)],
            [DeadlineLifecycleChecker()])
        assert not report.violations

    def test_activation_without_arm_is_error(self):
        report = run_events(
            [SchedulerActivated(1.0, 1, 1e6, 4.0)],
            [DeadlineLifecycleChecker()])
        assert [v.severity for v in report.violations] == [ERROR]

    def test_rearm_before_activation_is_warning(self):
        report = run_events(
            [DeadlineArmed(0.0, 1e6, 4.0), DeadlineArmed(1.0, 1e6, 4.0)],
            [DeadlineLifecycleChecker()])
        assert [v.severity for v in report.violations] == [WARNING]
        assert report.ok

    def test_miss_for_wrong_transfer_is_error(self):
        report = run_events(
            [DeadlineArmed(0.0, 1e6, 4.0),
             SchedulerActivated(0.1, 1, 1e6, 4.0),
             DeadlineMissed(4.1, 2)],
            [DeadlineLifecycleChecker()])
        assert len(report.violations) == 1
        assert "active deadline" in report.violations[0].message

    def test_disarm_while_idle_is_legal(self):
        # The adapter disarms defensively on every skipped chunk.
        report = run_events([DeadlineDisarmed(0.0), DeadlineDisarmed(1.0)],
                            [DeadlineLifecycleChecker()])
        assert not report.violations

    def test_illegal_arm_parameters(self):
        report = run_events([DeadlineArmed(0.0, 0.0, -1.0)],
                            [DeadlineLifecycleChecker()])
        assert not report.ok


class TestPathControl:
    def arm_and_disable_all(self):
        return [
            PathStateRequested(0.0, "cellular", False),  # learn cellular
            PacketSent(0.1, "wifi", 100.0),              # learn wifi
            DeadlineArmed(1.0, 1e6, 4.0),
            SchedulerActivated(1.1, 1, 1e6, 4.0),
            PathStateRequested(1.2, "wifi", False),
        ]

    def test_all_disabled_while_armed_is_error(self):
        report = run_events(self.arm_and_disable_all(),
                            [PathControlChecker()])
        assert [v.checker for v in report.violations] == ["path-control"]
        assert "Algorithm 1" in report.violations[0].message

    def test_all_disabled_while_idle_is_legal(self):
        events = self.arm_and_disable_all()
        events.insert(4, DeadlineDisarmed(1.15))
        report = run_events(events, [PathControlChecker()])
        assert not report.violations

    def test_single_known_path_never_fires(self):
        report = run_events(
            [DeadlineArmed(0.0, 1e6, 4.0),
             SchedulerActivated(0.1, 1, 1e6, 4.0),
             PathStateRequested(0.2, "wifi", False)],
            [PathControlChecker()])
        assert not report.violations

    def test_deactivated_by_completion(self):
        events = self.arm_and_disable_all()
        events.insert(4, TransferCompleted(1.15, 1, "chunk", 1e6, 1.0))
        report = run_events(events, [PathControlChecker()])
        assert not report.violations


class TestByteConservation:
    def test_balanced_session_is_clean(self):
        report = run_events(
            [TransferStarted(0.0, 1, "chunk", 1e6),
             PacketSent(0.5, "wifi", 6e5), PacketSent(0.6, "cellular", 4e5),
             TransferCompleted(1.0, 1, "chunk", 1e6, 1.0),
             chunk(size=1e6, bytes_per_path={"wifi": 6e5, "cellular": 4e5})],
            [ByteConservationChecker()])
        assert not report.violations

    def test_bytes_from_nowhere_flagged(self):
        report = run_events(
            [TransferStarted(0.0, 1, "chunk", 1e6),
             PacketSent(0.5, "wifi", 1e5),
             TransferCompleted(1.0, 1, "chunk", 1e6, 1.0)],
            [ByteConservationChecker()])
        assert len(report.violations) == 1
        assert "only delivered" in report.violations[0].message

    def test_unaccounted_delivery_flagged_when_no_open_transfer(self):
        report = run_events(
            [TransferStarted(0.0, 1, "chunk", 1e5),
             PacketSent(0.5, "wifi", 1e6),
             TransferCompleted(1.0, 1, "chunk", 1e5, 1.0)],
            [ByteConservationChecker()])
        assert len(report.violations) == 1
        assert "only account" in report.violations[0].message

    def test_open_transfer_excuses_excess_delivery(self):
        report = run_events(
            [TransferStarted(0.0, 1, "chunk", 1e5),
             TransferCompleted(1.0, 1, "chunk", 1e5, 1.0),
             TransferStarted(1.1, 2, "chunk", 1e6),
             PacketSent(1.5, "wifi", 5e5)],
            [ByteConservationChecker()])
        assert not report.violations

    def test_chunk_per_path_mismatch_flagged(self):
        report = run_events(
            [chunk(size=1e6, bytes_per_path={"wifi": 4e5})],
            [ByteConservationChecker()])
        assert len(report.violations) == 1


class TestPairings:
    def test_nested_stall_flagged(self):
        report = run_events([StallStart(1.0), StallStart(2.0)],
                            [StallPairingChecker()])
        assert len(report.violations) == 1

    def test_open_stall_at_close_is_legal(self):
        report = run_events([StallStart(1.0), SessionClosed(5.0)],
                            [StallPairingChecker()])
        assert not report.violations

    def test_http_clean_pairing(self):
        report = run_events(
            [HttpRequestSent(0.0, "/a", 1),
             HttpResponseReceived(1.0, "/a", 200, 100, 1)],
            [HttpPairingChecker()])
        assert not report.violations

    def test_http_unknown_response_flagged(self):
        report = run_events(
            [HttpResponseReceived(1.0, "/a", 200, 100, 9)],
            [HttpPairingChecker()])
        assert len(report.violations) == 1

    def test_http_url_mismatch_flagged(self):
        report = run_events(
            [HttpRequestSent(0.0, "/a", 1),
             HttpResponseReceived(1.0, "/b", 200, 100, 1)],
            [HttpPairingChecker()])
        assert len(report.violations) == 1
        assert report.violations[0].events == (0, 1)

    def test_http_reused_outstanding_id_flagged(self):
        report = run_events(
            [HttpRequestSent(0.0, "/a", 1), HttpRequestSent(0.5, "/b", 1)],
            [HttpPairingChecker()])
        assert len(report.violations) == 1


class TestBufferAndChunks:
    def test_negative_buffer_flagged_on_all_sources(self):
        report = run_events(
            [ChunkRequested(0.0, 0, 1, -0.5),
             chunk(buffer_at_request=-1.0),
             DeadlineExtended(2.0, 4.0, 6.0, -0.1)],
            [BufferOccupancyChecker()])
        assert len(report.violations) == 3

    def test_chunk_sanity_clean(self):
        report = run_events(
            [ChunkRequested(0.0, 0, 1, 0.0), chunk(index=0),
             ChunkRequested(1.0, 1, 2, 3.0), chunk(index=1),
             QualitySwitched(1.0, 1, 2)],
            [ChunkSanityChecker()])
        assert not report.violations

    def test_chunk_regression_is_warning(self):
        report = run_events(
            [ChunkRequested(0.0, 5, 1, 0.0), ChunkRequested(1.0, 4, 1, 0.0)],
            [ChunkSanityChecker()])
        assert [v.severity for v in report.violations] == [WARNING]

    def test_noop_quality_switch_flagged(self):
        report = run_events([QualitySwitched(1.0, 2, 2)],
                            [ChunkSanityChecker()])
        assert len(report.violations) == 1

    def test_download_before_request_flagged(self):
        report = run_events([chunk(time=1.0, requested_at=2.0)],
                            [ChunkSanityChecker()])
        assert len(report.violations) == 1


class TestRadioAndSubflows:
    def test_legal_radio_cycle(self):
        report = run_events(
            [RadioStateChange(0.0, "wifi", RADIO_ACTIVE),
             RadioStateChange(1.0, "wifi", RADIO_TAIL),
             RadioStateChange(2.0, "wifi", RADIO_ACTIVE),
             RadioStateChange(3.0, "wifi", RADIO_TAIL),
             RadioStateChange(4.0, "wifi", RADIO_IDLE),
             RadioStateChange(5.0, "wifi", RADIO_ACTIVE)],
            [RadioStateChecker()])
        assert not report.violations

    def test_idle_to_tail_flagged(self):
        report = run_events(
            [RadioStateChange(0.0, "cellular", RADIO_TAIL)],
            [RadioStateChecker()])
        assert len(report.violations) == 1

    def test_unknown_state_flagged(self):
        report = run_events(
            [RadioStateChange(0.0, "wifi", "warp")], [RadioStateChecker()])
        assert "unknown radio state" in report.violations[0].message

    def test_states_tracked_per_path(self):
        report = run_events(
            [RadioStateChange(0.0, "wifi", RADIO_ACTIVE),
             RadioStateChange(0.5, "cellular", RADIO_ACTIVE)],
            [RadioStateChecker()])
        assert not report.violations

    def test_redundant_subflow_change_flagged(self):
        report = run_events(
            [SubflowStateChange(0.0, "wifi", False),
             SubflowStateChange(1.0, "wifi", False)],
            [SubflowStateChecker()])
        assert len(report.violations) == 1

    def test_initial_enable_is_redundant(self):
        # Paths start enabled; a change *to* enabled without a prior
        # disable is not a flip.
        report = run_events([SubflowStateChange(0.0, "wifi", True)],
                            [SubflowStateChecker()])
        assert len(report.violations) == 1


class TestTransferLifecycle:
    def test_overlapping_transfers_flagged(self):
        report = run_events(
            [TransferStarted(0.0, 1, "a", 1e6),
             TransferStarted(0.5, 2, "b", 1e6)],
            [TransferLifecycleChecker()])
        assert len(report.violations) == 1

    def test_completion_without_start_flagged(self):
        report = run_events(
            [TransferCompleted(1.0, 7, "a", 1e6, 1.0)],
            [TransferLifecycleChecker()])
        assert "without starting" in report.violations[0].message

    def test_duration_must_cover_observed_window(self):
        report = run_events(
            [TransferStarted(0.0, 1, "a", 1e6),
             TransferCompleted(2.0, 1, "a", 1e6, 0.5)],
            [TransferLifecycleChecker()])
        assert len(report.violations) == 1
        # duration may exceed the window (request latency) but not
        # undercut it.
        clean = run_events(
            [TransferStarted(0.0, 1, "a", 1e6),
             TransferCompleted(2.0, 1, "a", 1e6, 2.5)],
            [TransferLifecycleChecker()])
        assert not clean.violations

    def test_size_mismatch_flagged(self):
        report = run_events(
            [TransferStarted(0.0, 1, "a", 1e6),
             TransferCompleted(2.0, 1, "a", 2e6, 2.0)],
            [TransferLifecycleChecker()])
        assert len(report.violations) == 1


class TestBudgets:
    def test_miss_rate_over_budget_warns(self):
        events = [DeadlineArmed(0.0, 1e6, 4.0),
                  SchedulerActivated(0.1, 1, 1e6, 4.0),
                  DeadlineMissed(4.0, 1),
                  SessionClosed(10.0)]
        report = run_events(events,
                            [DeadlineBudgetChecker(max_miss_rate=0.5)])
        assert [v.severity for v in report.violations] == [WARNING]
        assert report.ok

    def test_miss_rate_within_budget_clean(self):
        events = [SchedulerActivated(0.1, 1, 1e6, 4.0),
                  SchedulerActivated(5.0, 2, 1e6, 4.0),
                  SessionClosed(10.0)]
        report = run_events(events,
                            [DeadlineBudgetChecker(max_miss_rate=0.25)])
        assert not report.violations

    def test_stall_ratio_over_budget_warns(self):
        report = run_events(
            [StallStart(0.0), StallEnd(6.0), SessionClosed(10.0)],
            [StallBudgetChecker(max_stall_ratio=0.5)])
        assert [v.severity for v in report.violations] == [WARNING]

    def test_open_stall_counts_until_finish(self):
        report = run_events(
            [StallStart(4.0), SessionClosed(10.0)],
            [StallBudgetChecker(max_stall_ratio=0.5)])
        assert len(report.violations) == 1


class FaultySchedulers:
    """Context managers seeding contract violations into real sessions."""

    class disable_all_paths_while_armed:
        """Algorithm 1 broken: every path requested off on activation."""

        def __enter__(self):
            self._orig = DeadlineAwareScheduler.on_transfer_start
            orig = self._orig

            def faulty(scheduler, now, transfer, conn):
                orig(scheduler, now, transfer, conn)
                if scheduler.active:
                    for name in conn.path_names():
                        conn.request_path_state(name, False)

            DeadlineAwareScheduler.on_transfer_start = faulty
            return self

        def __exit__(self, *exc):
            DeadlineAwareScheduler.on_transfer_start = self._orig
            return False


class TestLiveSessions:
    @pytest.mark.parametrize("kwargs", [
        dict(),
        dict(mpdash=False),
        dict(deadline_mode="duration"),
        dict(abr="bba"),
    ])
    def test_default_runs_have_zero_violations(self, kwargs):
        result = run_session(short_config(**kwargs), check=True)
        report = result.check_report
        assert report.ok
        assert report.violations == []
        assert report.events > 0

    def test_check_off_by_default(self):
        result = run_session(short_config())
        assert result.check_report is None

    def test_custom_checkers_list(self):
        result = run_session(short_config(),
                             checkers=[StallPairingChecker()])
        assert result.check_report.checkers == ["stall-pairing"]

    def test_seeded_path_fault_caught_live(self):
        with FaultySchedulers.disable_all_paths_while_armed():
            result = run_session(short_config(), check=True)
        report = result.check_report
        assert not report.ok
        assert {v.checker for v in report.violations} == {"path-control"}
        assert all(v.severity == ERROR for v in report.violations)

    def test_seeded_fault_violations_link_to_events(self):
        with FaultySchedulers.disable_all_paths_while_armed():
            result = run_session(short_config(record_trace=True),
                                 check=True)
        for violation in result.check_report.violations:
            for index in violation.events:
                event = result.events[index]
                assert isinstance(event, PathStateRequested)
                assert not event.enabled


class TestOfflineEqualsLive:
    def test_clean_trace_identical_verdicts(self):
        result = run_session(short_config(record_trace=True), check=True)
        trace = loads_jsonl(dumps_jsonl(result.events, result.trace_meta))
        offline = check_trace(trace)
        assert offline.events == result.check_report.events
        assert [v.to_dict() for v in offline.violations] == \
            [v.to_dict() for v in result.check_report.violations]

    def test_truncated_trace_runs_finish(self):
        result = run_session(short_config(record_trace=True))
        trace = loads_jsonl(dumps_jsonl(result.events, result.trace_meta))
        # Drop the SessionClosed terminator: finish() must still run (at
        # the last event's time) instead of silently skipping
        # whole-session verdicts.
        truncated = type(trace)(meta=trace.meta, events=trace.events[:-1])
        report = check_trace(truncated,
                             [StallBudgetChecker(max_stall_ratio=0.0)])
        assert report.events == len(truncated.events)

    def test_custom_checkers_offline(self):
        result = run_session(short_config(record_trace=True))
        trace = loads_jsonl(dumps_jsonl(result.events, result.trace_meta))
        report = check_trace(trace, [MonotonicTimeChecker()])
        assert report.checkers == ["monotonic-time"]
        assert report.ok
