"""Tests for the HTML reports and the live sweep dashboard."""

import io
import xml.etree.ElementTree as ET

import pytest

from repro.experiments import SessionConfig, run_session, run_sweep
from repro.experiments.sweep import expand_grid
from repro.obs import (EventBus, FleetCheckpointSaved, FleetCompleted,
                       FleetDashboard, FleetSessionCaptured,
                       FleetShardCompleted, FleetStarted,
                       FleetWorkerHeartbeat, SweepCompleted,
                       SweepDashboard, SweepRunFailed, SweepRunFinished,
                       SweepRunStarted, SweepRunSummarized, SweepStarted,
                       Trace, dumps_jsonl, loads_jsonl,
                       session_report_html, sweep_report_html,
                       triage_report_html, write_report)
from repro.obs.trace_export import TraceMeta

#: Markers of external references a self-contained report must not have.
_EXTERNAL = ("http://", "https://", "<script src", "<link", "<img",
             "url(", "@import")


def parse_document(html: str) -> ET.Element:
    """The report is XHTML-style well-formed (minus the DOCTYPE line)."""
    assert html.startswith("<!DOCTYPE html>\n")
    return ET.fromstring(html.split("\n", 1)[1])


def assert_self_contained(html: str) -> None:
    for marker in _EXTERNAL:
        assert marker not in html, f"external reference: {marker!r}"


@pytest.fixture(scope="module")
def session_trace():
    result = run_session(SessionConfig(
        video="big_buck_bunny", abr="festive", mpdash=True,
        deadline_mode="rate", wifi_mbps=3.8, lte_mbps=3.0,
        video_duration=60.0, record_trace=True, collect_metrics=True,
        collect_spans=True))
    return Trace(meta=result.trace_meta, events=result.events)


@pytest.fixture(scope="module")
def session_html(session_trace):
    return session_report_html(session_trace)


@pytest.fixture(scope="module")
def sweep_result():
    base = SessionConfig(video="big_buck_bunny", abr="festive",
                         wifi_mbps=8.0, lte_mbps=8.0, video_duration=20.0)
    return run_sweep(expand_grid(base, {"scheme": ["baseline", "rate"]}))


class TestSessionReport:
    def test_well_formed_and_self_contained(self, session_html):
        parse_document(session_html)
        assert_self_contained(session_html)

    def test_all_panels_present(self, session_html):
        for panel in ("Session overview", "Chunk downloads (Figure 8)",
                      "Path timelines", "Buffer occupancy",
                      "Deadline slack", "Radio states and energy",
                      "Invariant verdicts", "Causal spans"):
            assert panel in session_html, panel

    def test_pure_function_of_trace(self, session_trace, session_html):
        assert session_report_html(session_trace) == session_html

    def test_jsonl_round_trip_same_bytes(self, session_trace,
                                         session_html):
        round_tripped = loads_jsonl(dumps_jsonl(
            session_trace.events, session_trace.meta))
        assert session_report_html(round_tripped) == session_html

    def test_dark_mode_styles_present(self, session_html):
        assert "prefers-color-scheme" in session_html

    def test_empty_trace_renders_fallbacks(self):
        html = session_report_html(Trace(
            meta=TraceMeta(session_duration=0.0), events=[]))
        parse_document(html)
        assert_self_contained(html)
        assert "no chunks" in html

    def test_write_report(self, tmp_path, session_html):
        out = tmp_path / "r.html"
        write_report(str(out), session_html)
        assert out.read_text() == session_html


class TestSweepReport:
    def test_well_formed_and_self_contained(self, sweep_result):
        html = sweep_report_html(sweep_result)
        parse_document(html)
        assert_self_contained(html)

    def test_panels_present(self, sweep_result):
        html = sweep_report_html(sweep_result)
        for panel in ("Sweep overview", "Scheme comparison",
                      "Merged distributions", "Runs"):
            assert panel in html, panel
        assert "baseline" in html and "mpdash-rate" in html

    def test_no_failures_no_failure_panel(self, sweep_result):
        assert not sweep_result.failures
        assert "Failures" not in sweep_report_html(sweep_result)

    def test_overview_shows_wall_clock(self, sweep_result):
        html = sweep_report_html(sweep_result)
        assert "wall clock" in html
        assert f"{sweep_result.wall_clock:.1f}" in html

    def test_export_report_method(self, sweep_result, tmp_path):
        out = tmp_path / "sweep.html"
        sweep_result.export_report(str(out))
        assert out.read_text() == sweep_report_html(sweep_result)

    def test_failures_panel_rendered(self):
        from repro.experiments.sweep import run_sweep as sweep

        def crash(config):
            raise RuntimeError("injected crash")

        result = sweep([SessionConfig(video="big_buck_bunny",
                                      abr="festive", video_duration=20.0)],
                       runner=crash)
        html = sweep_report_html(result)
        parse_document(html)
        assert "Failures" in html
        assert "injected crash" in html

    def test_download_runs_tabulated_without_qoe(self):
        from repro.experiments import FileDownloadConfig

        result = run_sweep([FileDownloadConfig(
            size=1e6, deadline=10.0, wifi_mbps=8.0, lte_mbps=8.0)])
        html = sweep_report_html(result)
        parse_document(html)
        assert "Runs" in html
        # Download summaries carry no session QoE: no scheme panel data.
        assert "means over" not in html


def drive_dashboard(dashboard):
    """Publish a canned sweep event sequence through an attached bus."""
    bus = EventBus()
    dashboard.attach(bus)
    bus.publish(SweepStarted(0.0, total=3, jobs=2))
    bus.publish(SweepRunStarted(0.1, "aaaa1111", 0, attempt=1))
    bus.publish(SweepRunStarted(0.2, "bbbb2222", 1, attempt=1))
    bus.publish(SweepRunFinished(1.0, "aaaa1111", 0, elapsed=0.9,
                                 cached=False))
    bus.publish(SweepRunSummarized(1.0, "aaaa1111", 0, finished=True,
                                   mean_bitrate=5e5, stall_count=1,
                                   cellular_bytes=2e6, radio_energy=9.0,
                                   violations=2))
    bus.publish(SweepRunFailed(1.5, "bbbb2222", 1, kind="error",
                               error="boom", attempts=1))
    bus.publish(SweepCompleted(2.0, total=3, succeeded=2, failed=1,
                               cache_hits=1))
    return bus


class TestSweepDashboard:
    def test_disabled_subscribes_nothing(self):
        bus = EventBus()
        before = bus.subscriber_count()
        SweepDashboard(stream=io.StringIO(), enabled=False).attach(bus)
        assert bus.subscriber_count() == before

    def test_auto_disables_off_tty(self, capsys):
        # Test streams are not TTYs, so auto-detection must say off.
        assert not SweepDashboard(stream=io.StringIO()).enabled

    def test_render_lines_content(self):
        dashboard = SweepDashboard(stream=io.StringIO(), enabled=True)
        drive_dashboard(dashboard)
        lines = dashboard.render_lines()
        assert "3/3" in lines[0]
        assert "failed 1" in lines[0]
        assert "active -" in lines[1]
        assert "stalls 1" in lines[2]
        assert "violations 2" in lines[2]

    def test_active_runs_listed_mid_sweep(self):
        dashboard = SweepDashboard(stream=io.StringIO(), enabled=True)
        bus = EventBus()
        dashboard.attach(bus)
        bus.publish(SweepStarted(0.0, total=2, jobs=1))
        bus.publish(SweepRunStarted(0.1, "cafecafe9999", 0, attempt=1))
        assert "#0:cafecafe" in "\n".join(dashboard.render_lines())

    def test_draws_only_to_its_stream(self, capsys):
        stream = io.StringIO()
        drive_dashboard(SweepDashboard(stream=stream, enabled=True))
        captured = capsys.readouterr()
        assert captured.out == ""  # stdout contract untouched
        assert stream.getvalue() != ""

    def test_throttles_by_event_time(self):
        stream = io.StringIO()
        dashboard = SweepDashboard(stream=stream, enabled=True)
        bus = EventBus()
        dashboard.attach(bus)
        bus.publish(SweepStarted(0.0, total=100, jobs=1))
        first = stream.getvalue()
        # Within the throttle window: finishes do not redraw.
        bus.publish(SweepRunFinished(0.05, "k", 0, elapsed=0.05,
                                     cached=False))
        assert stream.getvalue() == first
        bus.publish(SweepRunFinished(5.0, "k", 1, elapsed=0.1,
                                     cached=False))
        assert stream.getvalue() != first

    def test_closed_stream_disables_quietly(self):
        stream = io.StringIO()
        dashboard = SweepDashboard(stream=stream, enabled=True)
        bus = EventBus()
        dashboard.attach(bus)
        stream.close()
        bus.publish(SweepStarted(0.0, total=1, jobs=1))
        assert not dashboard.enabled

    def test_live_sweep_emits_summarized_events(self):
        seen = []
        bus = EventBus()
        bus.subscribe(SweepRunSummarized, seen.append)
        run_sweep([SessionConfig(video="big_buck_bunny", abr="festive",
                                 wifi_mbps=8.0, lte_mbps=8.0,
                                 video_duration=20.0)], bus=bus)
        assert len(seen) == 1
        assert seen[0].mean_bitrate > 0

    def test_zero_run_sweep_renders_without_dividing(self):
        stream = io.StringIO()
        dashboard = SweepDashboard(stream=stream, enabled=True)
        bus = EventBus()
        dashboard.attach(bus)
        bus.publish(SweepStarted(0.0, total=0, jobs=1))
        bus.publish(SweepCompleted(0.0, total=0, succeeded=0, failed=0,
                                   cache_hits=0))
        lines = dashboard.render_lines()
        assert "0/0" in lines[0] and "(0%)" in lines[0]
        assert stream.getvalue() != ""

    def test_cache_hit_only_sweep(self):
        # Every run cached: no summaries ever arrive, the QoE line must
        # stay a placeholder and the counters must still balance.
        dashboard = SweepDashboard(stream=io.StringIO(), enabled=True)
        bus = EventBus()
        dashboard.attach(bus)
        bus.publish(SweepStarted(0.0, total=2, jobs=1))
        for index in range(2):
            bus.publish(SweepRunFinished(1.0 + index, "k", index,
                                         elapsed=0.0, cached=True))
        bus.publish(SweepCompleted(3.0, total=2, succeeded=2, failed=0,
                                   cache_hits=2))
        lines = dashboard.render_lines()
        assert "2/2" in lines[0] and "cached 2" in lines[0]
        assert lines[2] == "qoe    -"

    def test_final_redraw_is_forced_and_resets_repaint(self):
        stream = io.StringIO()
        dashboard = SweepDashboard(stream=stream, enabled=True)
        bus = EventBus()
        dashboard.attach(bus)
        bus.publish(SweepStarted(0.0, total=1, jobs=1))
        before = stream.getvalue()
        # Inside the throttle window, but completion must draw anyway —
        # and leave the cursor below the frame (no pending repaint).
        bus.publish(SweepCompleted(0.01, total=1, succeeded=1, failed=0,
                                   cache_hits=0))
        assert stream.getvalue() != before
        assert dashboard._drawn_lines == 0


def drive_fleet_dashboard(dashboard):
    """Publish a canned fleet event sequence through an attached bus."""
    bus = EventBus()
    dashboard.attach(bus)
    bus.publish(FleetStarted(0.0, sessions=9, shards=3, jobs=2))
    bus.publish(FleetShardCompleted(1.0, shard=0, sessions=3, failures=1,
                                    elapsed=0.9))
    bus.publish(FleetWorkerHeartbeat(1.0, worker=111, shard=0, sessions=3,
                                     failures=1, sim_seconds=18.0,
                                     elapsed=0.9, peak_rss_kb=204800,
                                     last_index=2, captured=1))
    bus.publish(FleetSessionCaptured(
        1.1, session=1, shard=0, reason="violation", score=4.0,
        artifact="ab/session-00000001.jsonl.gz"))
    bus.publish(FleetCheckpointSaved(1.2, shards_done=1, path="ckpt"))
    return bus


class TestFleetDashboard:
    def test_disabled_subscribes_nothing(self):
        bus = EventBus()
        before = bus.subscriber_count()
        FleetDashboard(stream=io.StringIO(), enabled=False).attach(bus)
        assert bus.subscriber_count() == before

    def test_auto_disables_off_tty(self):
        assert not FleetDashboard(stream=io.StringIO()).enabled

    def test_render_lines_content(self):
        dashboard = FleetDashboard(stream=io.StringIO(), enabled=True)
        drive_fleet_dashboard(dashboard)
        text = "\n".join(dashboard.render_lines())
        assert "1/3 shards" in text and "sessions 3" in text
        assert "failed 1" in text and "workers 2" in text
        assert "w111" in text and "rss 200 MB" in text
        assert "last #2" in text
        assert "captured 1" in text
        assert "#1 violation (score 4.00)" in text
        assert "ckpt @1" in text

    def test_eta_appears_once_commits_land(self):
        dashboard = FleetDashboard(stream=io.StringIO(), enabled=True)
        drive_fleet_dashboard(dashboard)
        assert "eta ~" in dashboard.render_lines()[0]

    def test_no_workers_placeholder(self):
        dashboard = FleetDashboard(stream=io.StringIO(), enabled=True)
        bus = EventBus()
        dashboard.attach(bus)
        bus.publish(FleetStarted(0.0, sessions=9, shards=3, jobs=2))
        assert "  workers -" in dashboard.render_lines()

    def test_capture_forces_redraw_inside_throttle_window(self):
        stream = io.StringIO()
        dashboard = FleetDashboard(stream=stream, enabled=True)
        bus = EventBus()
        dashboard.attach(bus)
        bus.publish(FleetStarted(0.0, sessions=9, shards=3, jobs=1))
        before = stream.getvalue()
        bus.publish(FleetSessionCaptured(0.01, session=4, shard=1,
                                         reason="stall", score=3.0,
                                         artifact=""))
        assert stream.getvalue() != before

    def test_straggler_flagged_against_median(self):
        dashboard = FleetDashboard(stream=io.StringIO(), enabled=True)
        bus = EventBus()
        dashboard.attach(bus)
        bus.publish(FleetStarted(0.0, sessions=50, shards=10, jobs=2))
        for shard in range(4):
            bus.publish(FleetShardCompleted(float(shard + 1), shard=shard,
                                            sessions=5, failures=0,
                                            elapsed=1.0))
        bus.publish(FleetShardCompleted(9.0, shard=4, sessions=5,
                                        failures=0, elapsed=5.0))
        bus.publish(FleetWorkerHeartbeat(9.0, worker=7, shard=4,
                                         sessions=5, failures=0,
                                         sim_seconds=1.0, elapsed=5.0,
                                         peak_rss_kb=0, last_index=24,
                                         captured=0))
        text = "\n".join(dashboard.render_lines())
        assert "** straggler" in text

    def test_completed_forces_final_redraw(self):
        stream = io.StringIO()
        dashboard = FleetDashboard(stream=stream, enabled=True)
        bus = drive_fleet_dashboard(dashboard)
        before = stream.getvalue()
        bus.publish(FleetCompleted(1.21, sessions=9, failures=1, shards=3))
        assert stream.getvalue() != before
        assert dashboard._drawn_lines == 0
        assert dashboard.shards_done == 3 and dashboard.sessions == 9

    def test_draws_only_to_its_stream(self, capsys):
        stream = io.StringIO()
        drive_fleet_dashboard(FleetDashboard(stream=stream, enabled=True))
        captured = capsys.readouterr()
        assert captured.out == ""
        assert stream.getvalue() != ""

    def test_closed_stream_disables_quietly(self):
        stream = io.StringIO()
        dashboard = FleetDashboard(stream=stream, enabled=True)
        bus = EventBus()
        dashboard.attach(bus)
        stream.close()
        bus.publish(FleetStarted(0.0, sessions=1, shards=1, jobs=1))
        assert not dashboard.enabled


class TestTriageReportHtml:
    RECORDS = [
        {"index": 5, "shard": 1, "reason": "violation", "score": 4.0,
         "qoe": 0.2, "misses": 2, "stalls": 0,
         "artifact": "ab/session-00000005.jsonl.gz"},
        {"index": 9, "shard": 2, "reason": "failure", "score": 1.0,
         "qoe": None, "misses": None, "stalls": None, "artifact": None},
    ]

    def test_well_formed_and_self_contained(self):
        html = triage_report_html(self.RECORDS, fleet_key="deadbeefcafe")
        parse_document(html)
        assert_self_contained(html)
        assert "deadbeefcafe" in html
        assert "violation" in html and "failure" in html

    def test_links_and_replay_verdicts_rendered(self):
        html = triage_report_html(
            self.RECORDS, fleet_key="deadbeefcafe",
            links={5: "anomaly-00000005.html"},
            replays={5: {"replayed": True, "matches_recorded": True,
                         "violations": {"error": 4, "warning": 1}},
                     9: {"replayed": False, "error": "no artifact"}})
        parse_document(html)
        assert 'href="anomaly-00000005.html"' in html
        assert "4 error / 1 warning (identical)" in html
        assert "no artifact" in html

    def test_mismatch_is_loud(self):
        html = triage_report_html(
            self.RECORDS[:1],
            replays={5: {"replayed": True, "matches_recorded": False,
                         "violations": {"error": 0, "warning": 0}}})
        assert "MISMATCH" in html

    def test_empty_records_fallback(self):
        html = triage_report_html([])
        parse_document(html)
        assert "no captured anomalies" in html


class TestHistoryReportHtml:
    def entries(self, misses=(0.0, 0.0, 0.0, 50.0)):
        from repro.obs.ledger import LedgerEntry

        return [LedgerEntry(kind="fleet", key="grid", label=f"run{i}",
                            environment={"python": "3.11"},
                            metrics={"deadline_misses": value,
                                     "qoe": 5.0})
                for i, value in enumerate(misses)]

    def test_well_formed_and_self_contained(self):
        from repro.obs import history_report_html

        html = history_report_html(self.entries())
        parse_document(html)
        assert_self_contained(html)
        assert "MP-DASH run history" in html
        assert "deadline_misses" in html

    def test_drift_findings_annotate_the_report(self):
        from repro.obs import history_report_html

        html = history_report_html(self.entries())
        assert "gate" in html.lower()
        assert "error" in html.lower()  # the adverse spike gates

    def test_stable_history_reports_clean_gate(self):
        from repro.obs import history_report_html

        html = history_report_html(self.entries(misses=(0.0, 0.0, 0.0)))
        parse_document(html)
        assert "no drift detected" in html

    def test_perf_trend_panels_follow_the_headlines(self):
        from repro.obs import history_report_html
        from repro.obs.ledger import LedgerEntry

        walls = (2.0, 2.0, 2.0, 20.0)
        entries = [LedgerEntry(kind="fleet", key="grid", label=f"run{i}",
                               metrics={"qoe": 5.0,
                                        "wall_clock_seconds": wall,
                                        "sim_per_wall": 960.0 / wall,
                                        "peak_rss_kb": 65536.0})
                   for i, wall in enumerate(walls)]
        html = history_report_html(entries)
        parse_document(html)
        assert_self_contained(html)
        order = [html.index(name) for name in
                 ("qoe", "sim_per_wall", "wall_clock_seconds",
                  "peak_rss_kb")]
        assert order == sorted(order)
        assert "gate: fail" in html  # the tenfold wall-clock regression

    def test_empty_ledger_renders(self):
        from repro.obs import history_report_html

        html = history_report_html([])
        parse_document(html)
        assert "0 ledger entries" in html

    def test_load_warnings_are_surfaced(self):
        from repro.obs import history_report_html

        html = history_report_html(
            self.entries(),
            warnings=("runs.jsonl:9: skipped unreadable ledger line",))
        parse_document(html)
        assert "skipped unreadable ledger line" in html

    def test_byte_deterministic_for_same_entries(self):
        from repro.obs import history_report_html

        entries = self.entries()
        assert history_report_html(entries) == history_report_html(
            list(entries))
