"""Tests for the HTML reports."""

import xml.etree.ElementTree as ET

import pytest

from repro.experiments import SessionConfig, run_session
from repro.obs import (Trace, dumps_jsonl, loads_jsonl,
                       session_report_html, triage_report_html, write_report)
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

    @pytest.mark.parametrize("name", ["r.html", "new/nested/r.html"])
    def test_write_report(self, tmp_path, session_html, name):
        out = tmp_path / name
        write_report(str(out), session_html)
        assert out.read_text() == session_html


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
