"""Tests for the drift sentinel (repro.obs.drift)."""

import pytest

from repro.obs.check import ERROR, INFO, WARNING
from repro.obs.drift import (CUSUM, EWMA, DriftFinding, control_track,
                             detect_drift, drift_table, gate_ok,
                             metric_direction, metric_series,
                             trend_document)
from repro.obs.ledger import LedgerEntry


def entries_for(metric, values, kind="fleet"):
    """One single-metric ledger timeline, in order."""
    return [LedgerEntry(kind=kind, key="k", metrics={metric: value})
            for value in values]


class TestMetricDirection:
    def test_higher_is_better_metrics(self):
        for name in ("qoe", "bitrate_p50_mbps", "single.sim_per_wall",
                     "finished", "cache_hits"):
            assert metric_direction(name) == "higher", name

    def test_lower_is_better_metrics(self):
        for name in ("deadline_misses", "stall_seconds_p95",
                     "startup_seconds", "cellular_mbytes",
                     "energy_joules", "violations", "failures",
                     "unfinished_sessions", "single.wall_clock",
                     "single.peak_rss_kb"):
            assert metric_direction(name) == "lower", name

    def test_unknown_metric_has_no_direction(self):
        assert metric_direction("sessions") is None

    def test_only_the_leaf_component_is_matched(self):
        # The scenario prefix must not leak into direction lookup.
        assert metric_direction("stall_heavy.wall_clock") == "lower"


class TestMetricSeries:
    def test_groups_by_kind_and_metric(self):
        entries = (entries_for("qoe", [1.0, 2.0], kind="session")
                   + entries_for("qoe", [3.0], kind="fleet"))
        series = metric_series(entries)
        assert set(series) == {("session", "qoe"), ("fleet", "qoe")}
        positions = [p for p, _, _ in series[("session", "qoe")]]
        assert positions == [0, 1]  # global file positions
        assert series[("fleet", "qoe")][0][0] == 2

    def test_points_carry_entry_ids(self):
        entries = entries_for("qoe", [1.0, 2.0])
        series = metric_series(entries)
        ids = [eid for _, eid, _ in series[("fleet", "qoe")]]
        assert ids == [e.entry_id for e in entries]


class TestControlTrack:
    def test_first_point_is_its_own_expectation(self):
        means, stds = control_track([10.0, 10.0, 10.0])
        assert means == [10.0, 10.0, 10.0]
        assert stds[0] == pytest.approx(0.5)  # rel_floor * |10|

    def test_point_never_absorbs_itself_before_judgment(self):
        means, _ = control_track([10.0, 20.0], alpha=0.5)
        # The expectation for point 1 is formed from point 0 only.
        assert means[1] == 10.0

    def test_band_floors(self):
        _, stds = control_track([0.0, 0.0, 0.0])
        assert all(s == pytest.approx(1e-9) for s in stds)
        _, stds = control_track([100.0, 100.0], rel_floor=0.1)
        assert stds[1] == pytest.approx(10.0)

    def test_variance_tracks_noise(self):
        noisy = [10.0, 12.0, 8.0, 11.0, 9.0, 12.0, 8.0]
        _, stds = control_track(noisy)
        assert stds[-1] > 1.0  # learned spread, not just the floor


class TestDetectDrift:
    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            detect_drift([], alpha=0.0)
        with pytest.raises(ValueError, match="warn_sigma"):
            detect_drift([], warn_sigma=3.0, error_sigma=2.0)
        with pytest.raises(ValueError, match="min_history"):
            detect_drift([], min_history=0)

    def test_stable_history_is_clean(self):
        entries = entries_for("qoe", [1.0] * 6)
        assert detect_drift(entries) == []
        assert gate_ok([])

    def test_min_history_suppresses_early_judgments(self):
        # A wild second point is not judged: history is too short.
        entries = entries_for("deadline_misses", [0.0, 1000.0])
        assert detect_drift(entries) == []

    def test_adverse_spike_is_an_error(self):
        entries = entries_for("deadline_misses", [0.0, 0.0, 0.0, 50.0])
        findings = detect_drift(entries)
        ewma = [f for f in findings if f.detector == EWMA]
        assert len(ewma) == 1
        f = ewma[0]
        assert f.severity == ERROR and f.direction == "up"
        assert f.position == 3
        assert f.entry_id == entries[3].entry_id
        assert f.value == 50.0
        assert not gate_ok(findings)

    def test_improvement_is_info_not_gating(self):
        entries = entries_for("deadline_misses", [50.0, 50.0, 50.0, 0.0])
        findings = detect_drift(entries)
        assert findings and all(f.severity == INFO for f in findings)
        assert gate_ok(findings)

    def test_qoe_drop_gates_qoe_rise_does_not(self):
        drop = detect_drift(entries_for("qoe", [5.0, 5.0, 5.0, 0.5]))
        rise = detect_drift(entries_for("qoe", [5.0, 5.0, 5.0, 9.5]))
        assert any(f.severity == ERROR for f in drop)
        assert all(f.severity == INFO for f in rise)

    def test_unknown_direction_gates_both_ways(self):
        up = detect_drift(entries_for("sessions", [8.0, 8.0, 8.0, 16.0]))
        down = detect_drift(entries_for("sessions", [8.0, 8.0, 8.0, 4.0]))
        assert any(f.severity == ERROR for f in up)
        assert any(f.severity == ERROR for f in down)

    def test_moderate_deviation_is_a_warning(self):
        # Noisy history, then a point ~2.5 sigma out: WARNING not ERROR.
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 11.0, 9.0]
        _, stds = control_track(values + [0.0])
        sigma = stds[len(values)]
        mean = control_track(values + [0.0])[0][len(values)]
        probe = mean + 2.5 * sigma
        findings = detect_drift(
            entries_for("deadline_misses", values + [probe]))
        ewma = [f for f in findings if f.detector == EWMA
                and f.position == len(values)]
        assert len(ewma) == 1 and ewma[0].severity == WARNING

    def test_cusum_catches_sustained_small_shift(self):
        # Each +1.2-sigma step stays inside the EWMA warn band, but the
        # run of them accumulates past the CUSUM threshold.
        values = [10.0] * 4
        for _ in range(10):
            values.append(values[-1] * 1.06)
        findings = detect_drift(
            entries_for("cellular_mbytes", values),
            warn_sigma=10.0, error_sigma=10.0)  # silence EWMA
        cusum = [f for f in findings if f.detector == CUSUM]
        assert cusum and all(f.severity == WARNING for f in cusum)
        assert all(f.direction == "up" for f in cusum)
        assert gate_ok(findings)  # CUSUM warns, never gates

    def test_evidence_cites_recent_baseline_ids(self):
        entries = entries_for("deadline_misses",
                              [0.0, 0.0, 0.0, 0.0, 50.0])
        finding = [f for f in detect_drift(entries)
                   if f.detector == EWMA][0]
        assert finding.evidence == tuple(
            e.entry_id for e in entries[:4])

    def test_evidence_is_capped(self):
        entries = entries_for("deadline_misses", [0.0] * 20 + [50.0])
        finding = [f for f in detect_drift(entries)
                   if f.detector == EWMA][0]
        assert len(finding.evidence) == 8
        assert finding.evidence[-1] == entries[19].entry_id

    def test_findings_are_deterministically_ordered(self):
        entries = (entries_for("qoe", [5.0, 5.0, 5.0, 0.5])
                   + entries_for("deadline_misses",
                                 [0.0, 0.0, 0.0, 50.0]))
        first = detect_drift(entries)
        second = detect_drift(list(entries))
        assert [f.to_dict() for f in first] == [f.to_dict()
                                               for f in second]
        keys = [(f.kind, f.metric, f.position, f.detector)
                for f in first]
        assert keys == sorted(keys)

    def test_finding_round_trips_to_dict(self):
        entries = entries_for("deadline_misses", [0.0, 0.0, 0.0, 50.0])
        payload = [f for f in detect_drift(entries)
                   if f.detector == EWMA][0].to_dict()
        assert payload["severity"] == ERROR
        assert payload["metric"] == "deadline_misses"
        assert isinstance(payload["evidence"], list)
        assert "sigma" in payload["message"]



def perf_entries(wall=(2.0,) * 5, sim_per_wall=(7600.0,) * 5,
                 peak_rss=(65536.0,) * 5):
    """A fleet timeline carrying the perf metrics every entry point
    records; labels differ so each entry has its own id."""
    return [LedgerEntry(kind="fleet", key="k", label=f"run{i}",
                        metrics={"wall_clock_seconds": w,
                                 "sim_per_wall": s, "peak_rss_kb": r})
            for i, (w, s, r) in enumerate(zip(wall, sim_per_wall,
                                              peak_rss))]


class TestPerfDrift:
    @pytest.mark.parametrize("metric, direction", [
        ("wall_clock_seconds", "lower"),
        ("peak_rss_kb", "lower"),
        ("sim_per_wall", "higher"),
    ])
    def test_ledger_perf_metric_directions(self, metric, direction):
        assert metric_direction(metric) == direction

    def test_identical_perf_history_is_clean(self):
        assert detect_drift(perf_entries()) == []

    def test_perf_jitter_within_band_is_clean(self):
        findings = detect_drift(perf_entries(
            wall=(2.0, 2.04, 1.97, 2.02, 2.01),
            sim_per_wall=(7600.0, 7450.0, 7710.0, 7520.0, 7580.0),
            peak_rss=(65536.0, 65800.0, 65536.0, 65700.0, 65600.0)))
        assert not [f for f in findings if f.severity == ERROR]
        assert gate_ok(findings)

    def test_wall_clock_regression_detected(self):
        findings = detect_drift(perf_entries(
            wall=(2.0, 2.0, 2.0, 2.0, 20.0)))
        [error] = [f for f in findings if f.severity == ERROR]
        assert error.metric == "wall_clock_seconds"
        assert error.direction == "up" and error.position == 4
        assert not gate_ok(findings)

    def test_sim_per_wall_drop_detected(self):
        findings = detect_drift(perf_entries(
            sim_per_wall=(7600.0, 7600.0, 7600.0, 7600.0, 760.0)))
        [error] = [f for f in findings if f.severity == ERROR]
        assert error.metric == "sim_per_wall" and error.direction == "down"
        assert not gate_ok(findings)

    def test_peak_rss_growth_detected(self):
        findings = detect_drift(perf_entries(
            peak_rss=(65536.0, 65536.0, 65536.0, 65536.0, 655360.0)))
        [error] = [f for f in findings if f.severity == ERROR]
        assert error.metric == "peak_rss_kb" and error.direction == "up"
        assert not gate_ok(findings)

    def test_perf_improvement_does_not_gate(self):
        findings = detect_drift(perf_entries(
            wall=(20.0, 20.0, 20.0, 20.0, 2.0),
            sim_per_wall=(760.0, 760.0, 760.0, 760.0, 7600.0)))
        assert findings and all(f.severity == INFO for f in findings)
        assert gate_ok(findings)

    def test_entries_without_perf_metrics_are_skipped(self):
        timed = perf_entries(wall=(2.0, 2.0, 2.0), sim_per_wall=(1.0,) * 3,
                             peak_rss=(1.0,) * 3)
        untimed = LedgerEntry(kind="fleet", key="k", label="untimed",
                              metrics={"qoe": 5.0})
        entries = [timed[0], untimed, timed[1], timed[2]]
        series = metric_series(entries)
        assert [p[0] for p in series[("fleet", "wall_clock_seconds")]] == [
            0, 2, 3]
        assert [p[0] for p in series[("fleet", "qoe")]] == [1]
        assert detect_drift(entries) == []


class TestTrendDocument:
    def test_shape_and_gate(self):
        entries = entries_for("deadline_misses", [0.0, 0.0, 0.0, 50.0])
        document = trend_document(entries)
        assert document["entries"] == 4
        assert document["kinds"] == ["fleet"]
        assert document["gate_ok"] is False
        [series] = document["series"]
        assert series["metric"] == "deadline_misses"
        assert series["direction"] == "lower"
        assert len(series["points"]) == len(series["ewma"]) == 4
        assert {f["detector"] for f in document["findings"]} >= {EWMA}

    def test_accepts_precomputed_findings(self):
        entries = entries_for("qoe", [1.0] * 3)
        document = trend_document(entries, findings=[])
        assert document["findings"] == [] and document["gate_ok"] is True

    def test_empty_ledger(self):
        document = trend_document([])
        assert document == {"entries": 0, "kinds": [], "series": [],
                            "findings": [], "gate_ok": True}


class TestDriftTable:
    def test_counts_and_lines(self):
        entries = (entries_for("deadline_misses", [0.0, 0.0, 0.0, 50.0])
                   + entries_for("qoe", [5.0, 5.0, 5.0, 9.5]))
        findings = detect_drift(entries)
        text = drift_table(findings)
        # One EWMA ERROR + CUSUM WARNING for the miss spike; the QoE
        # improvement lands as INFO from both detectors.
        assert text.startswith("drift: 1 error(s), 1 warning(s), 2 info")
        assert "[ERROR" in text and "[INFO" in text
        assert "deadline_misses" in text

    def test_empty(self):
        assert drift_table([]) == "drift: 0 error(s), 0 warning(s), 0 info"
