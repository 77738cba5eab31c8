"""Tests for the perf-regression benchmark harness (repro.obs.bench)."""

import json

import pytest

from repro.obs.bench import (SCENARIOS, BenchReport, BenchResult,
                             compare_meta, compare_reports, run_bench,
                             run_scenario)


def result(scenario="single", wall_clock=1.0, sim_seconds=300.0,
           events=1000, peak_rss_kb=50000, repeats=1):
    return BenchResult(
        scenario=scenario, wall_clock=wall_clock, sim_seconds=sim_seconds,
        sim_per_wall=sim_seconds / wall_clock, events=events,
        events_per_sec=(events / wall_clock if events is not None else None),
        peak_rss_kb=peak_rss_kb, repeats=repeats)


class TestBenchReportSerialization:
    def test_round_trip(self, tmp_path):
        report = BenchReport(label="x", results=[result(), result("sweep16",
                                                                  events=None)],
                             meta={"python": "3.11"})
        path = str(tmp_path / "BENCH_x.json")
        report.dump(path)
        loaded = BenchReport.load(path)
        assert loaded.to_dict() == report.to_dict()
        assert loaded.result("sweep16").events is None

    def test_dump_is_stable_json(self, tmp_path):
        report = BenchReport(label="x", results=[result()])
        path = str(tmp_path / "b.json")
        report.dump(path)
        payload = json.loads(open(path).read())
        assert payload["label"] == "x"
        assert payload["results"][0]["scenario"] == "single"

    def test_old_payload_without_optionals_loads(self):
        loaded = BenchReport.from_dict({
            "label": "old",
            "results": [{"scenario": "single", "wall_clock": 1.0,
                         "sim_seconds": 300.0, "sim_per_wall": 300.0}]})
        entry = loaded.result("single")
        assert entry.events is None and entry.peak_rss_kb is None
        assert entry.repeats == 1

    def test_render_lists_every_scenario(self):
        report = BenchReport(label="x",
                             results=[result(), result("mobility")])
        text = report.render()
        assert "single" in text and "mobility" in text
        assert "sim/wall" in text


class TestCompareReports:
    def test_identical_reports_clean(self):
        report = BenchReport(label="a", results=[result()])
        assert compare_reports(report, report, 0.25) == []

    def test_wall_clock_regression_detected(self):
        baseline = BenchReport(label="b", results=[result(wall_clock=1.0)])
        current = BenchReport(label="c", results=[result(wall_clock=1.5)])
        regressions = compare_reports(current, baseline, 0.25)
        assert len(regressions) >= 1
        assert any("wall_clock" in r for r in regressions)

    def test_drift_within_threshold_clean(self):
        baseline = BenchReport(label="b", results=[result(wall_clock=1.0)])
        current = BenchReport(label="c", results=[result(wall_clock=1.2)])
        assert compare_reports(current, baseline, 0.25) == []

    def test_throughput_drop_detected(self):
        baseline = BenchReport(label="b",
                               results=[result(events=1000)])
        current = BenchReport(label="c", results=[result(events=100)])
        regressions = compare_reports(current, baseline, 0.25)
        assert any("events_per_sec" in r for r in regressions)

    def test_rss_growth_detected(self):
        baseline = BenchReport(label="b",
                               results=[result(peak_rss_kb=10000)])
        current = BenchReport(label="c",
                              results=[result(peak_rss_kb=20000)])
        regressions = compare_reports(current, baseline, 0.25)
        assert any("peak_rss_kb" in r for r in regressions)

    def test_missing_scenario_or_metric_skipped(self):
        baseline = BenchReport(
            label="b", results=[result(), result("mobility", events=None,
                                                 peak_rss_kb=None)])
        current = BenchReport(label="c", results=[result()])
        assert compare_reports(current, baseline, 0.25) == []

    def test_artificially_tightened_baseline_regresses(self):
        report = BenchReport(label="now", results=[result(wall_clock=1.0)])
        payload = report.to_dict()
        for entry in payload["results"]:
            entry["wall_clock"] /= 10.0
            entry["sim_per_wall"] *= 10.0
        tightened = BenchReport.from_dict(payload)
        regressions = compare_reports(report, tightened, 0.25)
        assert any("wall_clock" in r for r in regressions)
        assert any("sim_per_wall" in r for r in regressions)

    def test_negative_threshold_rejected(self):
        report = BenchReport(label="a", results=[result()])
        with pytest.raises(ValueError):
            compare_reports(report, report, -0.1)


class TestRunScenario:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark scenario"):
            run_scenario("warp-speed")

    def test_zero_repeats_rejected(self):
        with pytest.raises(ValueError):
            run_scenario("single", repeats=0)

    def test_single_scenario_measures(self):
        measured = run_scenario("single")
        assert measured.scenario == "single"
        assert measured.wall_clock > 0
        assert measured.sim_seconds > 0
        assert measured.sim_per_wall > 0
        assert measured.events and measured.events > 0
        assert measured.events_per_sec and measured.events_per_sec > 0

    def test_mobility_scenario_measures(self):
        measured = run_scenario("mobility")
        assert measured.scenario == "mobility"
        assert measured.sim_seconds > 0
        assert measured.events and measured.events > 0

    def test_scenario_registry_names(self):
        assert set(SCENARIOS) == {"single", "mobility", "sweep16", "fleet",
                                  "fleet_rec"}

    def test_fleet_scenario_measures(self):
        measured = run_scenario("fleet")
        assert measured.scenario == "fleet"
        assert measured.sim_seconds > 0
        assert measured.events is None  # spans many worker buses

    def test_fleet_rec_scenario_measures(self):
        # Same campaign as "fleet" with the flight recorder armed; the
        # pair is what CI's recorder-overhead gate compares.
        measured = run_scenario("fleet_rec")
        assert measured.scenario == "fleet_rec"
        assert measured.sim_seconds > 0


class TestRunBench:
    def test_selected_scenarios_and_progress(self):
        lines = []
        report = run_bench(scenarios=["single"], label="test",
                           progress=lines.append)
        assert [r.scenario for r in report.results] == ["single"]
        assert report.label == "test"
        assert report.meta["python"]
        assert lines and "single" in lines[0]

    def test_ledger_opt_in_appends_bench_entry(self, tmp_path):
        from repro.obs.ledger import RunLedger

        path = str(tmp_path / "runs.jsonl")
        report = run_bench(scenarios=["single"], label="test", ledger=path)
        entries = RunLedger(path).entries()
        assert len(entries) == 1
        entry = entries[0]
        assert entry.kind == "bench" and entry.key == "test"
        assert entry.metrics["single.wall_clock"] == pytest.approx(
            report.result("single").wall_clock)
        assert entry.environment == dict(report.meta)


class TestEnvironmentMeta:
    def meta(self, **overrides):
        base = {"python": "3.11.7", "platform": "Linux-6.1-x86_64",
                "machine": "x86_64"}
        base.update(overrides)
        return base

    def test_render_includes_environment_line(self):
        report = BenchReport(label="x", results=[result()],
                             meta=self.meta())
        text = report.render()
        assert "env machine=x86_64 platform=Linux-6.1-x86_64" in text
        assert "python=3.11.7" in text

    def test_render_without_meta_has_no_env_line(self):
        report = BenchReport(label="x", results=[result()])
        assert "env " not in report.render()

    def report(self, **overrides):
        return BenchReport(label="x", results=[result()],
                           meta=self.meta(**overrides))

    def test_compare_meta_agreement_is_silent(self):
        assert compare_meta(self.report(), self.report()) == []

    def test_compare_meta_flags_each_differing_field(self):
        mismatches = compare_meta(self.report(),
                                  self.report(python="3.10.0",
                                              machine="aarch64"))
        assert sorted(m.field for m in mismatches) == ["machine", "python"]
        python = [m for m in mismatches if m.field == "python"][0]
        assert python.current == "3.11.7"
        assert python.baseline == "3.10.0"
        text = python.render()
        assert "environment mismatch" in text
        assert "3.11.7" in text and "3.10.0" in text
        assert str(python) == text

    def test_compare_meta_handles_unrecorded_fields(self):
        old_baseline = BenchReport(label="old", results=[result()],
                                   meta={"python": "3.10.0"})
        mismatches = compare_meta(self.report(python="3.10.0"),
                                  old_baseline)
        assert sorted(m.field for m in mismatches) == ["machine",
                                                       "platform"]
        assert all(m.baseline is None for m in mismatches)
        assert all("(unrecorded)" in m.render() for m in mismatches)

    def test_compare_meta_empty_both_ways(self):
        bare = BenchReport(label="bare", results=[result()])
        assert compare_meta(bare, bare) == []
