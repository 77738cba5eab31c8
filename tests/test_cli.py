"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import build_parser, main
from tests.test_recorder import mistype_capture


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_stream_defaults(self):
        args = build_parser().parse_args(["stream"])
        assert args.video == "big_buck_bunny"
        assert args.abr == "festive"
        assert not args.mpdash

    def test_unknown_abr_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream", "--abr", "nope"])

    def test_download_args(self):
        args = build_parser().parse_args(
            ["download", "--size-mb", "7", "--deadline", "12"])
        assert args.size_mb == 7.0
        assert args.deadline == 12.0

    def test_history_kind_choices_are_the_ledger_kinds(self):
        # The parser spells them out so that no command loads the ledger.
        from repro.obs.ledger import ENTRY_KINDS

        commands = build_parser()._subparsers._group_actions[0].choices
        kind, = [action for action in commands["history"]._actions
                 if action.dest == "kind"]
        assert tuple(kind.choices) == ENTRY_KINDS


class TestCommands:
    def test_videos_lists_table3(self, capsys):
        assert main(["videos"]) == 0
        out = capsys.readouterr().out
        assert "big_buck_bunny" in out
        assert "tears_of_steel_hd" in out
        assert "3.94" in out

    def test_locations_lists_catalog(self, capsys):
        assert main(["locations"]) == 0
        out = capsys.readouterr().out
        assert "hotel_hi" in out
        assert out.count("\n") > 33

    def test_download_runs(self, capsys):
        assert main(["download", "--size-mb", "2", "--deadline", "8",
                     "--wifi", "4", "--lte", "4"]) == 0
        out = capsys.readouterr().out
        assert "deadline met" in out
        assert "True" in out

    def test_stream_runs_short_session(self, capsys):
        assert main(["stream", "--abr", "gpac", "--duration", "60",
                     "--wifi", "8", "--lte", "8", "--mpdash"]) == 0
        captured = capsys.readouterr()
        # Human tables ride stderr; stdout stays machine-parseable.
        assert "cellular MB" in captured.err
        assert "stalls" in captured.err
        assert captured.out == ""

    def test_stream_visualize(self, capsys):
        assert main(["stream", "--abr", "gpac", "--duration", "60",
                     "--wifi", "8", "--lte", "8", "--visualize"]) == 0
        captured = capsys.readouterr()
        assert "levels:" in captured.err  # the chunk-strip legend
        assert captured.out == ""

    def test_compare_runs(self, capsys):
        assert main(["compare", "--abr", "gpac", "--duration", "60",
                     "--wifi", "6", "--lte", "4"]) == 0
        captured = capsys.readouterr()
        assert "baseline" in captured.err
        assert "rate" in captured.err
        assert "cell saved" in captured.err
        assert captured.out == ""


class TestSweep:
    def test_sweep_json_parallel(self, capsys):
        assert main(["sweep", "--abr", "gpac", "--duration", "20",
                     "--wifi", "8", "--lte", "8",
                     "--grid", "wifi_mbps=6,8", "--jobs", "2",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["total"] == 2
        assert report["succeeded"] == 2
        assert report["failed"] == 0
        assert report["jobs"] == 2
        assert all(run["status"] == "ok" for run in report["runs"])

    def test_sweep_table_output(self, capsys):
        assert main(["sweep", "--abr", "gpac", "--duration", "20",
                     "--wifi", "8", "--lte", "8",
                     "--schemes", "baseline,rate"]) == 0
        captured = capsys.readouterr()
        assert "2 runs" in captured.err
        header = next(line for line in captured.err.splitlines()
                      if line.lstrip().startswith("run "))
        assert header.split() == [
            "run", "key", "status", "time", "s", "cell", "MB", "energy",
            "J", "bitrate", "stalls", "viol", "detail"]
        assert captured.out == ""

    def test_sweep_table_reports_violations(self, capsys):
        assert main(["sweep", "--abr", "gpac", "--duration", "20",
                     "--wifi", "8", "--lte", "8",
                     "--schemes", "baseline,rate"]) == 0
        err = capsys.readouterr().err
        assert "viol" in err  # column header from the checked runs

    def test_sweep_json_carries_violation_counts(self, capsys):
        assert main(["sweep", "--abr", "gpac", "--duration", "20",
                     "--wifi", "8", "--lte", "8",
                     "--grid", "wifi_mbps=6,8", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        for run in report["runs"]:
            # Checked and clean: present, empty.
            assert run["summary"]["violations"] == {}
            assert sorted(run["summary"]) == [
                "config_key", "finished", "kind", "metrics",
                "scheduler_stats", "session_duration", "violations"]

    def test_sweep_cache_rerun_hits(self, tmp_path, capsys):
        argv = ["sweep", "--abr", "gpac", "--duration", "20",
                "--wifi", "8", "--lte", "8",
                "--grid", "wifi_mbps=6,8",
                "--cache-dir", str(tmp_path / "cache"), "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["cache_hits"] == 0
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["cache_hits"] == 2
        assert all(run["cached"] for run in second["runs"])

    def test_sweep_bad_grid_field_exits_2(self, capsys):
        assert main(["sweep", "--grid", "wombat=1,2"]) == 2
        err = capsys.readouterr().err
        assert "wombat" in err

    def test_sweep_malformed_grid_exits_2(self, capsys):
        assert main(["sweep", "--grid", "wifi_mbps"]) == 2


class TestTrace:
    def test_trace_json_summary(self, capsys):
        assert main(["trace", "--duration", "40", "--wifi", "8",
                     "--lte", "8", "--mpdash", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["source"] == "live"
        assert summary["meta"]["session_duration"] > 0
        assert summary["events"]["total"] == sum(
            summary["events"]["by_type"].values())
        assert summary["events"]["by_type"]["SessionClosed"] == 1
        assert summary["metrics"]["chunk_count"] > 0

    def test_trace_export_then_load_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "run.jsonl")
        assert main(["trace", "--duration", "40", "--wifi", "8",
                     "--lte", "8", "--mpdash", "--out", path,
                     "--json"]) == 0
        live = json.loads(capsys.readouterr().out)
        assert main(["trace", "--load", path, "--json"]) == 0
        offline = json.loads(capsys.readouterr().out)
        # Offline analysis of the export reproduces the live run exactly.
        assert offline["metrics"] == live["metrics"]
        assert offline["events"] == live["events"]
        assert offline["source"] == path

    def test_trace_gzip_export_then_load_round_trip(self, tmp_path,
                                                    capsys):
        path = str(tmp_path / "run.jsonl.gz")
        assert main(["trace", "--duration", "40", "--wifi", "8",
                     "--lte", "8", "--mpdash", "--out", path,
                     "--json"]) == 0
        live = json.loads(capsys.readouterr().out)
        with open(path, "rb") as handle:
            assert handle.read(2) == b"\x1f\x8b"  # actually gzipped
        assert main(["trace", "--load", path, "--json"]) == 0
        offline = json.loads(capsys.readouterr().out)
        assert offline["metrics"] == live["metrics"]
        assert offline["events"] == live["events"]

    def test_trace_diff_reports_delta(self, tmp_path, capsys):
        base = str(tmp_path / "vanilla.jsonl")
        assert main(["trace", "--duration", "40", "--wifi", "8",
                     "--lte", "8", "--out", base]) == 0
        capsys.readouterr()
        assert main(["trace", "--duration", "40", "--wifi", "8",
                     "--lte", "8", "--mpdash", "--diff", base,
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"a", "b", "delta"}
        assert report["a"]["source"] == "live"
        assert report["b"]["source"] == base
        for key, value in report["delta"].items():
            assert value == (report["b"]["metrics"][key]
                             - report["a"]["metrics"][key])

    def test_trace_table_output(self, capsys):
        assert main(["trace", "--duration", "40", "--wifi", "8",
                     "--lte", "8"]) == 0
        out = capsys.readouterr().out
        assert "trace live" in out
        assert "events" in out
        assert "energy J" in out


SESSION_ARGS = ["--duration", "40", "--wifi", "8", "--lte", "8", "--mpdash"]


class TestSessionArgs:
    """The six commands that run one session or ``--load`` its trace
    share one argument block: same fields, same defaults, same parsing."""

    FIELDS = ("video", "abr", "mpdash", "deadline_mode", "alpha",
              "duration", "wifi", "lte", "wifi_rtt", "lte_rtt", "load")
    COMMANDS = ("trace", "stats", "spans", "check", "report", "why")
    EVERY_FIELD = ["--video", "tears_of_steel", "--abr", "bba-c",
                   "--mpdash", "--deadline-mode", "duration",
                   "--alpha", "0.5", "--duration", "20", "--wifi", "2.2",
                   "--lte", "1.2", "--wifi-rtt", "30", "--lte-rtt", "70",
                   "--load", "run.jsonl"]

    @staticmethod
    def _session(argv):
        args = build_parser().parse_args(argv)
        return {name: getattr(args, name)
                for name in TestSessionArgs.FIELDS}

    @pytest.mark.parametrize("extra", [[], SESSION_ARGS, EVERY_FIELD],
                             ids=["defaults", "session", "every-field"])
    def test_trace_matches_stats(self, extra):
        assert (self._session(["trace"] + extra)
                == self._session(["stats"] + extra))

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_loading_command_parses_the_block(self, command):
        expected = self._session(["stats"] + self.EVERY_FIELD)
        assert self._session([command] + self.EVERY_FIELD) == expected
        assert expected["load"] == "run.jsonl"
        assert expected["alpha"] == 0.5



class TestSessionConfigFromArgs:
    """``stream`` and ``trace`` build their session from the shared
    block: each flag reaches its own :class:`SessionConfig` field and no
    other."""

    FLAGS = [
        (["--video", "tears_of_steel"], "video", "tears_of_steel"),
        (["--abr", "bba-c"], "abr", "bba-c"),
        (["--mpdash"], "mpdash", True),
        (["--deadline-mode", "duration"], "deadline_mode", "duration"),
        (["--alpha", "0.5"], "alpha", 0.5),
        (["--wifi", "2.2"], "wifi_mbps", 2.2),
        (["--lte", "1.2"], "lte_mbps", 1.2),
        (["--wifi-rtt", "30"], "wifi_rtt_ms", 30.0),
        (["--lte-rtt", "70"], "lte_rtt_ms", 70.0),
        (["--duration", "20"], "video_duration", 20.0),
    ]

    class Built(Exception):
        """Raised by the stand-in ``run_session`` once it holds the
        config, so no session is simulated."""

    @pytest.mark.parametrize("command", ["stream", "trace"])
    @pytest.mark.parametrize("flag,field,value", FLAGS,
                             ids=[field for _, field, _ in FLAGS])
    def test_flag_sets_its_field(self, monkeypatch, command, flag, field,
                                 value):
        from dataclasses import replace

        built = []

        def capture(config, **kwargs):
            built.append(config)
            raise self.Built

        monkeypatch.setattr("repro.experiments.run_session", capture)
        for argv in ([command], [command] + flag):
            with pytest.raises(self.Built):
                main(argv)
        defaults, flagged = built
        assert defaults.record_trace is (command == "trace")
        assert getattr(defaults, field) != value
        assert flagged == replace(defaults, **{field: value})

class TestStats:
    def test_prometheus_on_stdout(self, capsys):
        assert main(["stats"] + SESSION_ARGS) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_chunks_downloaded_total counter" in out
        assert "repro_deadline_slack_seconds_bucket" in out

    def test_json_stdout_is_machine_parseable(self, capsys):
        assert main(["stats"] + SESSION_ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {m["name"] for m in payload["metrics"]}
        assert "repro_chunks_downloaded_total" in names
        assert "repro_path_bytes_total" in names

    def test_offline_equals_live(self, tmp_path, capsys):
        path = str(tmp_path / "run.jsonl")
        assert main(["trace"] + SESSION_ARGS + ["--out", path]) == 0
        capsys.readouterr()
        assert main(["stats", "--load", path, "--json"]) == 0
        captured = capsys.readouterr()
        # The rebuilt-from note goes to stderr; stdout stays pure JSON.
        assert "rebuilt from" in captured.err
        offline = json.loads(captured.out)
        assert any(m["name"] == "repro_chunks_downloaded_total"
                   for m in offline["metrics"])

    def test_load_error_exits_1_on_stderr(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.jsonl")
        assert main(["stats", "--load", missing]) == 1
        captured = capsys.readouterr()
        assert "cannot load" in captured.err
        assert captured.out == ""


class TestSpans:
    def test_tree_on_stdout(self, capsys):
        assert main(["spans"] + SESSION_ARGS) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("session")
        assert any(line.lstrip().startswith("chunk[") for line in lines)

    def test_json_round_trip_offline(self, tmp_path, capsys):
        assert main(["spans"] + SESSION_ARGS + ["--json"]) == 0
        live = json.loads(capsys.readouterr().out)
        path = str(tmp_path / "run.jsonl")
        assert main(["trace"] + SESSION_ARGS + ["--out", path]) == 0
        capsys.readouterr()
        assert main(["spans", "--load", path, "--json"]) == 0
        offline = json.loads(capsys.readouterr().out)
        # Same seeded stream -> identical span dicts, live or offline.
        assert offline == live
        assert live[0]["kind"] == "session"

    def test_chrome_export_validates(self, tmp_path, capsys):
        target = str(tmp_path / "spans.chrome.json")
        assert main(["spans"] + SESSION_ARGS + ["--chrome", target]) == 0
        captured = capsys.readouterr()
        assert "Perfetto" in captured.err
        records = json.loads(open(target).read())
        assert isinstance(records, list) and records
        for record in records:
            assert record["ph"] == "X"
            assert {"ts", "dur", "pid", "tid", "name"} <= set(record)

    def test_limit(self, capsys):
        assert main(["spans"] + SESSION_ARGS + ["--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "more spans" in out


class TestStderrRouting:
    def test_sweep_progress_and_table_not_on_stdout(self, capsys):
        assert main(["sweep", "--abr", "gpac", "--duration", "20",
                     "--wifi", "8", "--lte", "8",
                     "--grid", "wifi_mbps=6,8"]) == 0
        captured = capsys.readouterr()
        # Progress lines and the human table both ride stderr; stdout is
        # reserved for --json.
        assert "run 1/2" in captured.err
        assert "2 runs" in captured.err
        assert captured.out == ""

    def test_trace_out_note_not_on_stdout(self, tmp_path, capsys):
        path = str(tmp_path / "run.jsonl")
        assert main(["trace"] + SESSION_ARGS + ["--out", path,
                                                "--json"]) == 0
        captured = capsys.readouterr()
        json.loads(captured.out)
        assert "trace written to" in captured.err


class TestCheck:
    def test_live_clean_session_exits_0(self, capsys):
        assert main(["check"] + SESSION_ARGS) == 0
        captured = capsys.readouterr()
        assert "all invariants hold" in captured.out
        assert "13 checkers" in captured.out

    def test_json_report_on_stdout(self, capsys):
        assert main(["check"] + SESSION_ARGS + ["--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["violations"] == []
        assert report["counts"] == {"info": 0, "warning": 0, "error": 0}
        assert len(report["checkers"]) == 13

    def test_offline_equals_live(self, tmp_path, capsys):
        assert main(["check"] + SESSION_ARGS + ["--json"]) == 0
        live = json.loads(capsys.readouterr().out)
        path = str(tmp_path / "run.jsonl")
        assert main(["trace"] + SESSION_ARGS + ["--out", path]) == 0
        capsys.readouterr()
        assert main(["check", "--load", path, "--json"]) == 0
        captured = capsys.readouterr()
        assert "checked" in captured.err  # offline note rides stderr
        offline = json.loads(captured.out)
        assert offline == live

    def test_error_violation_exits_1(self, tmp_path, capsys):
        from repro.core.scheduler import DeadlineAwareScheduler

        orig = DeadlineAwareScheduler.on_transfer_start

        def faulty(scheduler, now, transfer, conn):
            orig(scheduler, now, transfer, conn)
            if scheduler.active:
                for name in conn.path_names():
                    conn.request_path_state(name, False)

        path = str(tmp_path / "faulty.jsonl")
        DeadlineAwareScheduler.on_transfer_start = faulty
        try:
            assert main(["trace"] + SESSION_ARGS + ["--out", path]) == 0
        finally:
            DeadlineAwareScheduler.on_transfer_start = orig
        capsys.readouterr()
        assert main(["check", "--load", path]) == 1
        out = capsys.readouterr().out
        assert "path-control" in out
        assert "ERROR" in out

    def test_budget_flags_are_applied(self, capsys):
        # An impossible stall budget of 0% stays a warning -> exit 0.
        assert main(["check"] + SESSION_ARGS +
                    ["--max-stall-ratio", "0.0", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True

    def test_load_error_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.jsonl")
        assert main(["check", "--load", missing]) == 2
        captured = capsys.readouterr()
        assert "cannot load" in captured.err
        assert captured.out == ""


class TestReportCommand:
    def test_offline_render_from_trace(self, tmp_path, capsys):
        trace = str(tmp_path / "run.jsonl")
        assert main(["trace", "--mpdash", "--duration", "30",
                     "--out", trace]) == 0
        capsys.readouterr()
        out = str(tmp_path / "report.html")
        assert main(["report", "--load", trace, "--out", out]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""  # stdout stays machine-parseable
        assert "session report written to" in captured.err
        html = open(out).read()
        assert html.startswith("<!DOCTYPE html>")
        assert "Session overview" in html

    def test_live_session_render(self, tmp_path, capsys):
        out = str(tmp_path / "live.html")
        assert main(["report", "--mpdash", "--duration", "30",
                     "--out", out]) == 0
        assert "session report written to" in capsys.readouterr().err
        assert "Path timelines" in open(out).read()

    def test_load_into_missing_directory(self, tmp_path, capsys):
        trace = str(tmp_path / "run.jsonl")
        assert main(["trace", "--duration", "20", "--out", trace]) == 0
        out = tmp_path / "not" / "yet" / "report.html"
        assert main(["report", "--load", trace, "--out", str(out)]) == 0
        assert "session report written to" in capsys.readouterr().err
        assert "Session overview" in out.read_text()

    def test_missing_trace_exits_1(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.jsonl")
        assert main(["report", "--load", missing]) == 1
        assert "cannot load" in capsys.readouterr().err


class TestSweepReportCli:
    def test_report_flag_is_a_usage_error(self, tmp_path, capsys):
        """The sweep's outputs are its table and its JSON; ``--report``
        is an unknown argument, refused before anything runs."""
        out = tmp_path / "sweep.html"
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--schemes", "baseline", "--duration", "20",
                  "--report", str(out)])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --report" in capsys.readouterr().err
        assert not out.exists()

    def test_progress_lines_go_to_stderr(self, capsys):
        assert main(["sweep", "--schemes", "baseline", "--duration", "20",
                     "--wifi", "8", "--lte", "8"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "run 1/1" in captured.err
        assert "\x1b[" not in captured.err  # no ANSI leaked


class TestFleet:
    ARGS = ["fleet", "--sessions", "6", "--shard-size", "3",
            "--duration", "8", "--seed", "3"]

    def test_fleet_json(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        out = capsys.readouterr()
        payload = json.loads(out.out)
        assert payload["completed"] is True
        assert payload["population"]["sessions"] == 6
        assert payload["registry"]  # full population registry on stdout
        assert out.err == ""  # --json keeps stderr quiet

    def test_fleet_table_and_progress(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr()
        assert out.out == ""
        assert "sessions simulated" in out.err
        assert "shard 1/2" in out.err

    def test_fleet_report(self, tmp_path, capsys):
        report = tmp_path / "fleet.html"
        assert main(self.ARGS + ["--json", "--report", str(report)]) == 0
        assert report.stat().st_size > 1000
        assert "fleet report written" in capsys.readouterr().err

    def test_fleet_report_into_missing_directory(self, tmp_path, capsys):
        report = tmp_path / "out" / "fleet.html"
        assert main(self.ARGS + ["--json", "--report", str(report)]) == 0
        assert "fleet report written" in capsys.readouterr().err
        assert report.read_text().startswith("<!DOCTYPE html>")

    def test_fleet_checkpoint_resume(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        argv = self.ARGS + ["--json", "--checkpoint-dir", ckpt,
                            "--checkpoint-every", "1"]
        assert main(argv + ["--stop-after", "1"]) == 0
        partial = json.loads(capsys.readouterr().out)
        assert partial["completed"] is False
        assert main(argv + ["--resume"]) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed["completed"] is True
        assert resumed["resumed_shards"] == 1

    def test_foreign_checkpoint_exits_2(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        argv = self.ARGS + ["--json", "--checkpoint-dir", ckpt]
        assert main(argv + ["--stop-after", "1"]) == 0
        capsys.readouterr()
        other = ["fleet", "--sessions", "6", "--shard-size", "3",
                 "--duration", "8", "--seed", "4", "--json",
                 "--checkpoint-dir", ckpt, "--resume"]
        assert main(other) == 2
        assert "belongs to fleet" in capsys.readouterr().err

    def test_bad_args_exit_2(self, capsys):
        assert main(["fleet", "--sessions", "-1"]) == 2
        assert main(["fleet", "--resume"]) == 2
        capsys.readouterr()


class TestFleetRecorderCli:
    ARGS = ["fleet", "--sessions", "6", "--shard-size", "3",
            "--duration", "8", "--seed", "3"]

    def record_args(self, tmp_path, extra=()):
        return self.ARGS + ["--record-dir", str(tmp_path / "records"),
                            "--fault-session", "2", *extra]

    def test_record_then_triage_end_to_end(self, tmp_path, capsys):
        assert main(self.record_args(tmp_path, ["--json"])) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["recorder"]["captured"] >= 1
        assert any(r["index"] == 2 and r["reason"] == "violation"
                   for r in payload["anomalies"])
        records = str(tmp_path / "records")
        assert main(["triage", "--record-dir", records, "--top", "3",
                     "--json"]) == 0
        triaged = json.loads(capsys.readouterr().out)
        assert triaged["stats"] == payload["recorder"]
        worst = triaged["records"][0]
        assert worst["index"] == 2 and worst["reason"] == "violation"
        assert worst["replay"]["replayed"] is True
        assert worst["replay"]["matches_recorded"] is True

    def test_progress_lines_announce_captures(self, capsys):
        import tempfile

        with tempfile.TemporaryDirectory() as records:
            assert main(self.ARGS + ["--record-dir", records,
                                     "--fault-session", "1"]) == 0
        err = capsys.readouterr().err
        assert "captured session 1 (violation" in err
        assert "recorder captures" in err

    def test_report_links_mini_anomaly_reports(self, tmp_path, capsys):
        report = tmp_path / "out" / "fleet.html"
        report.parent.mkdir()
        assert main(self.record_args(
            tmp_path, ["--json", "--report", str(report),
                       "--triage-top", "2"])) == 0
        capsys.readouterr()
        html = report.read_text()
        assert "Captured anomalies" in html
        assert (tmp_path / "out" / "anomaly-00000002.html").is_file()
        assert "anomaly-00000002.html" in html

    def test_triage_table_and_html(self, tmp_path, capsys):
        assert main(self.record_args(tmp_path, ["--json"])) == 0
        capsys.readouterr()
        html = tmp_path / "triage" / "triage.html"
        html.parent.mkdir()
        assert main(["triage", "--record-dir",
                     str(tmp_path / "records"), "--top", "2",
                     "--html", str(html)]) == 0
        out = capsys.readouterr()
        assert out.out == ""  # table mode keeps stdout machine-clean
        assert "anomaly record(s)" in out.err
        assert "triage report written" in out.err
        assert html.stat().st_size > 500
        assert (tmp_path / "triage" / "anomaly-00000002.html").is_file()

    def test_triage_warns_when_replay_differs(self, tmp_path, capsys):
        from repro.obs import find_manifests, load_manifest, save_manifest

        assert main(self.record_args(tmp_path, ["--json"])) == 0
        capsys.readouterr()
        records = str(tmp_path / "records")
        manifest = load_manifest(find_manifests(records)[0])
        for record in manifest["records"]:
            if record["index"] == 2:
                record["violations"] = {"error": 999}
        save_manifest(records, manifest["fleet_key"], manifest["stats"],
                      manifest["records"])
        assert main(["triage", "--record-dir", records]) == 0
        out = capsys.readouterr()
        assert out.out == ""
        assert ("warning: session 2 replayed to different verdicts "
                "than recorded") in out.err
        assert out.err.count("replayed to different verdicts") == 1

    def test_triage_warns_when_top_cause_differs(self, tmp_path, capsys):
        from repro.obs import find_manifests, load_manifest, save_manifest

        assert main(self.record_args(tmp_path, ["--json"])) == 0
        capsys.readouterr()
        records = str(tmp_path / "records")
        assert main(["triage", "--record-dir", records]) == 0
        assert "top cause is" not in capsys.readouterr().err
        manifest = load_manifest(find_manifests(records)[0])
        [record] = [r for r in manifest["records"] if r["index"] == 2]
        assert record["attribution"]["top_cause"] is not None
        live = record["attribution"]["top_cause"]
        record["attribution"]["top_cause"] = "edited-cause"
        save_manifest(records, manifest["fleet_key"], manifest["stats"],
                      manifest["records"])
        warning = (f"warning: session 2's top cause is {live} offline, "
                   f"edited-cause as recorded")
        html = tmp_path / "triage.html"
        for extra in ([], ["--html", str(html)]):
            assert main(["triage", "--record-dir", records, *extra]) == 0
            out = capsys.readouterr()
            assert out.out == ""
            assert warning in out.err
            assert out.err.count("top cause is") == 1
        assert main(["triage", "--record-dir", records, "--json"]) == 0
        assert "top cause is" not in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["truncated", "bit-flipped"])
    def test_damaged_gzip_capture_names_its_path_once(self, tmp_path, capsys,
                                                      damage):
        from repro.obs import find_manifests, load_manifest, triage_captures

        assert main(self.record_args(tmp_path, ["--json"])) == 0
        capsys.readouterr()
        records = str(tmp_path / "records")
        manifest = find_manifests(records)[0]
        root = os.path.dirname(os.path.dirname(manifest))
        [record] = [r for r in load_manifest(manifest)["records"]
                    if r["index"] == 2]
        path = os.path.join(root, record["artifact"])
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
        if damage == "truncated":
            del data[len(data) // 2:]
        else:
            data[len(data) // 2] ^= 0x10
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        triaged = triage_captures(root, [record])[2]
        for error in (triaged["replay"]["error"], triaged["why"]["error"]):
            assert error.startswith(f"ValueError: {path}: corrupt trace (")
            assert error.count(path) == 1
        assert main(["check", "--load", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro check: cannot load {path}: "
                              f"corrupt trace (")
        assert err.count(path) == 1 and "Traceback" not in err

    def test_triage_html_into_missing_directory(self, tmp_path, capsys):
        assert main(self.record_args(tmp_path, ["--json"])) == 0
        capsys.readouterr()
        html = tmp_path / "not" / "yet" / "triage.html"
        assert main(["triage", "--record-dir",
                     str(tmp_path / "records"), "--top", "2",
                     "--html", str(html)]) == 0
        assert "triage report written" in capsys.readouterr().err
        assert html.read_text().startswith("<!DOCTYPE html>")
        assert (html.parent / "anomaly-00000002.html").is_file()

    def test_triage_accepts_campaign_dir_and_key_prefix(self, tmp_path,
                                                        capsys):
        assert main(self.record_args(tmp_path, ["--json"])) == 0
        payload = json.loads(capsys.readouterr().out)
        key = payload["fleet_key"]
        records = str(tmp_path / "records")
        assert main(["triage", "--record-dir", records,
                     "--fleet-key", key[:8], "--json"]) == 0
        triaged = json.loads(capsys.readouterr().out)
        assert triaged["fleet_key"] == key

    def test_triage_without_manifest_exits_2(self, tmp_path, capsys):
        assert main(["triage", "--record-dir",
                     str(tmp_path / "empty")]) == 2
        assert "no anomaly manifest" in capsys.readouterr().err

    def test_triage_unknown_key_prefix_exits_2(self, tmp_path, capsys):
        assert main(self.record_args(tmp_path, ["--json"])) == 0
        capsys.readouterr()
        assert main(["triage", "--record-dir",
                     str(tmp_path / "records"),
                     "--fleet-key", "zzzzzz"]) == 2
        assert "no campaign matching" in capsys.readouterr().err

    def test_triage_ambiguous_campaigns_exit_2(self, tmp_path, capsys):
        records = str(tmp_path / "records")
        for seed in ("3", "4"):
            assert main(["fleet", "--sessions", "3", "--shard-size", "3",
                         "--duration", "8", "--seed", seed,
                         "--record-dir", records, "--json"]) == 0
        capsys.readouterr()
        assert main(["triage", "--record-dir", records]) == 2
        assert "pick one with --fleet-key" in capsys.readouterr().err

    def test_damaged_capture_degrades_triage_and_why(self, tmp_path,
                                                     capsys):
        assert main(self.record_args(tmp_path, ["--json"])) == 0
        payload = json.loads(capsys.readouterr().out)
        artifact = next(r["artifact"] for r in payload["anomalies"]
                        if r["index"] == 2)
        records = str(tmp_path / "records")
        mistype_capture(f"{records}/{artifact}")
        assert main(["triage", "--record-dir", records, "--json"]) == 0
        out = capsys.readouterr()
        triaged = {r["index"]: r for r in json.loads(out.out)["records"]}
        replay = triaged[2]["replay"]
        assert replay["replayed"] is False
        assert artifact in replay["error"]
        assert "(ChunkDownloaded) field level" in replay["error"]
        assert any(r["replay"]["replayed"] for r in triaged.values())
        why = triaged[2]["why"]
        assert why["attributed"] is False
        assert artifact in why["error"]
        assert "field level" in why["error"]
        html = tmp_path / "triage" / "triage.html"
        html.parent.mkdir()
        assert main(["triage", "--record-dir", records,
                     "--html", str(html)]) == 0
        err = capsys.readouterr().err
        assert "Traceback" not in err and html.is_file()
        assert not (html.parent / "anomaly-00000002.html").exists()

    def test_bad_recorder_args_exit_2(self, capsys):
        assert main(self.ARGS + ["--record-dir", "x",
                                 "--record-bottom-k", "-1"]) == 2
        assert main(self.ARGS + ["--fault-session", "-5"]) == 2
        capsys.readouterr()


class TestWhyCli:
    """repro why: attribution over live runs, exports, and campaigns."""

    def fault_trace(self, tmp_path, name="faulty.jsonl"):
        """Export a trace with the seeded scheduler fault."""
        from repro.core.scheduler import DeadlineAwareScheduler

        orig = DeadlineAwareScheduler.on_transfer_start

        def faulty(scheduler, now, transfer, conn):
            orig(scheduler, now, transfer, conn)
            if scheduler.active:
                for path in conn.path_names():
                    conn.request_path_state(path, False)

        path = str(tmp_path / name)
        DeadlineAwareScheduler.on_transfer_start = faulty
        try:
            assert main(["trace"] + SESSION_ARGS + ["--out", path]) == 0
        finally:
            DeadlineAwareScheduler.on_transfer_start = orig
        return path

    def test_live_session_attributes_to_stderr(self, capsys):
        assert main(["why"] + SESSION_ARGS) == 0
        captured = capsys.readouterr()
        assert captured.out == ""  # human table rides stderr
        assert ("no anomalies to attribute" in captured.err
                or "anomalies attributed" in captured.err)

    def test_load_faulty_trace_blames_scheduler(self, tmp_path, capsys):
        path = self.fault_trace(tmp_path)
        capsys.readouterr()
        assert main(["why", "--load", path, "--json"]) == 0
        captured = capsys.readouterr()
        assert f"attributing {path} offline" in captured.err
        payload = json.loads(captured.out)
        assert payload["summary"]["top_layer"] == "scheduler"
        assert payload["summary"]["top_cause"] == \
            "path-control-violation"
        assert payload["attributions"]

    def test_offline_equals_live_verdicts(self, tmp_path, capsys):
        assert main(["why"] + SESSION_ARGS + ["--json"]) == 0
        live = json.loads(capsys.readouterr().out)
        path = str(tmp_path / "run.jsonl")
        assert main(["trace"] + SESSION_ARGS + ["--out", path]) == 0
        capsys.readouterr()
        assert main(["why", "--load", path, "--json"]) == 0
        offline = json.loads(capsys.readouterr().out)
        # The sampler rides along live but never perturbs the session,
        # so verdicts agree; the live trace just has more evidence.
        assert offline["summary"]["total"] == live["summary"]["total"]

    def test_diff_two_arms(self, tmp_path, capsys):
        base = str(tmp_path / "vanilla.jsonl")
        faulty = self.fault_trace(tmp_path)
        assert main(["trace"] + SESSION_ARGS + ["--out", base]) == 0
        capsys.readouterr()
        assert main(["why", "--diff", faulty, base, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["aligned_chunks"] > 0
        top = payload["cause_deltas"][0]
        # The injected scheduler fault is the top mover, A-heavy.
        assert top["cause"] == "path-control-violation"
        assert top["delta"] > 0
        assert main(["why", "--diff", faulty, base]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "diffing" in captured.err
        assert "path-control-violation" in captured.err

    def test_diff_load_error_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.jsonl")
        assert main(["why", "--diff", missing, missing]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_load_error_exits_2(self, tmp_path, capsys):
        assert main(["why", "--load",
                     str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_triage_attributes_campaign(self, tmp_path, capsys):
        records = str(tmp_path / "records")
        assert main(["fleet", "--sessions", "6", "--shard-size", "3",
                     "--duration", "8", "--seed", "3", "--record-dir",
                     records, "--fault-session", "2", "--json"]) == 0
        capsys.readouterr()
        assert main(["triage", "--record-dir", records, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fleet_key"]
        fault = next(r for r in payload["records"] if r["index"] == 2)
        assert fault["why"]["attributed"] is True
        assert fault["why"]["summary"]["top_layer"] == "scheduler"
        assert fault["why"]["summary"] == fault["attribution"]

    @pytest.mark.parametrize("flag", ["--record-dir", "--fleet-key"])
    def test_campaign_flags_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["why", flag, "x"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestTopValidation:
    """--top must be a positive integer on every CLI that ranks."""

    @pytest.mark.parametrize("value", ["0", "-3", "nope"])
    def test_triage_rejects_non_positive_top(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["triage", "--record-dir", "x", "--top", value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --top" in err
        assert "positive integer" in err or "not an integer" in err

    @pytest.mark.parametrize("value", ["0", "-1", "2.5"])
    def test_why_rejects_non_positive_top(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["why", "--top", value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --top" in err
        assert "positive integer" in err or "not an integer" in err


def _seed_ledger(path, misses=(0.0, 0.0, 0.0), kind="fleet"):
    """Hand-built single-metric history; returns the entries in order.

    Labels are distinct per entry so the content-addressed ids differ
    even when a perfectly stable history repeats one metric value.
    """
    from repro.obs.ledger import LedgerEntry, RunLedger

    ledger = RunLedger(path)
    entries = []
    for i, value in enumerate(misses):
        entry = LedgerEntry(kind=kind, key="grid", label=f"run{i}",
                            environment={"python": "3.11"},
                            metrics={"deadline_misses": value,
                                     "qoe": 5.0})
        ledger.append(entry)
        entries.append(entry)
    return entries



def _seed_perf_ledger(path, walls, pythons=None):
    """Hand-built fleet history of wall-clock timings, one entry each."""
    from repro.obs.ledger import LedgerEntry, RunLedger

    ledger = RunLedger(path)
    entries = []
    for i, wall in enumerate(walls):
        python = pythons[i] if pythons else "3.11"
        entry = LedgerEntry(kind="fleet", key="grid", label=f"run{i}",
                            environment={"python": python},
                            metrics={"wall_clock_seconds": wall,
                                     "sim_per_wall": 960.0 / wall})
        ledger.append(entry)
        entries.append(entry)
    return entries


class TestHistory:
    def test_list_table_goes_to_stderr(self, tmp_path, capsys):
        path = str(tmp_path / "runs.jsonl")
        _seed_ledger(path)
        assert main(["history", "list", "--ledger", path]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "3 entries" in captured.err
        assert "fleet" in captured.err

    def test_list_json_is_pure_stdout(self, tmp_path, capsys):
        path = str(tmp_path / "runs.jsonl")
        entries = _seed_ledger(path)
        assert main(["history", "list", "--ledger", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [e["entry_id"] for e in payload] == [
            entry.entry_id for entry in entries]

    def test_kind_and_last_filters(self, tmp_path, capsys):
        path = str(tmp_path / "runs.jsonl")
        _seed_ledger(path, misses=(0.0, 1.0, 2.0))
        _seed_ledger(path, misses=(9.0,), kind="session")
        assert main(["history", "list", "--ledger", path,
                     "--kind", "fleet", "--last", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [e["metrics"]["deadline_misses"] for e in payload] == [1.0,
                                                                     2.0]

    def test_missing_ledger_lists_empty(self, tmp_path, capsys):
        assert main(["history", "list", "--ledger",
                     str(tmp_path / "never.jsonl"), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_corrupt_line_warns_on_stderr(self, tmp_path, capsys):
        path = str(tmp_path / "runs.jsonl")
        _seed_ledger(path)
        with open(path, "a") as handle:
            handle.write("{torn")  # crash mid-append
        assert main(["history", "list", "--ledger", path, "--json"]) == 0
        captured = capsys.readouterr()
        assert len(json.loads(captured.out)) == 3
        assert "skipped unreadable ledger line" in captured.err

    def test_show_prints_canonical_entry(self, tmp_path, capsys):
        path = str(tmp_path / "runs.jsonl")
        entries = _seed_ledger(path)
        target = entries[1]
        assert main(["history", "show", target.entry_id[:10],
                     "--ledger", path]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["entry_id"] == target.entry_id
        assert "deadline_misses" in captured.err  # human metric table

    def test_show_unknown_prefix_exits_2(self, tmp_path, capsys):
        path = str(tmp_path / "runs.jsonl")
        _seed_ledger(path)
        assert main(["history", "show", "ffffff", "--ledger", path]) == 2
        assert "no entry matching" in capsys.readouterr().err

    def test_show_ambiguous_prefix_exits_2(self, tmp_path, capsys):
        path = str(tmp_path / "runs.jsonl")
        _seed_ledger(path, misses=(0.0, 1.0))
        assert main(["history", "show", "", "--ledger", path]) == 2
        assert "ambiguous" in capsys.readouterr().err

    def test_show_requires_exactly_one_id(self, tmp_path, capsys):
        path = str(tmp_path / "runs.jsonl")
        _seed_ledger(path)
        assert main(["history", "show", "--ledger", path]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_diff_reports_deltas(self, tmp_path, capsys):
        path = str(tmp_path / "runs.jsonl")
        entries = _seed_ledger(path, misses=(2.0, 6.0))
        assert main(["history", "diff", entries[0].entry_id[:10],
                     entries[1].entry_id[:10], "--ledger", path,
                     "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        misses = [d for d in document["metrics"]
                  if d["metric"] == "deadline_misses"][0]
        assert misses["a"] == 2.0 and misses["b"] == 6.0
        assert misses["delta"] == 4.0
        assert misses["relative"] == pytest.approx(2.0)
        assert document["environment_changes"] == {}

    def test_diff_requires_two_ids(self, tmp_path, capsys):
        path = str(tmp_path / "runs.jsonl")
        _seed_ledger(path)
        assert main(["history", "diff", "--ledger", path]) == 2
        assert "exactly two" in capsys.readouterr().err

    def test_trend_json_document(self, tmp_path, capsys):
        path = str(tmp_path / "runs.jsonl")
        _seed_ledger(path)
        assert main(["history", "trend", "--ledger", path,
                     "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["entries"] == 3
        assert document["gate_ok"] is True
        assert {s["metric"] for s in document["series"]} == {
            "deadline_misses", "qoe"}

    def test_trend_html_written(self, tmp_path, capsys):
        path = str(tmp_path / "runs.jsonl")
        _seed_ledger(path)
        html = str(tmp_path / "trend.html")
        assert main(["history", "trend", "--ledger", path,
                     "--html", html]) == 0
        text = open(html).read()
        assert "MP-DASH run history" in text
        assert "deadline_misses" in text
        assert "written to" in capsys.readouterr().err

    def test_trend_html_into_missing_directory(self, tmp_path, capsys):
        path = str(tmp_path / "runs.jsonl")
        _seed_ledger(path)
        html = tmp_path / "not" / "yet" / "trend.html"
        assert main(["history", "trend", "--ledger", path,
                     "--html", str(html)]) == 0
        assert "MP-DASH run history" in html.read_text()
        assert "written to" in capsys.readouterr().err

    def test_gate_passes_on_stable_history(self, tmp_path, capsys):
        path = str(tmp_path / "runs.jsonl")
        _seed_ledger(path)
        assert main(["history", "gate", "--ledger", path]) == 0
        assert "drift gate passed" in capsys.readouterr().err

    def test_gate_fails_on_adverse_drift(self, tmp_path, capsys):
        path = str(tmp_path / "runs.jsonl")
        _seed_ledger(path, misses=(0.0, 0.0, 0.0, 50.0))
        assert main(["history", "gate", "--ledger", path]) == 1
        err = capsys.readouterr().err
        assert "DRIFT GATE FAILED" in err
        assert "deadline_misses" in err

    def test_gate_flag_is_an_alias(self, tmp_path, capsys):
        path = str(tmp_path / "runs.jsonl")
        _seed_ledger(path, misses=(0.0, 0.0, 0.0, 50.0))
        assert main(["history", "--gate", "--ledger", path]) == 1
        capsys.readouterr()

    def test_gate_json_document(self, tmp_path, capsys):
        path = str(tmp_path / "runs.jsonl")
        _seed_ledger(path, misses=(0.0, 0.0, 0.0, 50.0))
        assert main(["history", "gate", "--ledger", path, "--json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["gate_ok"] is False
        assert any(f["severity"] == "error"
                   for f in document["findings"])

    def test_gate_fails_on_wall_clock_regression(self, tmp_path, capsys):
        path = str(tmp_path / "runs.jsonl")
        _seed_perf_ledger(path, walls=(2.0, 2.0, 2.0, 20.0))
        assert main(["history", "gate", "--ledger", path]) == 1
        err = capsys.readouterr().err
        assert "DRIFT GATE FAILED" in err
        assert "wall_clock_seconds" in err

    def test_gate_passes_on_wall_clock_improvement(self, tmp_path, capsys):
        path = str(tmp_path / "runs.jsonl")
        _seed_perf_ledger(path, walls=(20.0, 20.0, 20.0, 2.0))
        assert main(["history", "gate", "--ledger", path]) == 0
        assert "drift gate passed" in capsys.readouterr().err

    def test_diff_reports_environment_changes(self, tmp_path, capsys):
        path = str(tmp_path / "runs.jsonl")
        first, second = _seed_perf_ledger(
            path, walls=(2.0, 2.0),
            pythons=("3.11", "2.7.18"))
        assert main(["history", "diff", first.entry_id[:10],
                     second.entry_id[:10], "--ledger", path]) == 0
        err = capsys.readouterr().err
        assert "environment: python: 3.11 -> 2.7.18" in err
        assert "wall_clock_seconds" in err

    def test_diff_same_environment_is_silent(self, tmp_path, capsys):
        path = str(tmp_path / "runs.jsonl")
        first, second = _seed_perf_ledger(path, walls=(2.0, 3.0))
        assert main(["history", "diff", first.entry_id[:10],
                     second.entry_id[:10], "--ledger", path]) == 0
        err = capsys.readouterr().err
        assert "environment:" not in err
        assert "+50.0%" in err

    def test_retired_bench_kind_is_not_a_choice(self, tmp_path, capsys):
        path = str(tmp_path / "runs.jsonl")
        _seed_ledger(path)
        with pytest.raises(SystemExit) as excinfo:
            main(["history", "list", "--ledger", path, "--kind", "bench"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_fleet_ledger_feeds_perf_trends(self, tmp_path, capsys):
        path = str(tmp_path / "runs.jsonl")
        for _ in range(2):
            assert main(TestFleet.ARGS + ["--ledger", path]) == 0
        capsys.readouterr()
        assert main(["history", "trend", "--ledger", path, "--kind",
                     "fleet", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["entries"] == 2
        perf = {s["metric"]: s for s in document["series"]
                if s["metric"] in ("wall_clock_seconds", "sim_per_wall",
                                   "peak_rss_kb")}
        assert sorted(perf) == ["peak_rss_kb", "sim_per_wall",
                                "wall_clock_seconds"]
        assert all(len(s["points"]) == 2 for s in perf.values())

    def test_stream_ledger_flag_appends(self, tmp_path, capsys):
        from repro.obs.ledger import RunLedger

        path = str(tmp_path / "runs.jsonl")
        assert main(["stream", "--abr", "gpac", "--duration", "60",
                     "--wifi", "10", "--lte", "10",
                     "--ledger", path]) == 0
        capsys.readouterr()
        entries = RunLedger(path).entries()
        assert len(entries) == 1 and entries[0].kind == "session"


class TestHistoryDeterminism:
    """The pinned ISSUE contract: every derived view is a byte-
    deterministic pure function of the ledger file."""

    def _trend_bytes(self, path, capsys):
        assert main(["history", "trend", "--ledger", path,
                     "--json"]) == 0
        return capsys.readouterr().out

    def test_trend_json_is_byte_identical(self, tmp_path, capsys):
        path = str(tmp_path / "runs.jsonl")
        _seed_ledger(path, misses=(0.0, 1.0, 0.0, 50.0))
        assert self._trend_bytes(path, capsys) == self._trend_bytes(
            path, capsys)

    def test_history_html_is_byte_identical(self, tmp_path):
        from repro.obs import history_report_html
        from repro.obs.ledger import RunLedger

        path = str(tmp_path / "runs.jsonl")
        _seed_ledger(path, misses=(0.0, 1.0, 0.0, 50.0))
        entries = RunLedger(path).entries()
        first = history_report_html(entries)
        second = history_report_html(RunLedger(path).entries())
        assert first.encode("utf-8") == second.encode("utf-8")

    def test_gate_verdict_survives_copying_the_ledger(self, tmp_path,
                                                      capsys):
        import shutil

        live = str(tmp_path / "live.jsonl")
        _seed_ledger(live, misses=(0.0, 0.0, 0.0, 50.0))
        copy = str(tmp_path / "copy.jsonl")
        shutil.copyfile(live, copy)
        live_code = main(["history", "gate", "--ledger", live])
        live_out = capsys.readouterr()
        copy_code = main(["history", "gate", "--ledger", copy])
        copy_out = capsys.readouterr()
        assert live_code == copy_code == 1
        assert live_out.err == copy_out.err
        assert self._trend_bytes(live, capsys) == self._trend_bytes(
            copy, capsys)


class TestProgressLines:
    """The stderr progress lines of ``sweep`` and ``fleet``, exactly.

    Wall-clock stamps and elapsed seconds are masked; everything else
    (order, counts, keys, reasons, paths) is compared line for line.
    """

    # 300 s sessions take tens of ms, far beyond the 1 ms timeout below.
    SWEEP = ["sweep", "--abr", "gpac", "--duration", "300",
             "--wifi", "8", "--lte", "8", "--grid", "wifi_mbps=6,8,6"]
    FLEET = ["fleet", "--sessions", "6", "--shard-size", "3",
             "--duration", "8", "--seed", "3"]

    @staticmethod
    def progress(err, *paths):
        import re

        lines = []
        for line in err.splitlines():
            if not re.match(r"\[ *\d+\.\d\ds\] ", line):
                continue
            line = re.sub(r"^\[ *\d+\.\d\ds\]", "[t]", line)
            line = re.sub(r"in \d+\.\d\ds", "in <s>", line)
            for name, path in paths:
                line = line.replace(path, name)
            lines.append(line)
        return lines

    def test_sweep_fresh_cached_and_failed(self, tmp_path, capsys):
        assert main(self.SWEEP + ["--json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""  # --json prints no progress line
        keys = [run["key"][:12] for run in
                json.loads(captured.out)["runs"]]
        assert keys[0] == keys[2] != keys[1]
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert main(self.SWEEP + cache) == 0
        assert self.progress(capsys.readouterr().err) == [
            f"[t] run 1/3 {keys[0]} done in <s>",
            f"[t] run 2/3 {keys[1]} done in <s>",
            f"[t] run 3/3 {keys[2]} cached",
        ]
        assert main(self.SWEEP + cache) == 0
        assert self.progress(capsys.readouterr().err) == [
            f"[t] run 1/3 {keys[0]} cached",
            f"[t] run 2/3 {keys[1]} cached",
            f"[t] run 3/3 {keys[2]} cached",
        ]
        assert main(self.SWEEP + ["--timeout", "0.001"]) == 0
        assert self.progress(capsys.readouterr().err) == [
            f"[t] run 1/3 {keys[0]} FAILED (timeout, 1 attempt(s)): "
            f"run exceeded 0.001s",
            f"[t] run 2/3 {keys[1]} FAILED (timeout, 1 attempt(s)): "
            f"run exceeded 0.001s",
            f"[t] run 3/3 {keys[2]} FAILED (timeout, 1 attempt(s)): "
            f"run exceeded 0.001s",
        ]

    def test_fleet_shards_checkpoints_and_captures(self, tmp_path, capsys):
        ckpt, records = str(tmp_path / "ckpt"), str(tmp_path / "records")
        argv = self.FLEET + ["--checkpoint-dir", ckpt,
                             "--checkpoint-every", "1",
                             "--record-dir", records,
                             "--fault-session", "2"]
        assert main(argv + ["--json"]) == 0
        assert capsys.readouterr().err == ""  # --json: no progress line
        assert main(argv) == 0
        saved = "checkpoint @ %d shards -> <ckpt>/fleet-checkpoint.json"
        assert self.progress(capsys.readouterr().err, ("<ckpt>", ckpt)) == [
            "[t] shard 1/2 (3 sessions, 0 failed) in <s>",
            "[t] captured session 0 (bottom_qoe, score -0.80)",
            "[t] captured session 2 (violation, score 4.00)",
            "[t] " + saved % 1,
            "[t] shard 2/2 (3 sessions, 0 failed) in <s>",
            "[t] captured session 3 (bottom_qoe, score -0.80)",
            "[t] " + saved % 2,
        ]
