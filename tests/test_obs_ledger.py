"""Tests for the persistent run ledger (repro.obs.ledger)."""

import dataclasses
import json
import multiprocessing
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs.ledger as ledger_module
from repro.experiments import SessionConfig, run_session
from repro.experiments.fleet import FleetConfig, fleet_key, run_fleet
from repro.experiments.sweep import config_key, run_sweep
from repro.cli import main
from repro.obs.bus import EventBus
from repro.obs.ledger import (ENTRY_KINDS, LEDGER_SCHEMA, LedgerEntry,
                              RunLedger, canonical_json,
                              environment_fingerprint, fleet_entry,
                              peak_rss_kb, registry_digest, session_entry,
                              sweep_entry)


def short_config(**overrides):
    defaults = dict(video_duration=10.0, wifi_mbps=8.0, lte_mbps=8.0)
    defaults.update(overrides)
    return SessionConfig(**defaults)


def entry(**overrides):
    defaults = dict(kind="session", key="abc123", label="t",
                    environment={"python": "3.11"},
                    metrics={"qoe": 1.5, "stall_seconds": 0.0})
    defaults.update(overrides)
    return LedgerEntry(**defaults)


class TestCanonicalPieces:
    def test_canonical_json_is_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'

    def test_environment_fingerprint_shape(self):
        env = environment_fingerprint()
        assert sorted(env) == ["machine", "platform", "python"]
        assert all(isinstance(v, str) and v for v in env.values())

    def test_registry_digest_is_content_addressed(self):
        class Fake:
            def __init__(self, payload):
                self.payload = payload

            def to_dict(self):
                return self.payload

        a = registry_digest(Fake({"x": 1}))
        assert a == registry_digest(Fake({"x": 1}))
        assert a != registry_digest(Fake({"x": 2}))
        assert len(a) == 24


class TestLedgerEntry:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown ledger entry kind"):
            entry(kind="cron")

    def test_rejects_future_schema(self):
        with pytest.raises(ValueError, match="newer than this reader"):
            entry(schema=LEDGER_SCHEMA + 1)

    def test_rejects_non_finite_metric(self):
        with pytest.raises(ValueError, match="must be finite"):
            entry(metrics={"qoe": float("nan")})
        with pytest.raises(ValueError, match="must be finite"):
            entry(metrics={"qoe": float("inf")})

    def test_normalizes_metrics_to_floats(self):
        e = entry(metrics={"runs": 3, "qoe": 1.5})
        assert e.metrics == {"qoe": 1.5, "runs": 3.0}
        assert all(isinstance(v, float) for v in e.metrics.values())

    def test_entry_id_is_deterministic_content_address(self):
        assert entry().entry_id == entry().entry_id
        assert entry().entry_id != entry(metrics={"qoe": 2.0}).entry_id
        assert len(entry().entry_id) == 24

    def test_round_trips_through_dict(self):
        e = entry()
        payload = e.to_dict()
        assert payload["entry_id"] == e.entry_id
        back = LedgerEntry.from_dict(payload)
        assert back == e
        assert back.entry_id == e.entry_id

    def test_round_trip_survives_json(self):
        e = entry(registry_digest="d" * 24)
        back = LedgerEntry.from_dict(json.loads(canonical_json(e.to_dict())))
        assert back == e

    def test_from_dict_detects_tampering(self):
        payload = entry().to_dict()
        payload["metrics"]["qoe"] = 99.0
        with pytest.raises(ValueError, match="entry id mismatch"):
            LedgerEntry.from_dict(payload)

    def test_from_dict_defaults_optional_fields(self):
        back = LedgerEntry.from_dict({"kind": "fleet", "key": "k"})
        assert back.label == "" and back.metrics == {}
        assert back.registry_digest is None
        assert back.schema == LEDGER_SCHEMA

    def test_entry_kinds_cover_every_entry_point(self):
        assert ENTRY_KINDS == ("session", "sweep", "fleet")

    @pytest.mark.parametrize("kind", ENTRY_KINDS)
    def test_round_trips_every_kind(self, kind):
        e = entry(kind=kind, metrics={"wall_clock_seconds": 2.0,
                                      "sim_per_wall": 150.0,
                                      "peak_rss_kb": 50000.0})
        back = LedgerEntry.from_dict(json.loads(canonical_json(e.to_dict())))
        assert back == e and back.entry_id == e.entry_id

    def test_rejects_retired_bench_kind(self):
        with pytest.raises(ValueError, match="unknown ledger entry kind"):
            entry(kind="bench")


class TestRunLedger:
    def test_append_load_round_trip_in_order(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs.jsonl"))
        first = entry(metrics={"qoe": 1.0})
        second = entry(metrics={"qoe": 2.0})
        assert ledger.append(first) == first.entry_id
        ledger.append(second)
        load = ledger.load()
        assert load.warnings == ()
        assert [e.entry_id for e in load.entries] == [first.entry_id,
                                                      second.entry_id]
        assert ledger.entries() == load.entries

    def test_missing_file_loads_empty(self, tmp_path):
        load = RunLedger(str(tmp_path / "never.jsonl")).load()
        assert load.entries == () and load.warnings == ()

    def test_truncated_tail_warns_but_keeps_prefix(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        ledger = RunLedger(path)
        keep = entry()
        ledger.append(keep)
        whole = (canonical_json(entry(metrics={"qoe": 7.0}).to_dict())
                 + "\n")
        with open(path, "a") as handle:
            handle.write(whole[:len(whole) // 2])  # crash mid-append
        load = ledger.load()
        assert [e.entry_id for e in load.entries] == [keep.entry_id]
        assert len(load.warnings) == 1
        assert "skipped unreadable ledger line" in load.warnings[0]
        assert ":2:" in load.warnings[0]

    def test_corrupt_middle_line_skipped_with_warning(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        ledger = RunLedger(path)
        first = entry(metrics={"qoe": 1.0})
        last = entry(metrics={"qoe": 2.0})
        ledger.append(first)
        with open(path, "a") as handle:
            handle.write("{not json}\n")
            handle.write('["a","json","array"]\n')
        ledger.append(last)
        load = ledger.load()
        assert [e.entry_id for e in load.entries] == [first.entry_id,
                                                      last.entry_id]
        assert len(load.warnings) == 2
        assert "not a JSON object" in load.warnings[1]

    def test_tampered_line_is_a_warning_not_a_crash(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        payload = entry().to_dict()
        payload["metrics"]["qoe"] = -1.0  # id no longer matches
        with open(path, "w") as handle:
            handle.write(canonical_json(payload) + "\n")
        load = RunLedger(path).load()
        assert load.entries == ()
        assert "entry id mismatch" in load.warnings[0]

    def test_blank_lines_are_ignored(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        ledger = RunLedger(path)
        ledger.append(entry())
        with open(path, "a") as handle:
            handle.write("\n   \n")
        ledger.append(entry(metrics={"qoe": 3.0}))
        load = ledger.load()
        assert len(load.entries) == 2 and load.warnings == ()

    def test_repr_names_the_path(self, tmp_path):
        assert "runs.jsonl" in repr(RunLedger(str(tmp_path / "runs.jsonl")))

    def test_retired_bench_kind_is_skipped_with_one_warning(self, tmp_path,
                                                           capsys):
        # A line the retired "bench" entry kind wrote, verbatim in shape.
        path = str(tmp_path / "runs.jsonl")
        ledger = RunLedger(path)
        first, last = entry(metrics={"qoe": 1.0}), entry(metrics={"qoe": 2.0})
        ledger.append(first)
        with open(path, "a") as handle:
            handle.write(canonical_json({
                "schema": 1, "kind": "bench", "key": "ci", "label": "ci",
                "environment": {"machine": "x86_64", "platform": "linux",
                                "python": "3.11"},
                "metrics": {"single.sim_per_wall": 7600.0,
                            "single.wall_clock": 0.04},
                "registry_digest": None,
                "entry_id": "0123456789abcdef01234567"}) + "\n")
        ledger.append(last)
        load = ledger.load()
        assert load.entries == (first, last)
        assert len(load.warnings) == 1
        assert ":2: skipped unreadable ledger line" in load.warnings[0]
        assert "unknown ledger entry kind 'bench'" in load.warnings[0]
        assert main(["history", "list", "--ledger", path]) == 0
        err = capsys.readouterr().err
        assert err.count("skipped unreadable ledger line") == 1
        assert "Traceback" not in err


class _FakeResource:
    """Stands in for the ``resource`` module with a fixed high-water mark."""

    RUSAGE_SELF = 0

    def __init__(self, maxrss):
        self.maxrss = maxrss

    def getrusage(self, who):
        assert who == self.RUSAGE_SELF
        return type("Usage", (), {"ru_maxrss": self.maxrss})()


class TestPeakRss:
    def test_probe_reports_positive_kib(self):
        peak = peak_rss_kb()
        assert isinstance(peak, int) and peak > 0

    def test_probe_is_a_high_water_mark(self):
        before = peak_rss_kb()
        ballast = bytearray(8 << 20)
        assert peak_rss_kb() >= before
        del ballast

    def test_probe_without_resource_is_none(self, monkeypatch):
        monkeypatch.setattr(ledger_module, "resource", None)
        assert peak_rss_kb() is None

    @pytest.mark.parametrize("platform, maxrss, expected", [
        ("linux", 65536, 65536),  # ru_maxrss is already KiB
        ("darwin", 65536 * 1024, 65536),  # ru_maxrss is bytes
        ("darwin", 1023, 0),
    ])
    def test_probe_units_per_platform(self, monkeypatch, platform, maxrss,
                                      expected):
        monkeypatch.setattr(ledger_module, "resource", _FakeResource(maxrss))
        monkeypatch.setattr(ledger_module, "sys",
                            type("Sys", (), {"platform": platform}))
        assert peak_rss_kb() == expected


class TestPerfMetrics:
    @pytest.mark.parametrize("wall_clock, sim_seconds, expected", [
        (None, 10.0, {}),
        (0.0, 10.0, {}),
        (-1.0, 10.0, {}),
        (2.0, None, {"wall_clock_seconds": 2.0}),
        (2.0, 10.0, {"wall_clock_seconds": 2.0, "sim_per_wall": 5.0}),
        (2.0, 0.0, {"wall_clock_seconds": 2.0, "sim_per_wall": 0.0}),
    ])
    def test_timing_metrics(self, monkeypatch, wall_clock, sim_seconds,
                            expected):
        monkeypatch.setattr(ledger_module, "peak_rss_kb", lambda: None)
        assert ledger_module._perf_metrics(wall_clock,
                                           sim_seconds) == expected

    def test_peak_rss_recorded_whenever_probed(self, monkeypatch):
        monkeypatch.setattr(ledger_module, "peak_rss_kb", lambda: 4096)
        assert ledger_module._perf_metrics(None, None) == {
            "peak_rss_kb": 4096.0}
        assert ledger_module._perf_metrics(4.0, 8.0) == {
            "wall_clock_seconds": 4.0, "sim_per_wall": 2.0,
            "peak_rss_kb": 4096.0}


#: A valid multi-entry ledger: every kind, and no optional field left at
#: its default, so most single-byte damage changes the content address.
_FUZZ_ENTRIES = tuple(
    LedgerEntry(kind=kind, key=f"{kind}-{i:02d}", label=f"run {i}",
                environment={"python": "3.11", "platform": "linux",
                             "machine": "x86_64"},
                metrics={"qoe": 1.5 * i - 2.0, "cellular_mbytes": 12.25,
                         "peak_rss_kb": 65536.0 + i},
                registry_digest=f"{i:024x}")
    for i, kind in enumerate(("session", "sweep", "fleet", "session")))
_FUZZ_LINES = [canonical_json(e.to_dict()).encode("utf-8")
               for e in _FUZZ_ENTRIES]
_FUZZ_BYTES = b"".join(line + b"\n" for line in _FUZZ_LINES)


def _damage(kind, position):
    if kind == "truncate":
        return _FUZZ_BYTES[:position % (len(_FUZZ_BYTES) + 1)]
    bit = position % (8 * len(_FUZZ_BYTES))
    damaged = bytearray(_FUZZ_BYTES)
    damaged[bit // 8] ^= 1 << (bit % 8)
    return bytes(damaged)


class TestLedgerLoadFuzz:
    @given(kind=st.sampled_from(("truncate", "flip")),
           position=st.integers(min_value=0,
                                max_value=8 * len(_FUZZ_BYTES) - 1))
    @settings(max_examples=300, deadline=None)
    def test_damaged_ledger_loads_without_raising(self, kind, position):
        data = _damage(kind, position)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "runs.jsonl")
            with open(path, "wb") as handle:
                handle.write(data)
            load = RunLedger(path).load()
        lines = [(number, line)
                 for number, line in enumerate(data.split(b"\n"), 1)
                 if line.strip()]
        warned = []
        for warning in load.warnings:
            match = re.search(r":(\d+): skipped unreadable ledger line",
                              warning)
            assert match is not None, warning
            warned.append(int(match.group(1)))
        # At most one warning per line, and only for damaged lines.
        assert len(set(warned)) == len(warned)
        intact = {line: e for line, e in zip(_FUZZ_LINES, _FUZZ_ENTRIES)}
        assert not any(line in intact
                       for number, line in lines if number in warned)
        # Every line that still parses keeps its entry: an intact line
        # its own, a damaged one (e.g. a flipped optional key whose value
        # was the default) the entry it held before the damage.
        expected = [intact.get(line) or _FUZZ_ENTRIES[number - 1]
                    for number, line in lines if number not in warned]
        assert load.entries == tuple(expected)


def _append_batch(path, worker, count):
    ledger = RunLedger(path)
    for i in range(count):
        ledger.append(LedgerEntry(
            kind="session", key=f"worker{worker}",
            metrics={"qoe": float(i), "worker": float(worker)}))


class TestConcurrentAppends:
    def test_two_processes_never_interleave_records(self, tmp_path):
        path = str(tmp_path / "shared.jsonl")
        count = 200
        ctx = multiprocessing.get_context("spawn")
        workers = [ctx.Process(target=_append_batch, args=(path, w, count))
                   for w in (1, 2)]
        for proc in workers:
            proc.start()
        for proc in workers:
            proc.join()
            assert proc.exitcode == 0
        load = RunLedger(path).load()
        assert load.warnings == ()  # no torn lines, every entry readable
        assert len(load.entries) == 2 * count
        for worker in (1, 2):
            seen = [e.metrics["qoe"] for e in load.entries
                    if e.key == f"worker{worker}"]
            assert seen == [float(i) for i in range(count)]


class TestSessionEntry:
    def test_headline_metrics_from_a_real_run(self):
        config = short_config()
        result = run_session(config)
        e = session_entry(result, label="smoke", wall_clock=0.5)
        assert e.kind == "session"
        assert e.key == config_key(config)
        assert e.label == "smoke"
        for name in ("qoe", "bitrate_mbps", "stall_seconds", "stall_count",
                     "startup_seconds", "cellular_mbytes",
                     "cellular_fraction", "energy_joules",
                     "deadline_misses", "finished", "wall_clock_seconds",
                     "sim_per_wall"):
            assert name in e.metrics, name
        assert e.metrics["finished"] == 1.0
        assert e.metrics["sim_per_wall"] == pytest.approx(
            result.session_duration / 0.5)
        assert e.environment == environment_fingerprint()

    def test_without_wall_clock_no_timing_is_recorded(self):
        e = session_entry(run_session(short_config()))
        assert "wall_clock_seconds" not in e.metrics
        assert "sim_per_wall" not in e.metrics
        assert e.metrics["peak_rss_kb"] > 0

    def test_checked_run_records_violations(self):
        result = run_session(short_config(), check=True)
        e = session_entry(result)
        assert "violations" in e.metrics

    def test_profiled_run_carries_registry_digest(self):
        result = run_session(short_config())
        e = session_entry(result)
        if result.metrics_registry is not None:
            assert e.registry_digest == registry_digest(
                result.metrics_registry)


class TestSweepEntry:
    def test_key_ignores_run_order(self):
        a, b = short_config(), short_config(wifi_mbps=4.0)
        forward = sweep_entry(run_sweep([a, b]))
        backward = sweep_entry(run_sweep([b, a]))
        assert forward.key == backward.key
        assert forward.kind == "sweep"

    def test_aggregates_session_headlines(self):
        e = sweep_entry(run_sweep([short_config()]), label="grid")
        assert e.metrics["runs"] == 1.0
        assert e.metrics["failures"] == 0.0
        for name in ("qoe", "bitrate_mbps", "stall_seconds",
                     "cellular_mbytes", "energy_joules",
                     "deadline_misses", "cache_hits"):
            assert name in e.metrics, name

    def test_perf_metrics_sum_session_time(self):
        result = run_sweep([short_config(), short_config(wifi_mbps=4.0)])
        e = sweep_entry(result)
        sim_seconds = sum(s.session_duration for s in result.summaries)
        assert e.metrics["wall_clock_seconds"] == result.wall_clock
        assert e.metrics["sim_per_wall"] == pytest.approx(
            sim_seconds / result.wall_clock)
        assert e.metrics["peak_rss_kb"] > 0


    def test_failed_runs_carry_no_session_headlines(self):
        from repro.experiments import FileDownloadConfig

        ok = short_config()
        result = run_sweep([ok, FileDownloadConfig(size=2e6,
                                                   deadline=8.0)])
        e = sweep_entry(result)
        assert e.metrics["runs"] == 2.0
        assert e.metrics["failures"] == 1.0
        alone = sweep_entry(run_sweep([ok]))
        for name in ("qoe", "bitrate_mbps", "cellular_mbytes",
                     "energy_joules"):
            assert e.metrics[name] == alone.metrics[name], name
        only_failed = sweep_entry(run_sweep([FileDownloadConfig(
            size=2e6, deadline=8.0)]))
        assert only_failed.metrics["failures"] == 1.0
        assert "qoe" not in only_failed.metrics


class TestFleetEntry:
    def test_population_quantiles_and_registry_digest(self):
        result = run_fleet(FleetConfig(sessions=6, shard_size=3,
                                       video_duration=6.0, seed=7))
        e = fleet_entry(result, label="nightly")
        assert e.kind == "fleet"
        assert e.key == fleet_key(result.config)
        assert e.metrics["sessions"] == 6.0
        for name in ("deadline_misses", "unfinished_sessions",
                     "bitrate_p50_mbps", "stalled_session_fraction"):
            assert name in e.metrics, name
        assert e.registry_digest == registry_digest(result.registry)
        # No recorder armed: no anomaly series is fabricated.
        if result.recorder is None:
            assert "anomalies" not in e.metrics

    def test_perf_metrics_from_a_real_fleet(self):
        result = run_fleet(FleetConfig(sessions=4, shard_size=2,
                                       video_duration=6.0, seed=7))
        e = fleet_entry(result)
        assert e.metrics["wall_clock_seconds"] == result.wall_clock
        assert e.metrics["sim_per_wall"] == pytest.approx(
            result.sim_seconds / result.wall_clock)
        assert e.metrics["sim_per_wall"] > 1.0
        assert e.metrics["peak_rss_kb"] > 0

    def test_recorded_fleet_perf_metrics(self, tmp_path):
        from repro.obs.recorder import RecorderConfig

        result = run_fleet(FleetConfig(sessions=4, shard_size=2,
                                       video_duration=6.0, seed=7),
                           recorder=RecorderConfig(
                               artifact_dir=str(tmp_path / "rec")))
        e = fleet_entry(result)
        assert result.failures == 0
        for name in ("anomalies", "violations", "wall_clock_seconds",
                     "sim_per_wall", "peak_rss_kb"):
            assert name in e.metrics, name


class TestEntryPointOptIn:
    def test_run_session_ledger_flag_appends(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        run_session(short_config(), ledger=path)
        entries = RunLedger(path).entries()
        assert len(entries) == 1 and entries[0].kind == "session"
        assert "wall_clock_seconds" in entries[0].metrics

    def test_run_sweep_ledger_flag_appends(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        run_sweep([short_config()], ledger=path)
        entries = RunLedger(path).entries()
        assert len(entries) == 1 and entries[0].kind == "sweep"

    def test_run_fleet_ledger_flag_appends(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        run_fleet(FleetConfig(sessions=4, shard_size=2,
                              video_duration=6.0, seed=7), ledger=path)
        entries = RunLedger(path).entries()
        assert len(entries) == 1 and entries[0].kind == "fleet"

    def test_run_fleet_ledger_entry_carries_perf_metrics(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        result = run_fleet(FleetConfig(sessions=4, shard_size=2,
                                       video_duration=6.0, seed=7),
                           ledger=path)
        (e,) = RunLedger(path).entries()
        assert e.metrics["sessions"] == 4.0
        assert e.metrics["wall_clock_seconds"] == result.wall_clock
        assert e.metrics["sim_per_wall"] > 0
        assert e.metrics["peak_rss_kb"] > 0

    def test_ledger_never_changes_the_run(self, tmp_path):
        config = short_config()
        plain = run_session(config)
        recorded = run_session(config, ledger=str(tmp_path / "l.jsonl"))
        assert dataclasses.asdict(plain.metrics) == dataclasses.asdict(
            recorded.metrics)
