"""Tests for the flight recorder and anomaly triage pipeline."""

import gzip
import hashlib
import io
import json
import os

import pytest

import repro.experiments.fleet as fleet_module
from repro.experiments.fleet import FleetConfig, fleet_key, run_fleet
from repro.obs import (RecorderConfig, ShardRecorder, find_manifests,
                       load_jsonl, load_manifest, rank_anomalies,
                       save_manifest, triage_captures, triage_table)
from repro.obs.events import StallStart
from repro.obs.recorder import (MANIFEST_VERSION, REASON_ORDER,
                                artifact_name, empty_stats, key_dir,
                                load_capture, merge_stats)
from repro.obs.trace_export import TraceMeta, dumps_jsonl, gzip_bytes


class FakeMetrics:
    def __init__(self, bitrate=2.0, stall_time=0.0, stalls=0):
        self.mean_bitrate_mbps = bitrate
        self.total_stall_time = stall_time
        self.stall_count = stalls


class FakeResult:
    """Duck-typed SessionResult surface the recorder observes."""

    def __init__(self, bitrate=2.0, stall_time=0.0, stalls=0, misses=0,
                 events=(), finished=True, duration=10.0, traced=True):
        self.metrics = FakeMetrics(bitrate, stall_time, stalls)
        self.scheduler_stats = {"deadline_misses": misses}
        self.finished = finished
        self.session_duration = duration
        self.events = list(events) if traced else None
        self.trace_meta = TraceMeta(session_duration=duration)


def recorder(tmp_path, **overrides):
    defaults = dict(artifact_dir=str(tmp_path / "records"), check=False,
                    bottom_k=0)
    defaults.update(overrides)
    return ShardRecorder(RecorderConfig(**defaults), "deadbeefcafe", 0)


def tree_digest(root):
    """Stable digest of every file under ``root`` (path + bytes)."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


class TestRecorderConfig:
    def test_requires_artifact_dir(self):
        with pytest.raises(ValueError):
            RecorderConfig(artifact_dir="")

    def test_rejects_negative_knobs(self):
        for field in ("head_every", "miss_threshold", "stall_threshold",
                      "bottom_k", "max_events"):
            with pytest.raises(ValueError):
                RecorderConfig(artifact_dir="x", **{field: -1})

    def test_defaults_are_valid(self):
        config = RecorderConfig(artifact_dir="x")
        assert config.check and config.capture_failures
        assert config.head_every == 0


class TestShardRecorder:
    def test_quiet_sessions_leave_no_records(self, tmp_path):
        rec = recorder(tmp_path)
        for index in range(5):
            rec.observe(index, FakeResult())
        rec.flush()
        assert rec.records == []
        assert rec.stats["sessions"] == 5
        assert rec.stats["captured"] == 0
        assert not os.path.exists(rec.directory)

    def test_untraced_sessions_are_counted(self, tmp_path):
        rec = recorder(tmp_path)
        rec.observe(0, FakeResult(traced=False, misses=99))
        rec.flush()
        assert rec.stats["untraced"] == 1
        assert rec.records == []  # never judged, never captured

    def test_miss_threshold_triggers_capture(self, tmp_path):
        rec = recorder(tmp_path, miss_threshold=5)
        rec.observe(3, FakeResult(misses=7))
        rec.flush()
        (record,) = rec.records
        assert record["reason"] == "deadline_miss"
        assert record["score"] == 7.0
        assert record["index"] == 3 and record["shard"] == 0
        artifact = os.path.join(str(tmp_path / "records"),
                                record["artifact"])
        assert os.path.isfile(artifact)
        assert load_jsonl(artifact).meta.session_duration == 10.0

    def test_stall_threshold_triggers_capture(self, tmp_path):
        rec = recorder(tmp_path, stall_threshold=2)
        rec.observe(1, FakeResult(stalls=4, stall_time=3.0))
        rec.flush()
        (record,) = rec.records
        assert record["reason"] == "stall" and record["score"] == 4.0

    def test_most_severe_reason_wins(self, tmp_path):
        rec = recorder(tmp_path, miss_threshold=1, stall_threshold=1)
        rec.observe(0, FakeResult(misses=2, stalls=2))
        rec.flush()
        (record,) = rec.records
        assert record["reason"] == "deadline_miss"
        assert record["reasons"] == ["deadline_miss", "stall"]
        assert rec.stats["by_reason"]["deadline_miss"] == 1
        assert rec.stats["by_reason"]["stall"] == 0

    def test_zero_thresholds_disable_their_triggers(self, tmp_path):
        rec = recorder(tmp_path, miss_threshold=0, stall_threshold=0)
        rec.observe(0, FakeResult(misses=50, stalls=50))
        rec.flush()
        assert rec.records == []

    def test_head_sampling_is_deterministic(self, tmp_path):
        rec = recorder(tmp_path, head_every=3)
        for index in range(7):
            rec.observe(index, FakeResult())
        rec.flush()
        assert [r["index"] for r in rec.records] == [0, 3, 6]
        assert all(r["reason"] == "head_sample" for r in rec.records)

    def test_bottom_k_reservoir_keeps_the_worst(self, tmp_path):
        rec = recorder(tmp_path, bottom_k=2)
        qoes = {0: 5.0, 1: 1.0, 2: 3.0, 3: 0.5, 4: 4.0}
        for index, qoe in qoes.items():
            rec.observe(index, FakeResult(bitrate=qoe))
        rec.flush()
        assert [r["index"] for r in rec.records] == [1, 3]
        assert all(r["reason"] == "bottom_qoe" for r in rec.records)
        worst = min(rec.records, key=lambda r: r["qoe"])
        assert worst["index"] == 3
        assert worst["score"] == pytest.approx(-0.5)  # -qoe

    def test_qoe_proxy_penalizes_stall_ratio(self, tmp_path):
        rec = recorder(tmp_path, bottom_k=1)
        rec.observe(0, FakeResult(bitrate=3.0))
        rec.observe(1, FakeResult(bitrate=3.0, stall_time=5.0,
                                  duration=10.0))
        rec.flush()
        (record,) = rec.records
        assert record["index"] == 1  # 3.0 - 8.0 * 0.5 < 3.0

    def test_triggered_sessions_stay_out_of_the_reservoir(self, tmp_path):
        rec = recorder(tmp_path, bottom_k=1, miss_threshold=1)
        rec.observe(0, FakeResult(bitrate=0.1, misses=3))
        rec.observe(1, FakeResult(bitrate=9.0))
        rec.flush()
        reasons = {r["index"]: r["reason"] for r in rec.records}
        assert reasons == {0: "deadline_miss", 1: "bottom_qoe"}

    def test_oversized_traces_counted_not_written(self, tmp_path):
        rec = recorder(tmp_path, miss_threshold=1, max_events=1)
        events = [StallStart(0.1), StallStart(0.2)]
        rec.observe(0, FakeResult(misses=5, events=events))
        rec.flush()
        (record,) = rec.records
        assert record["artifact"] is None and record["events"] == 2
        assert rec.stats["oversized"] == 1
        assert rec.stats["captured"] == 1
        assert rec.stats["bytes_written"] == 0

    def test_record_failure(self, tmp_path):
        rec = recorder(tmp_path)
        rec.record_failure(4, "ValueError: boom")
        rec.flush()
        (record,) = rec.records
        assert record["reason"] == "failure" and record["score"] == 1.0
        assert record["artifact"] is None
        assert record["error"] == "ValueError: boom"
        assert rec.stats["by_reason"]["failure"] == 1

    def test_capture_failures_can_be_disabled(self, tmp_path):
        rec = recorder(tmp_path, capture_failures=False)
        rec.record_failure(4, "ValueError: boom")
        rec.flush()
        assert rec.records == [] and rec.stats["captured"] == 0
        assert rec.stats["sessions"] == 1

    def test_records_sorted_by_index_after_flush(self, tmp_path):
        rec = recorder(tmp_path, miss_threshold=1, bottom_k=1)
        rec.observe(2, FakeResult(misses=5))
        rec.record_failure(0, "boom")
        rec.observe(1, FakeResult(bitrate=0.1))
        rec.flush()
        assert [r["index"] for r in rec.records] == [0, 1, 2]

    def test_artifacts_are_byte_identical_across_recorders(self, tmp_path):
        blobs = []
        for attempt in ("one", "two"):
            rec = ShardRecorder(
                RecorderConfig(artifact_dir=str(tmp_path / attempt),
                               check=False, bottom_k=0, miss_threshold=1),
                "deadbeefcafe", 0)
            rec.observe(7, FakeResult(misses=2, events=[StallStart(0.5)]))
            rec.flush()
            path = os.path.join(str(tmp_path / attempt),
                                rec.records[0]["artifact"])
            with open(path, "rb") as handle:
                blobs.append(handle.read())
        assert blobs[0] == blobs[1]

    def test_no_temp_files_left_behind(self, tmp_path):
        rec = recorder(tmp_path, head_every=1)
        for index in range(4):
            rec.observe(index, FakeResult())
        rec.flush()
        leftovers = [name for name in os.listdir(rec.directory)
                     if ".tmp." in name]
        assert leftovers == []

    def test_payload_is_json_ready(self, tmp_path):
        rec = recorder(tmp_path, miss_threshold=1)
        rec.observe(0, FakeResult(misses=3))
        rec.record_failure(1, "boom")
        rec.flush()
        payload = json.loads(json.dumps(rec.payload(), sort_keys=True))
        assert payload["stats"]["captured"] == 2
        assert len(payload["records"]) == 2


class TestSerializeOnlyWhatIsWritten:
    """A trace is serialized once per artifact written: never for an
    oversized capture, never for a reservoir entry that is displaced."""

    @pytest.fixture
    def dumps(self, monkeypatch):
        import repro.obs.recorder as recorder_module

        calls = []

        def spy(events, meta):
            calls.append(len(events))
            return dumps_jsonl(events, meta)

        monkeypatch.setattr(recorder_module, "dumps_jsonl", spy)
        return calls

    @staticmethod
    def artifacts(rec):
        return [r for r in rec.records if r["artifact"] is not None]

    def test_reservoir_serializes_only_the_survivors(self, tmp_path, dumps):
        rec = recorder(tmp_path, bottom_k=2, miss_threshold=1)
        for index, bitrate in enumerate([5.0, 1.0, 3.0, 0.5, 4.0, 0.2]):
            rec.observe(index, FakeResult(
                bitrate=bitrate, misses=3 if index == 2 else 0,
                events=[StallStart(0.1 * index)] * (index + 1)))
        assert dumps == [3]  # the triggered capture, written at once
        rec.flush()
        assert [r["index"] for r in rec.records] == [2, 3, 5]
        assert len(dumps) == len(self.artifacts(rec)) == 3
        assert [r["events"] for r in rec.records] == [3, 4, 6]

    def test_oversized_captures_are_never_serialized(self, tmp_path, dumps):
        rec = recorder(tmp_path, bottom_k=1, miss_threshold=1, max_events=1)
        events = [StallStart(0.1), StallStart(0.2)]
        rec.observe(0, FakeResult(misses=5, events=events))
        rec.observe(1, FakeResult(bitrate=0.1, events=events))
        rec.flush()
        assert dumps == [] and self.artifacts(rec) == []
        assert rec.stats["oversized"] == 2
        assert [r["events"] for r in rec.records] == [2, 2]

    def test_artifact_bytes_are_the_canonical_trace(self, tmp_path, dumps):
        rec = recorder(tmp_path, bottom_k=1)
        events = [StallStart(0.5), StallStart(0.75)]
        rec.observe(4, FakeResult(bitrate=0.3, events=events))
        rec.flush()
        (record,) = rec.records
        path = os.path.join(str(tmp_path / "records"), record["artifact"])
        with open(path, "rb") as handle:
            blob = handle.read()
        assert blob == gzip_bytes(dumps_jsonl(
            events, TraceMeta(session_duration=10.0)).encode("utf-8"))
        assert rec.stats["bytes_written"] == len(blob)


class TestStatsHelpers:
    def test_empty_stats_covers_every_reason(self):
        stats = empty_stats()
        assert set(stats["by_reason"]) == set(REASON_ORDER)
        assert stats["captured"] == 0

    def test_merge_stats_accumulates(self):
        total = empty_stats()
        part = empty_stats()
        part["sessions"] = 5
        part["captured"] = 2
        part["bytes_written"] = 100
        part["by_reason"]["violation"] = 2
        merge_stats(total, part)
        merge_stats(total, part)
        assert total["sessions"] == 10 and total["captured"] == 4
        assert total["bytes_written"] == 200
        assert total["by_reason"]["violation"] == 4


class TestManifest:
    def test_round_trip(self, tmp_path):
        stats = empty_stats()
        records = [{"index": 3, "reason": "stall", "score": 2.0}]
        path = save_manifest(str(tmp_path), "deadbeefcafe", stats, records)
        payload = load_manifest(path)
        assert payload["fleet_key"] == "deadbeefcafe"
        assert payload["records"] == records
        assert payload["version"] == 1

    def test_find_manifests_from_root_and_campaign_dir(self, tmp_path):
        save_manifest(str(tmp_path), "aaaa11112222", empty_stats(), [])
        save_manifest(str(tmp_path), "bbbb33334444", empty_stats(), [])
        from_root = find_manifests(str(tmp_path))
        assert len(from_root) == 2
        campaign = key_dir(str(tmp_path), "aaaa11112222")
        assert find_manifests(campaign) == from_root[:1]

    def test_find_manifests_missing_dir_is_empty(self, tmp_path):
        assert find_manifests(str(tmp_path / "nope")) == []

    def test_load_manifest_rejects_non_manifest_json(self, tmp_path):
        bad = tmp_path / "anomalies.json"
        bad.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ValueError):
            load_manifest(str(bad))


class TestRankAnomalies:
    RECORDS = [
        {"index": 9, "reason": "head_sample", "score": 0.0},
        {"index": 2, "reason": "stall", "score": 3.0},
        {"index": 5, "reason": "violation", "score": 1.0},
        {"index": 1, "reason": "stall", "score": 7.0},
        {"index": 0, "reason": "failure", "score": 1.0},
        {"index": 4, "reason": "stall", "score": 7.0},
    ]

    def test_orders_by_reason_then_score_then_index(self):
        ranked = rank_anomalies(self.RECORDS)
        assert [r["index"] for r in ranked] == [5, 0, 1, 4, 2, 9]

    def test_top_bounds_the_list(self):
        assert len(rank_anomalies(self.RECORDS, top=2)) == 2
        assert rank_anomalies(self.RECORDS, top=2)[0]["index"] == 5

    def test_unknown_reason_sorts_last(self):
        records = [{"index": 0, "reason": "mystery", "score": 9.0},
                   {"index": 1, "reason": "head_sample", "score": 0.0}]
        assert rank_anomalies(records)[0]["index"] == 1


def triage_one(artifact_dir, record, out_dir=None):
    """``triage_captures`` on one record: its replay, why and report."""
    record = dict(record, index=record.get("index", 3))
    return triage_captures(str(artifact_dir), [record],
                           out_dir)[record["index"]]


def write_empty_capture(tmp_path, index=3):
    text = dumps_jsonl([], TraceMeta(session_duration=1.0))
    (tmp_path / artifact_name(index)).write_bytes(
        gzip_bytes(text.encode("utf-8")))


class TestTriageCaptures:
    def test_traceless_record_degrades(self, tmp_path):
        triaged = triage_one(tmp_path, {"artifact": None}, tmp_path)
        assert triaged["replay"] == {"replayed": False,
                                     "error": "no artifact (trace-less)"}
        assert triaged["why"] == {"attributed": False, "attributions": [],
                                  "summary": None,
                                  "error": "record has no trace artifact"}
        assert triaged["report"] is None

    def test_missing_artifact_degrades(self, tmp_path):
        triaged = triage_one(tmp_path, {"artifact": "gone/nope.jsonl.gz"})
        assert triaged["replay"]["replayed"] is False
        assert triaged["why"]["attributed"] is False
        assert triaged["why"]["attributions"] == []
        for error in (triaged["replay"]["error"], triaged["why"]["error"]):
            assert error.startswith("FileNotFoundError: ")
            assert "gone/nope.jsonl.gz" in error

    def test_corrupt_artifact_degrades(self, tmp_path):
        path = tmp_path / "bad.jsonl.gz"
        path.write_bytes(gzip_bytes(b"not a trace"))
        triaged = triage_one(tmp_path, {"artifact": "bad.jsonl.gz"})
        assert triaged["replay"]["replayed"] is False
        assert triaged["why"]["attributed"] is False
        assert triaged["replay"]["error"] == triaged["why"]["error"]
        assert "bad.jsonl.gz" in triaged["replay"]["error"]

    def test_replays_a_real_artifact(self, tmp_path):
        write_empty_capture(tmp_path)
        triaged = triage_one(tmp_path, {"artifact": artifact_name(3),
                                        "violations": None})
        replay = triaged["replay"]
        assert replay["replayed"] is True and replay["events"] == 0
        assert replay["matches_recorded"] is True
        assert replay["ok"] is True and replay["error"] is None
        why = triaged["why"]
        assert why["attributed"] is True and why["error"] is None
        assert why["attributions"] == [] and why["summary"]["total"] == 0
        assert triaged["report"] is None

    def test_mismatched_recorded_verdicts_flagged(self, tmp_path):
        write_empty_capture(tmp_path)
        triaged = triage_one(tmp_path, {"artifact": artifact_name(3),
                                        "violations": {"error": 7}})
        assert triaged["replay"]["replayed"] is True
        assert triaged["replay"]["matches_recorded"] is False

    def test_out_dir_gets_one_report_per_loadable_capture(self, tmp_path):
        write_empty_capture(tmp_path)
        records = [{"index": 3, "artifact": artifact_name(3)},
                   {"index": 1, "artifact": None},
                   {"index": 2, "artifact": "missing/file.jsonl.gz"}]
        out = tmp_path / "out"
        triaged = triage_captures(str(tmp_path), records, str(out))
        assert list(triaged) == [3, 1, 2]
        assert {i: t["report"] for i, t in triaged.items()} == {
            3: "anomaly-00000003.html", 1: None, 2: None}
        assert sorted(os.listdir(out)) == ["anomaly-00000003.html"]


class TestTriageTable:
    def test_renders_with_sparse_fields(self):
        records = [
            {"index": 3, "shard": 0, "reason": "violation", "score": 2.0,
             "qoe": 1.5, "misses": 4, "stalls": 1,
             "artifact": "abc/session-00000003.jsonl.gz"},
            {"index": 9, "shard": 1, "reason": "failure", "score": 1.0,
             "qoe": None, "misses": None, "stalls": None,
             "artifact": None},
        ]
        table = triage_table(records)
        assert "2 anomaly record(s)" in table
        assert "violation" in table and "failure" in table
        assert "session-00000003.jsonl.gz" in table

    def test_empty_records(self):
        assert "0 anomaly record(s)" in triage_table([])


def fleet_config(**overrides):
    defaults = dict(sessions=8, shard_size=3, video_duration=6.0, seed=7)
    defaults.update(overrides)
    return FleetConfig(**defaults)


def rec_config(tmp_path, name="records", **overrides):
    defaults = dict(artifact_dir=str(tmp_path / name))
    defaults.update(overrides)
    return RecorderConfig(**defaults)


class TestFleetRecorderIntegration:
    def test_recording_never_changes_the_population(self, tmp_path):
        config = fleet_config()
        plain = run_fleet(config)
        recorded = run_fleet(config, recorder=rec_config(tmp_path))
        assert recorded.registry_json() == plain.registry_json()
        assert plain.recorder is None and plain.anomalies == []
        assert recorded.recorder is not None
        assert recorded.recorder["sessions"] == 8
        assert recorded.record_dir == str(tmp_path / "records")

    def test_seeded_fault_is_captured_and_ranked_first(self, tmp_path):
        config = fleet_config(fault_session=5)
        result = run_fleet(config, recorder=rec_config(tmp_path))
        faulted = [r for r in result.anomalies if r["index"] == 5]
        assert faulted and faulted[0]["reason"] == "violation"
        assert faulted[0]["violations"]["error"] > 0
        ranked = result.triage(3)
        assert ranked[0]["index"] == 5
        triaged = triage_captures(result.record_dir, ranked[:1])[5]
        assert triaged["replay"]["replayed"]
        assert triaged["replay"]["matches_recorded"]
        assert triaged["why"]["summary"] == faulted[0]["attribution"]

    def test_fault_session_changes_fleet_key(self):
        assert fleet_key(fleet_config(fault_session=5)) != \
            fleet_key(fleet_config())

    def test_captures_identical_across_worker_counts(self, tmp_path):
        config = fleet_config(sessions=12, shard_size=3, fault_session=4)
        serial = run_fleet(config, recorder=rec_config(tmp_path, "serial"))
        pooled = run_fleet(config, jobs=3,
                           recorder=rec_config(tmp_path, "pooled"))
        assert [r["index"] for r in serial.anomalies] == \
            [r["index"] for r in pooled.anomalies]
        assert serial.anomalies == pooled.anomalies
        assert tree_digest(str(tmp_path / "serial")) == \
            tree_digest(str(tmp_path / "pooled"))
        assert serial.registry_json() == pooled.registry_json()

    def test_kill_and_resume_preserves_captures(self, tmp_path):
        config = fleet_config(sessions=12, shard_size=3, fault_session=1)
        straight = run_fleet(config,
                             recorder=rec_config(tmp_path, "straight"))
        ckpt = str(tmp_path / "ckpt")
        resumed_rec = rec_config(tmp_path, "resumed")
        partial = run_fleet(config, checkpoint_dir=ckpt,
                            checkpoint_every=1, stop_after=2,
                            recorder=resumed_rec)
        assert not partial.completed
        resumed = run_fleet(config, jobs=2, checkpoint_dir=ckpt,
                            checkpoint_every=1, resume=True,
                            recorder=resumed_rec)
        assert resumed.completed
        assert resumed.anomalies == straight.anomalies
        assert resumed.recorder == straight.recorder
        assert tree_digest(str(tmp_path / "resumed")) == \
            tree_digest(str(tmp_path / "straight"))
        assert resumed.registry_json() == straight.registry_json()

    def test_manifest_written_and_loadable(self, tmp_path):
        config = fleet_config(fault_session=2)
        result = run_fleet(config, recorder=rec_config(tmp_path))
        (path,) = find_manifests(str(tmp_path / "records"))
        payload = load_manifest(path)
        assert payload["fleet_key"] == fleet_key(config)
        assert payload["stats"] == result.recorder
        assert payload["records"] == result.anomalies

    @pytest.mark.parametrize("checkpoint_every,writes", [
        (None, 1), (2, 2), (1, 3)])
    def test_each_manifest_state_is_written_once(self, tmp_path,
                                                  monkeypatch,
                                                  checkpoint_every, writes):
        # Three shards: a manifest is written at each checkpoint, and the
        # final checkpoint's manifest is the campaign's last word.
        written = []

        def save(*args):
            path = save_manifest(*args)
            with open(path, "rb") as handle:
                written.append(handle.read())
            return path

        monkeypatch.setattr(fleet_module, "save_manifest", save)
        config = fleet_config(fault_session=2)
        checkpoints = {}
        if checkpoint_every is not None:
            checkpoints = dict(checkpoint_dir=str(tmp_path / "ckpt"),
                               checkpoint_every=checkpoint_every)
        result = run_fleet(config, recorder=rec_config(tmp_path),
                           **checkpoints)
        assert len(written) == writes
        (path,) = find_manifests(str(tmp_path / "records"))
        with open(path, "rb") as handle:
            assert handle.read() == written[-1]
        # The same bytes the streaming encoder wrote.
        streamed = io.StringIO()
        json.dump({"version": MANIFEST_VERSION,
                   "fleet_key": fleet_key(config),
                   "stats": result.recorder, "records": result.anomalies},
                  streamed, sort_keys=True)
        assert written[-1] == streamed.getvalue().encode("utf-8")

    def test_a_finished_campaign_resumed_writes_one_manifest(self, tmp_path,
                                                             monkeypatch):
        config = fleet_config(fault_session=2)
        checkpoints = dict(checkpoint_dir=str(tmp_path / "ckpt"),
                           checkpoint_every=1)
        first = run_fleet(config, recorder=rec_config(tmp_path),
                          **checkpoints)
        calls = []
        monkeypatch.setattr(fleet_module, "save_manifest",
                            lambda *args: calls.append(args))
        again = run_fleet(config, recorder=rec_config(tmp_path),
                          resume=True, **checkpoints)
        assert again.resumed_shards == again.shards_done
        assert len(calls) == 1
        assert calls[0][2] == first.recorder
        assert calls[0][3] == first.anomalies

    def test_capture_progress_lines(self, tmp_path):
        lines = []
        config = fleet_config(fault_session=0)
        result = run_fleet(config, progress=lines.append,
                           recorder=rec_config(tmp_path))
        captures = [line for line in lines if "] captured session " in line]
        assert len(captures) == len(result.anomalies)
        assert {int(line.split("captured session ")[1].split()[0])
                for line in captures} == \
            {r["index"] for r in result.anomalies}
        assert any("captured session 0 (violation, score " in line
                   for line in captures)
        faulted = next(r for r in result.anomalies if r["index"] == 0)
        assert faulted["reason"] == "violation" and faulted["artifact"]

    def test_triage_and_export_report(self, tmp_path):
        config = fleet_config(fault_session=3)
        result = run_fleet(config, recorder=rec_config(tmp_path))
        out = tmp_path / "out" / "fleet.html"
        out.parent.mkdir()
        result.export_report(str(out), triage_top=2)
        html = out.read_text()
        assert "anomal" in html.lower()
        mini = tmp_path / "out" / "anomaly-00000003.html"
        assert mini.is_file()
        assert "anomaly-00000003.html" in html

    def test_triage_captures_skips_traceless(self, tmp_path):
        records = [{"index": 1, "artifact": None},
                   {"index": 2, "artifact": "missing/file.jsonl.gz"}]
        out = tmp_path / "out"
        triaged = triage_captures(str(tmp_path), records, str(out))
        assert {i: t["report"] for i, t in triaged.items()} == \
            {1: None, 2: None}
        assert not out.exists()

    def test_to_dict_carries_recorder_fields(self, tmp_path):
        result = run_fleet(fleet_config(fault_session=1),
                           recorder=rec_config(tmp_path))
        payload = json.loads(json.dumps(result.to_dict(), sort_keys=True))
        assert payload["recorder"]["captured"] >= 1
        assert any(r["index"] == 1 for r in payload["anomalies"])
        assert payload["error_total"] == 0


class TestOnePassPerCapture:
    """Triage loads, judges and attributes each capture exactly once."""

    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("one-pass")
        result = run_fleet(
            FleetConfig(sessions=32, shard_size=16, video_duration=20.0,
                        seed=2016, fault_session=5),
            recorder=RecorderConfig(artifact_dir=str(root / "records")))
        assert len([r for r in result.anomalies if r["artifact"]]) == 3
        return root, result

    @staticmethod
    def spy(monkeypatch):
        import repro.obs.check as check_module
        import repro.obs.recorder as recorder_module

        calls = {"load_jsonl": 0, "_judge": 0}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)
        counted(recorder_module, "load_jsonl")
        counted(check_module, "_judge")
        return calls

    def test_triage_json_html(self, campaign, monkeypatch, capsys):
        from repro.cli import main

        root, _ = campaign
        calls = self.spy(monkeypatch)
        assert main(["triage", "--record-dir", str(root / "records"),
                     "--top", "5", "--json", "--html",
                     str(root / "triage" / "triage.html")]) == 0
        assert calls == {"load_jsonl": 3, "_judge": 3}
        records = json.loads(capsys.readouterr().out)["records"]
        assert len(records) == 3
        assert all(r["replay"]["replayed"] and r["why"]["attributed"]
                   for r in records)

    def test_export_report(self, campaign, monkeypatch):
        root, result = campaign
        calls = self.spy(monkeypatch)
        result.export_report(str(root / "report" / "fleet.html"),
                             triage_top=3)
        rendered = [name for name in os.listdir(root / "report")
                    if name.startswith("anomaly-")]
        assert len(rendered) == 3
        assert calls == {"load_jsonl": 3, "_judge": 3}

    def test_why_and_replay_match_live_and_offline(self, campaign):
        """The standing identity: the live summary a record carries, the
        triage verdicts and a fresh offline pass over the capture agree."""
        from repro.obs.check import check_trace
        from repro.obs.why import (attributions_from_trace,
                                   summarize_attributions)

        root, result = campaign
        captured = [r for r in result.anomalies if r["artifact"]]
        triaged = triage_captures(result.record_dir, captured)
        for record in captured:
            trace = load_jsonl(os.path.join(result.record_dir,
                                            record["artifact"]))
            offline = attributions_from_trace(trace)
            why = triaged[record["index"]]["why"]
            assert why["attributions"] == [a.to_dict() for a in offline]
            assert why["summary"] == summarize_attributions(offline)
            # The recorder keeps a live summary only when there was
            # something to explain.
            assert record["attribution"] == (why["summary"] if offline
                                             else None)
            replay = triaged[record["index"]]["replay"]
            assert replay["violations"] == \
                check_trace(trace).by_severity()
            assert replay["matches_recorded"] is True

    def test_mini_reports_match_the_session_report(self, campaign,
                                                  tmp_path):
        from repro.obs.report import session_report_html

        _, result = campaign
        captured = [r for r in result.anomalies if r["artifact"]]
        triaged = triage_captures(result.record_dir, captured,
                                  str(tmp_path))
        for record in captured:
            name = triaged[record["index"]]["report"]
            assert name == f"anomaly-{record['index']:08d}.html"
            trace = load_jsonl(os.path.join(result.record_dir,
                                            record["artifact"]))
            assert (tmp_path / name).read_text(encoding="utf-8") == \
                session_report_html(trace)


def mistype_capture(path, kind="ChunkDownloaded", field="level", value="x"):
    """Rewrite one capture with ``field`` of its first ``kind`` record
    set to ``value`` (the string ``"x"`` by default), as a hand edit
    would."""
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    for number, line in enumerate(lines):
        record = json.loads(line)
        if record.get("type") == kind:
            record[field] = value
            lines[number] = json.dumps(record, sort_keys=True)
            break
    else:
        raise AssertionError(f"no {kind} record in {path}")
    with open(path, "wb") as handle:
        handle.write(gzip_bytes(("\n".join(lines) + "\n").encode("utf-8")))


class TestDamagedCapture:
    """A capture with a mistyped field degrades every triage view."""

    #: One (kind, field, wrong value) per event kind a fleet capture
    #: holds, so every layer's records pass through the capture check.
    EVERY_CAPTURED_KIND = [
        ("ChunkRequested", "buffer_level", "x"),
        ("HttpRequestSent", "url", 7),
        ("DeadlineDisarmed", "time", "x"),
        ("MpDashSkipped", "index", 1.5),
        ("TransferStarted", "size", "x"),
        ("SchedulerActivated", "window", None),
        ("PathStateRequested", "enabled", "x"),
        ("PacketSent", "num_bytes", "x"),
        ("TransferCompleted", "duration", [1.0]),
        ("HttpResponseReceived", "status", "200"),
        ("ChunkDownloaded", "bytes_per_path", {"wifi": "x"}),
        ("SubflowStateChange", "path", 0),
        ("QualitySwitched", "to_level", "x"),
        ("PlaybackStarted", "time", None),
        ("PlaybackEnded", "time", "x"),
        ("SessionClosed", "time", True),
    ]

    @staticmethod
    def _campaign(tmp_path):
        result = run_fleet(fleet_config(fault_session=2),
                           recorder=rec_config(tmp_path))
        records = {r["index"]: r for r in result.anomalies if r["artifact"]}
        assert 2 in records and len(records) > 1
        return result.record_dir, records

    @pytest.fixture
    def campaign(self, tmp_path):
        root, records = self._campaign(tmp_path)
        mistype_capture(os.path.join(root, records[2]["artifact"]))
        return root, records

    def test_load_capture_names_artifact_record_and_field(self, campaign):
        root, records = campaign
        with pytest.raises(ValueError) as error:
            load_capture(root, records[2]["artifact"])
        message = str(error.value)
        assert records[2]["artifact"] in message
        assert "(ChunkDownloaded) field level: expected int" in message
        other = next(i for i in records if i != 2)
        assert load_capture(root, records[other]["artifact"]).events

    def test_replay_and_why_report_the_damage(self, campaign, tmp_path):
        root, records = campaign
        triaged = triage_captures(root, list(records.values()),
                                  str(tmp_path / "out"))
        assert triaged[2]["replay"]["replayed"] is False
        assert triaged[2]["why"]["attributed"] is False
        for error in (triaged[2]["replay"]["error"],
                      triaged[2]["why"]["error"]):
            assert error.startswith("ValueError: ")
            assert records[2]["artifact"] in error
            assert "field level" in error
        assert all(t["replay"]["replayed"] and t["why"]["attributed"]
                   for i, t in triaged.items() if i != 2)

    def test_damaged_record_gets_no_mini_report(self, campaign, tmp_path):
        root, records = campaign
        out = tmp_path / "out"
        triaged = triage_captures(root, list(records.values()), str(out))
        assert triaged[2]["report"] is None
        assert {i for i, t in triaged.items() if t["report"]} == \
            set(records) - {2}
        assert not (out / "anomaly-00000002.html").exists()

    @pytest.mark.parametrize("kind,field,value", EVERY_CAPTURED_KIND,
                             ids=[kind for kind, _, _ in EVERY_CAPTURED_KIND])
    def test_every_captured_kind_is_checked(self, tmp_path, kind, field,
                                            value):
        root, records = self._campaign(tmp_path)
        mistype_capture(os.path.join(root, records[2]["artifact"]),
                        kind=kind, field=field, value=value)
        with pytest.raises(ValueError) as error:
            load_capture(root, records[2]["artifact"])
        assert f"({kind}) field {field}: expected" in str(error.value)
        triaged = triage_captures(root, [records[2]])[2]
        assert triaged["replay"]["replayed"] is False
        assert triaged["why"]["attributed"] is False
        for message in (triaged["replay"]["error"],
                        triaged["why"]["error"]):
            assert records[2]["artifact"] in message
            assert f"({kind}) field {field}" in message
