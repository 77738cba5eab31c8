"""Tests for the fleet engine: workload, sharding, checkpoints, reports."""

import hashlib
import json
import os
import signal
import xml.etree.ElementTree as ET

import pytest

from repro.experiments import run_session
from repro.experiments.fleet import (FleetConfig, checkpoint_path,
                                     fleet_key, load_checkpoint, run_fleet,
                                     session_config)
from repro.experiments.tables import fleet_table
from repro.obs import (EventBus, FleetCheckpointSaved, FleetCompleted,
                       FleetShardCompleted, FleetStarted, fleet_report_html)
from repro.workloads import (ARRIVAL_DIURNAL, DIURNAL_CURVE,
                             SessionArrivals, field_study_locations)


def small_fleet(**overrides):
    """A fleet tiny enough for unit tests but spanning several shards."""
    defaults = dict(sessions=8, shard_size=3, video_duration=6.0, seed=7)
    defaults.update(overrides)
    return FleetConfig(**defaults)


# Module-level runners so the process pool can pickle them by reference.
def fail_wifi_only_runner(config):
    if config.wifi_only:
        raise ValueError("no cellular plan")
    return run_session(config)


def kill_once_shard_runner(config):
    """SIGKILL the first worker that runs a session, succeed afterwards."""
    marker = os.environ["REPRO_FLEET_KILL_MARKER"]
    try:
        with open(marker, "x"):
            pass
    except FileExistsError:
        return run_session(config)
    os.kill(os.getpid(), signal.SIGKILL)


def always_kill_shard_runner(config):
    os.kill(os.getpid(), signal.SIGKILL)


class TestSessionArrivals:
    def test_draw_is_deterministic_and_order_independent(self):
        workload = SessionArrivals(sessions=50, seed=3)
        again = SessionArrivals(sessions=50, seed=3)
        assert workload.draw(17) == again.draw(17)
        # Drawing 0..16 first must not change draw(17).
        for index in range(17):
            again.draw(index)
        assert workload.draw(17) == again.draw(17)
        assert list(workload.draws(5, 8)) == [workload.draw(i)
                                              for i in (5, 6, 7)]

    def test_draw_fields_are_in_range(self):
        names = {loc.name for loc in field_study_locations()}
        workload = SessionArrivals(sessions=100, seed=1, horizon=3600.0)
        for draw in workload.draws():
            assert 0.0 <= draw.arrival < 3600.0
            assert draw.location in names
            assert draw.scenario in (1, 2, 3)
            assert draw.device in ("galaxy_note", "galaxy_s3")
            assert draw.trace_seed >= 1
            assert 0.0 <= draw.arrival_hour < 24.0

    def test_seeds_decorrelate(self):
        one = SessionArrivals(sessions=10, seed=0)
        other = SessionArrivals(sessions=10, seed=1)
        assert any(one.draw(i) != other.draw(i) for i in range(10))

    def test_wifi_only_fraction_is_respected(self):
        workload = SessionArrivals(sessions=400, seed=2,
                                   wifi_only_fraction=0.5)
        share = sum(d.wifi_only for d in workload.draws()) / 400
        assert 0.35 < share < 0.65

    def test_device_mix_is_respected(self):
        workload = SessionArrivals(sessions=400, seed=2,
                                   device_mix={"galaxy_note": 1.0})
        assert all(d.device == "galaxy_note" for d in workload.draws())

    def test_diurnal_prefers_prime_time(self):
        workload = SessionArrivals(sessions=2000, seed=4,
                                   arrival=ARRIVAL_DIURNAL)
        peak = max(range(24), key=lambda h: DIURNAL_CURVE[h])
        trough = min(range(24), key=lambda h: DIURNAL_CURVE[h])
        hours = [int(d.arrival_hour) for d in workload.draws()]
        assert hours.count(peak) > hours.count(trough)

    def test_diurnal_with_short_horizon(self):
        workload = SessionArrivals(sessions=50, seed=5,
                                   arrival=ARRIVAL_DIURNAL, horizon=5400.0)
        for draw in workload.draws():
            assert 0.0 <= draw.arrival < 5400.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SessionArrivals(sessions=-1)
        with pytest.raises(ValueError):
            SessionArrivals(sessions=1, arrival="weekly")
        with pytest.raises(ValueError):
            SessionArrivals(sessions=1, horizon=0.0)
        with pytest.raises(ValueError):
            SessionArrivals(sessions=1, wifi_only_fraction=1.5)
        with pytest.raises(ValueError):
            SessionArrivals(sessions=1, device_mix={})
        with pytest.raises(IndexError):
            SessionArrivals(sessions=5).draw(5)


class TestFleetConfig:
    def test_sharding_arithmetic(self):
        config = small_fleet(sessions=8, shard_size=3)
        assert config.total_shards == 3
        assert list(config.shard_range(0)) == [0, 1, 2]
        assert list(config.shard_range(2)) == [6, 7]
        with pytest.raises(IndexError):
            config.shard_range(3)

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(sessions=-1)
        with pytest.raises(ValueError):
            FleetConfig(arrival="weekly")
        with pytest.raises(ValueError):
            FleetConfig(horizon=0.0)
        with pytest.raises(ValueError):
            FleetConfig(scheme="turbo")
        with pytest.raises(ValueError):
            FleetConfig(video_duration=0.0)
        with pytest.raises(ValueError):
            FleetConfig(shard_size=0)
        with pytest.raises(ValueError):
            FleetConfig(device_mix={"walkie_talkie": 1.0})

    def test_key_tracks_every_field(self):
        base = fleet_key(small_fleet())
        assert fleet_key(small_fleet()) == base
        assert fleet_key(small_fleet(seed=8)) != base
        assert fleet_key(small_fleet(arrival="diurnal")) != base

    def test_session_config_reflects_the_draw(self):
        config = small_fleet(wifi_only_fraction=1.0)
        draw = config.workload().draw(0)
        session = session_config(config, draw)
        assert session.wifi_only and session.lte_trace is None
        assert session.device == draw.device
        multi = small_fleet(wifi_only_fraction=0.0)
        session = session_config(multi, multi.workload().draw(0))
        assert not session.wifi_only and session.lte_trace is not None


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        one = run_fleet(small_fleet())
        two = run_fleet(small_fleet())
        assert one.registry_json() == two.registry_json()
        assert one.sessions == 8 and one.completed

    def test_pool_matches_serial_byte_for_byte(self):
        serial = run_fleet(small_fleet(), jobs=1)
        pooled = run_fleet(small_fleet(), jobs=3)
        assert pooled.registry_json() == serial.registry_json()
        assert pooled.sessions == serial.sessions
        assert pooled.jobs == 3

    def test_different_seeds_differ(self):
        assert run_fleet(small_fleet()).registry_json() != \
            run_fleet(small_fleet(seed=8)).registry_json()

    def test_registry_bytes_are_pinned(self):
        # Every other determinism check compares two runs of the same
        # code; this one fixes the output itself, so a change that moves
        # every session the same way (trace synthesis, energy, assets)
        # cannot pass unnoticed.
        config = FleetConfig(sessions=48, seed=2016, video_duration=20.0,
                             shard_size=16)
        dropout_sites = {loc.name for loc in field_study_locations()
                         if loc.dropouts}
        draws = list(config.workload().draws())
        assert any(draw.wifi_only for draw in draws)
        assert any(draw.location in dropout_sites for draw in draws)
        registry = run_fleet(config).registry_json()
        assert hashlib.sha256(registry.encode()).hexdigest() == (
            "8c3bfe79e4c093a0474a1896b3da3cb0da33bb2cbbb55e001663b5773bc1d055")

    def test_shard_size_does_not_change_the_population_counts(self):
        # Float-merge order differs across shardings, so only the
        # integer-valued population counters are sharding-invariant.
        coarse = run_fleet(small_fleet(shard_size=8))
        fine = run_fleet(small_fleet(shard_size=2))
        assert coarse.population()["deadline_misses_total"] == \
            fine.population()["deadline_misses_total"]
        assert coarse.sessions == fine.sessions


class TestCheckpointResume:
    def test_kill_and_resume_is_byte_identical(self, tmp_path):
        config = small_fleet()
        ckpt = str(tmp_path / "ckpt")
        partial = run_fleet(config, checkpoint_dir=ckpt,
                            checkpoint_every=1, stop_after=2)
        assert partial.shards_done == 2 and not partial.completed
        resumed = run_fleet(config, jobs=2, checkpoint_dir=ckpt,
                            checkpoint_every=1, resume=True)
        assert resumed.completed and resumed.resumed_shards == 2
        baseline = run_fleet(config)
        assert resumed.registry_json() == baseline.registry_json()
        assert resumed.sessions == baseline.sessions

    def test_checkpoint_file_is_atomic_json(self, tmp_path):
        config = small_fleet()
        ckpt = str(tmp_path / "ckpt")
        run_fleet(config, checkpoint_dir=ckpt, checkpoint_every=1)
        path = checkpoint_path(ckpt)
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["fleet_key"] == fleet_key(config)
        assert payload["shards_done"] == config.total_shards
        assert not [name for name in os.listdir(ckpt) if ".tmp." in name]

    def test_foreign_checkpoint_is_a_hard_error(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        run_fleet(small_fleet(), checkpoint_dir=ckpt, stop_after=1)
        with pytest.raises(ValueError):
            run_fleet(small_fleet(seed=8), checkpoint_dir=ckpt,
                      resume=True)

    def test_missing_or_corrupt_checkpoint_starts_fresh(self, tmp_path):
        assert load_checkpoint(str(tmp_path / "nope.json"), "k") is None
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert load_checkpoint(str(bad), "k") is None
        result = run_fleet(small_fleet(),
                           checkpoint_dir=str(tmp_path / "empty"),
                           resume=True)
        assert result.completed and result.resumed_shards == 0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            run_fleet(small_fleet(), jobs=0)
        with pytest.raises(ValueError):
            run_fleet(small_fleet(), checkpoint_every=0)
        with pytest.raises(ValueError):
            run_fleet(small_fleet(), stop_after=0)
        with pytest.raises(ValueError):
            run_fleet(small_fleet(), retries=-1)
        with pytest.raises(ValueError):
            run_fleet(small_fleet(), resume=True)  # no checkpoint_dir


class TestFaultIsolation:
    def test_session_failures_do_not_void_the_shard(self):
        config = small_fleet(wifi_only_fraction=0.5)
        result = run_fleet(config, runner=fail_wifi_only_runner)
        assert result.completed
        assert 0 < result.failures < 8
        assert result.sessions + result.failures == 8
        assert any("no cellular plan" in sample
                   for sample in result.errors)
        failure_counter = result.registry.get(
            "repro_fleet_session_failures_total")
        assert failure_counter is not None
        assert failure_counter.value == result.failures

    def test_error_samples_are_bounded(self):
        config = small_fleet(sessions=60, shard_size=10,
                             wifi_only_fraction=1.0)
        result = run_fleet(config, runner=fail_wifi_only_runner)
        assert result.failures == 60 and result.sessions == 0
        assert len(result.errors) <= 20

    def test_error_total_counts_beyond_the_sample(self):
        # Each shard ships at most 5 samples and the parent keeps at
        # most 20, but the true failure count must never be silent.
        config = small_fleet(sessions=60, shard_size=10,
                             wifi_only_fraction=1.0)
        result = run_fleet(config, runner=fail_wifi_only_runner)
        assert result.error_total == 60
        assert result.errors_dropped == 60 - len(result.errors)
        assert result.errors_dropped > 0
        table = fleet_table(result)
        assert f"(+{result.errors_dropped} more)" in table
        payload = result.to_dict()
        assert payload["error_total"] == 60
        assert payload["errors_dropped"] == result.errors_dropped

    def test_error_total_equals_failures_when_nothing_dropped(self):
        config = small_fleet(wifi_only_fraction=0.5)
        result = run_fleet(config, runner=fail_wifi_only_runner)
        assert result.error_total == result.failures
        assert result.errors_dropped == 0
        assert "error samples" not in fleet_table(result)

    def test_error_total_survives_checkpoint_resume(self, tmp_path):
        config = small_fleet(sessions=60, shard_size=10,
                             wifi_only_fraction=1.0)
        ckpt = str(tmp_path / "ckpt")
        run_fleet(config, runner=fail_wifi_only_runner,
                  checkpoint_dir=ckpt, checkpoint_every=1, stop_after=3)
        resumed = run_fleet(config, runner=fail_wifi_only_runner,
                            checkpoint_dir=ckpt, checkpoint_every=1,
                            resume=True)
        straight = run_fleet(config, runner=fail_wifi_only_runner)
        assert resumed.error_total == straight.error_total == 60

    def test_all_failed_fleet_has_wellformed_outputs(self):
        # Zero successful sessions: stats pipeline must degrade to
        # empty-population output, not divide-by-zero or raise.
        config = small_fleet(wifi_only_fraction=1.0)
        result = run_fleet(config, runner=fail_wifi_only_runner)
        assert result.completed
        assert result.sessions == 0 and result.failures == 8
        population = result.population()
        assert population["sessions"] == 0
        assert population["bitrate_p50_mbps"] is None
        assert population["stalled_session_fraction"] is None
        assert population["sim_seconds"] == 0.0
        table = fleet_table(result)
        assert "sessions simulated" in table and "fleet: complete" in table
        html = fleet_report_html(result)
        ET.fromstring(html)
        assert "no sessions folded yet" in html
        json.dumps(result.to_dict(), sort_keys=True)


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"),
                    reason="needs SIGKILL (POSIX)")
class TestBrokenPoolRecovery:
    def test_worker_death_retries_and_stays_deterministic(self, tmp_path,
                                                          monkeypatch):
        marker = tmp_path / "killed"
        monkeypatch.setenv("REPRO_FLEET_KILL_MARKER", str(marker))
        config = small_fleet()
        survived = run_fleet(config, jobs=2, retries=2,
                             runner=kill_once_shard_runner)
        assert marker.exists()
        assert survived.completed
        assert survived.registry_json() == \
            run_fleet(config).registry_json()

    def test_exhausted_retries_raise(self):
        with pytest.raises(RuntimeError):
            run_fleet(small_fleet(), jobs=2, retries=0,
                      runner=always_kill_shard_runner)


class TestFleetEvents:
    def test_lifecycle_events_published(self, tmp_path):
        bus = EventBus()
        seen = []
        bus.subscribe_all(seen.append)
        config = small_fleet()
        run_fleet(config, checkpoint_dir=str(tmp_path / "ckpt"),
                  checkpoint_every=1, bus=bus)
        kinds = [type(e).__name__ for e in seen]
        assert kinds[0] == "FleetStarted" and kinds[-1] == "FleetCompleted"
        assert kinds.count("FleetShardCompleted") == config.total_shards
        assert kinds.count("FleetCheckpointSaved") == config.total_shards
        started = next(e for e in seen if isinstance(e, FleetStarted))
        assert started.sessions == 8 and started.shards == 3
        completed = seen[-1]
        assert isinstance(completed, FleetCompleted)
        assert completed.sessions == 8 and completed.failures == 0
        shard = next(e for e in seen
                     if isinstance(e, FleetShardCompleted))
        assert shard.shard == 0 and shard.sessions == 3
        saved = next(e for e in seen
                     if isinstance(e, FleetCheckpointSaved))
        assert saved.path.endswith("fleet-checkpoint.json")


class TestFleetOutputs:
    def test_population_summary(self):
        result = run_fleet(small_fleet(wifi_only_fraction=0.0))
        population = result.population()
        assert population["sessions"] == 8
        assert population["completed"] is True
        assert population["bitrate_p50_mbps"] > 0
        assert population["cellular_fraction_p50"] is not None
        assert 0.0 <= population["stalled_session_fraction"] <= 1.0

    def test_empty_population_has_no_quantiles(self):
        result = run_fleet(small_fleet(sessions=0))
        population = result.population()
        assert population["bitrate_p50_mbps"] is None
        assert population["stalled_session_fraction"] is None

    def test_to_dict_is_json_ready(self):
        result = run_fleet(small_fleet())
        payload = json.loads(json.dumps(result.to_dict(),
                                        sort_keys=True))
        assert payload["fleet_key"] == fleet_key(result.config)
        assert payload["registry"] == result.registry.to_dict()

    def test_fleet_table_renders(self):
        result = run_fleet(small_fleet())
        table = fleet_table(result)
        assert "sessions simulated" in table
        assert "fleet: complete" in table
        partial = run_fleet(small_fleet(), stop_after=1)
        assert "fleet: partial" in fleet_table(partial)

    def test_report_is_wellformed_html(self, tmp_path):
        result = run_fleet(small_fleet(wifi_only_fraction=0.25,
                                       seed=11))
        html = fleet_report_html(result)
        ET.fromstring(html)  # raises on malformed markup
        assert "MP-DASH fleet report" in html
        out = tmp_path / "fleet.html"
        result.export_report(str(out))
        assert out.stat().st_size > 1000

    def test_report_marks_partial_campaigns(self):
        partial = run_fleet(small_fleet(), stop_after=1)
        html = fleet_report_html(partial)
        ET.fromstring(html)
        assert "partial campaign" in html

    def test_report_renders_empty_campaign(self):
        # Every panel must fall back gracefully before any shard lands.
        result = run_fleet(small_fleet(sessions=0))
        html = fleet_report_html(result)
        ET.fromstring(html)
        assert "no sessions folded yet" in html
        assert "no multipath sessions folded yet" in html
        assert "no deadline observations" in html
        assert "no arrival observations yet" in html

    def test_report_renders_failures_panel(self):
        result = run_fleet(small_fleet(wifi_only_fraction=0.5),
                           runner=fail_wifi_only_runner)
        html = fleet_report_html(result)
        ET.fromstring(html)
        assert "no cellular plan" in html
