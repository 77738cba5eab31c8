"""Tests for the parallel, cached, fault-tolerant sweep engine."""

import json
import os
import re
import signal
import time

import pytest

from repro.experiments import (FileDownloadConfig, SessionConfig, run_schemes,
                               run_session)
from repro.experiments.fleet import FleetConfig
from repro.experiments.sweep import (FAILED_ERROR, FAILED_TIMEOUT,
                                     ResultCache, SessionSummary, config_key,
                                     default_runner, expand_grid, run_sweep,
                                     summarize_session)
from repro.experiments.tables import sweep_table
from repro.net.trace import BandwidthTrace
from repro.net.units import mbps


def short_config(**overrides):
    defaults = dict(video_duration=20.0, wifi_mbps=8.0, lte_mbps=8.0)
    defaults.update(overrides)
    return SessionConfig(**defaults)


# Module-level runners so the process pool can pickle them by reference.
def crash_runner(config):
    raise RuntimeError("injected crash")


def sleepy_runner(config):
    time.sleep(10.0)
    return default_runner(config)


def crash_on_slow_wifi(config):
    if config.wifi_mbps < 5.0:
        raise ValueError("boom")
    return default_runner(config)


class TestConfigKey:
    def test_equal_configs_equal_keys(self):
        assert config_key(short_config()) == config_key(short_config())

    def test_any_field_changes_the_key(self):
        base = config_key(short_config())
        assert config_key(short_config(alpha=0.9)) != base
        assert config_key(short_config(abr="gpac")) != base
        assert config_key(short_config(mpdash=True)) != base

    def test_kind_is_part_of_the_key(self):
        session = config_key(short_config())
        download = config_key(FileDownloadConfig(size=1e6, deadline=10.0))
        assert session != download

    def test_trace_configs_are_hashable(self):
        trace = BandwidthTrace.from_samples([mbps(4.0), mbps(6.0)], 0.5)
        one = config_key(short_config(wifi_mbps=None, wifi_trace=trace))
        same = BandwidthTrace.from_samples([mbps(4.0), mbps(6.0)], 0.5)
        other = BandwidthTrace.from_samples([mbps(4.0), mbps(7.0)], 0.5)
        assert one == config_key(short_config(wifi_mbps=None,
                                              wifi_trace=same))
        assert one != config_key(short_config(wifi_mbps=None,
                                              wifi_trace=other))

    def test_keys_are_pinned(self):
        """Keys name cache files, fleet checkpoints, ledger series and
        capture directories, so they must not drift when a config loses
        a field (the values were recorded before ``kernel`` and
        ``mptcp_scheduler`` were retired)."""
        from repro.experiments.fleet import FleetConfig, fleet_key

        assert config_key(SessionConfig()) == "4877416a5cf13ce8cf115560"
        assert config_key(FileDownloadConfig(size=5e6, deadline=10.0)) == \
            "6f0554bcfef641d68635758e"
        # The perfbench fleet shape, recorder off and with a fault.
        fleet = FleetConfig(sessions=64, shard_size=16,
                            video_duration=20.0, seed=2016)
        assert fleet_key(fleet) == "e36906bae8dfa26ada605b08"
        fleet.fault_session = 5
        assert fleet_key(fleet) == "726e2403573c27d0c71f3736"


class TestExpandGrid:
    def test_cartesian_product(self):
        configs = expand_grid(short_config(),
                              {"wifi_mbps": [2.0, 4.0],
                               "alpha": [0.8, 1.0]})
        assert len(configs) == 4
        assert [(c.wifi_mbps, c.alpha) for c in configs] == [
            (2.0, 0.8), (2.0, 1.0), (4.0, 0.8), (4.0, 1.0)]

    def test_scheme_axis_routes_through_with_scheme(self):
        configs = expand_grid(short_config(),
                              {"scheme": ["baseline", "rate"]})
        assert [c.mpdash for c in configs] == [False, True]
        assert configs[1].deadline_mode == "rate"

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            expand_grid(short_config(), {"wombat": [1]})

    def test_empty_grid_is_the_base(self):
        base = short_config()
        assert expand_grid(base, {}) == [base]


class TestSummaries:
    def test_session_summary_round_trip(self):
        result = run_session(short_config())
        summary = summarize_session(result)
        payload = json.loads(json.dumps(summary.to_dict()))
        again = SessionSummary.from_dict(payload)
        assert isinstance(again, SessionSummary)
        assert again == summary
        assert again.metrics.cellular_bytes == result.metrics.cellular_bytes


class TestSerialSweep:
    def test_matches_direct_runs(self):
        configs = [short_config(), short_config(mpdash=True)]
        sweep = run_sweep(configs)
        assert sweep.ok and len(sweep) == 2
        for config, run in zip(configs, sweep.runs):
            direct = run_session(config)
            assert run.summary.metrics == direct.metrics
            assert run.summary.finished == direct.finished

    def test_download_configs_have_no_default_runner(self):
        sweep = run_sweep([FileDownloadConfig(size=2e6, deadline=8.0,
                                              wifi_mbps=4.0, lte_mbps=4.0)])
        failure = sweep.runs[0].failure
        assert failure is not None and failure.kind == FAILED_ERROR
        assert "no default runner for FileDownloadConfig" in failure.error

    @pytest.mark.parametrize("config", [
        pytest.param(FileDownloadConfig(size=2e6, deadline=8.0),
                     id="download"),
        pytest.param(FleetConfig(sessions=2), id="fleet"),
        pytest.param({"video": "big_buck_bunny"}, id="mapping"),
    ])
    def test_default_runner_refuses_non_session_configs(self, config):
        with pytest.raises(TypeError) as excinfo:
            default_runner(config)
        assert str(excinfo.value) == (
            f"no default runner for {type(config).__name__}; pass runner=")

    def test_progress_line_per_run(self):
        lines = []
        sweep = run_sweep([short_config()], progress=lines.append)
        key = sweep.runs[0].config_key[:12]
        assert len(lines) == 1
        assert re.fullmatch(rf"\[ *\d+\.\d\ds\] run 1/1 {key} "
                            r"done in \d+\.\d\ds", lines[0])
        assert sweep.ok and not sweep.failures

    def test_input_validation(self):
        with pytest.raises(ValueError):
            run_sweep([], jobs=0)
        with pytest.raises(ValueError):
            run_sweep([], retries=-1)
        with pytest.raises(ValueError):
            run_sweep([], timeout=0.0)


class TestParallelSweep:
    def test_pool_matches_serial(self):
        configs = expand_grid(short_config(),
                              {"scheme": ["baseline", "rate"],
                               "wifi_mbps": [6.0, 8.0]})
        serial = run_sweep(configs, jobs=1)
        pooled = run_sweep(configs, jobs=2)
        assert pooled.ok and pooled.jobs == 2
        for a, b in zip(serial.runs, pooled.runs):
            assert a.config_key == b.config_key
            assert a.summary.metrics == b.summary.metrics


class TestCaching:
    def test_rerun_serves_from_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        configs = [short_config(), short_config(mpdash=True)]
        first = run_sweep(configs, cache_dir=cache_dir)
        assert first.cache_hits == 0
        second = run_sweep(configs, cache_dir=cache_dir)
        assert second.cache_hits == 2
        assert all(run.cached for run in second.runs)
        for a, b in zip(first.runs, second.runs):
            assert a.summary == b.summary

    def test_cache_is_shared_across_job_counts(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        configs = [short_config(wifi_mbps=w) for w in (6.0, 7.0, 8.0)]
        run_sweep(configs, jobs=2, cache_dir=cache_dir)
        again = run_sweep(configs, jobs=1, cache_dir=cache_dir)
        assert again.cache_hits == 3

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        config = short_config()
        run_sweep([config], cache_dir=cache_dir)
        cache = ResultCache(cache_dir)
        with open(cache.path(config_key(config)), "w") as handle:
            handle.write("{not json")
        sweep = run_sweep([config], cache_dir=cache_dir)
        assert sweep.ok
        assert sweep.cache_hits == 0
        # The rerun healed the artifact.
        assert cache.load(config_key(config)) is not None

    @pytest.mark.parametrize("name", [
        "config_key", "finished", "session_duration", "metrics",
        "scheduler_stats", "metrics.unknown"])
    def test_artifact_with_a_bad_field_is_a_miss(self, tmp_path, name):
        """An artifact lacking a field the summary needs, or whose metrics
        carry one SessionMetrics does not have, is re-simulated (and the
        artifact healed), never an error."""
        cache_dir = str(tmp_path / "cache")
        config = short_config()
        first = run_sweep([config], cache_dir=cache_dir)
        cache = ResultCache(cache_dir)
        path = cache.path(config_key(config))
        with open(path) as handle:
            payload = json.load(handle)
        if name == "metrics.unknown":
            payload["metrics"]["unknown"] = 1.0
        else:
            del payload[name]
        with open(path, "w") as handle:
            json.dump(payload, handle, sort_keys=True)
        assert cache.load(config_key(config)) is None
        again = run_sweep([config], cache_dir=cache_dir)
        assert again.ok and again.cache_hits == 0
        assert again.runs[0].summary == first.runs[0].summary
        assert cache.load(config_key(config)) == first.runs[0].summary

    def test_failures_are_never_cached(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = run_sweep([short_config()], cache_dir=cache_dir,
                          runner=crash_runner)
        assert not first.ok
        second = run_sweep([short_config()], cache_dir=cache_dir,
                           runner=crash_runner)
        assert second.cache_hits == 0
        assert not second.ok


class TestFaultIsolation:
    def test_injected_crash_yields_run_failure(self):
        sweep = run_sweep([short_config()], runner=crash_runner)
        assert len(sweep) == 1
        failure = sweep.runs[0].failure
        assert failure is not None
        assert failure.kind == FAILED_ERROR
        assert "injected crash" in failure.error
        assert failure.attempts == 1
        assert not sweep.ok

    def test_retries_are_bounded(self):
        sweep = run_sweep([short_config()], runner=crash_runner, retries=2)
        assert sweep.runs[0].failure.attempts == 3

    def test_crash_in_pool_does_not_abort_the_sweep(self):
        configs = [short_config(wifi_mbps=2.0), short_config(wifi_mbps=8.0)]
        sweep = run_sweep(configs, jobs=2, runner=crash_on_slow_wifi)
        assert len(sweep) == 2
        assert sweep.runs[0].failure is not None
        assert "boom" in sweep.runs[0].failure.error
        assert sweep.runs[1].ok

    def test_timeout_yields_run_failure(self):
        start = time.perf_counter()
        sweep = run_sweep([short_config()], timeout=0.3,
                          runner=sleepy_runner)
        elapsed = time.perf_counter() - start
        failure = sweep.runs[0].failure
        assert failure is not None
        assert failure.kind == FAILED_TIMEOUT
        assert elapsed < 5.0

    def test_timeout_in_pool(self):
        sweep = run_sweep([short_config()], jobs=2, timeout=0.3,
                          runner=sleepy_runner)
        assert sweep.runs[0].failure is not None
        assert sweep.runs[0].failure.kind == FAILED_TIMEOUT

    def test_failed_progress_line(self):
        lines = []
        run_sweep([short_config()], runner=crash_runner,
                  progress=lines.append)
        assert len(lines) == 1
        assert f"FAILED ({FAILED_ERROR}, 1 attempt(s)): " in lines[0]
        assert "injected crash" in lines[0]

    def test_rerun_after_partial_failure_serves_cache(self, tmp_path):
        """The acceptance scenario: one crashing run, sweep completes,
        and an immediate re-run replays the successes from cache."""
        cache_dir = str(tmp_path / "cache")
        configs = [short_config(wifi_mbps=8.0), short_config(wifi_mbps=2.0)]
        first = run_sweep(configs, cache_dir=cache_dir,
                          runner=crash_on_slow_wifi)
        assert first.runs[0].ok
        assert first.runs[1].failure is not None
        second = run_sweep(configs, cache_dir=cache_dir,
                           runner=crash_on_slow_wifi)
        assert second.runs[0].cached
        assert second.runs[0].summary == first.runs[0].summary
        assert second.runs[1].failure is not None


class TestSweepTable:
    def test_renders_successes_and_failures(self, tmp_path):
        configs = [short_config(wifi_mbps=8.0), short_config(wifi_mbps=2.0)]
        sweep = run_sweep(configs, runner=crash_on_slow_wifi)
        text = sweep_table(sweep)
        assert "failed:error" in text
        assert "boom" in text
        assert "2 runs, 1 failed" in text

    def test_session_row_reports_summary_metrics(self):
        sweep = run_sweep([short_config(lte_mbps=3.0)])
        run = sweep.runs[0]
        metrics = run.summary.metrics
        row = sweep_table(sweep).splitlines()[3].split()
        assert row == [
            "0", run.config_key[:12], "ok", f"{run.elapsed:.2f}",
            f"{metrics.cellular_bytes / 1e6:.2f}",
            f"{metrics.radio_energy:.1f}",
            f"{metrics.mean_bitrate_mbps:.2f}", str(metrics.stall_count),
            "0"]


class TestRunSchemesOnEngine:
    def test_comparison_still_works(self):
        # Constrained WiFi and a session long enough to leave the
        # low-buffer startup guard, so MP-DASH actually activates.
        base = short_config(video_duration=60.0,
                            wifi_mbps=3.8, lte_mbps=3.0)
        comparison = run_schemes(base, schemes=("baseline", "rate"))
        assert comparison.baseline.metrics.cellular_bytes > 0
        assert comparison.cellular_savings("rate") > 0

    def test_jobs_and_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = run_schemes(short_config(), schemes=("baseline", "rate"),
                            jobs=2, cache_dir=cache_dir)
        second = run_schemes(short_config(), schemes=("baseline", "rate"),
                             cache_dir=cache_dir)
        for scheme in ("baseline", "rate"):
            assert (first.results[scheme].metrics
                    == second.results[scheme].metrics)

    def test_failed_scheme_raises(self):
        with pytest.raises(RuntimeError, match="baseline"):
            # A scheme comparison is meaningless with holes; the engine's
            # RunFailure surfaces as an exception at this level.
            base = short_config(video_duration=-1.0)
            run_schemes(base, schemes=("baseline",))


class TestOlderCacheArtifacts:
    """Cache directories written before summaries lost their histograms
    and the download kind must keep working: the session artifact is a
    hit, the download artifact a miss."""

    def _older_cache(self, tmp_path, config):
        from repro.obs.metrics import Histogram

        cache_dir = str(tmp_path / "cache")
        first = run_sweep([config], cache_dir=cache_dir)
        cache = ResultCache(cache_dir)
        slack = Histogram("repro_deadline_slack_seconds", [0.0, 1.0, 5.0])
        for value in (-0.5, 0.4, 2.0):
            slack.observe(value)
        path = cache.path(first.runs[0].config_key)
        with open(path) as handle:
            payload = json.load(handle)
        payload["histograms"] = {slack.name: slack.to_dict()}
        with open(path, "w") as handle:
            json.dump(payload, handle, sort_keys=True)
        download = FileDownloadConfig(size=2e6, deadline=8.0)
        with open(cache.path(config_key(download)), "w") as handle:
            json.dump({"kind": "download",
                       "config_key": config_key(download),
                       "duration": 3.0,
                       "bytes_per_path": {"wifi": 1.5e6, "cellular": 5e5},
                       "missed_deadline": False, "radio_energy": 12.0},
                      handle, sort_keys=True)
        return cache_dir, first, download

    def test_session_artifact_with_histograms_is_a_hit(self, tmp_path):
        cache_dir, first, _ = self._older_cache(tmp_path, short_config())
        again = run_sweep([short_config()], cache_dir=cache_dir)
        assert again.runs[0].cached
        assert again.runs[0].summary == first.runs[0].summary
        assert "histograms" not in again.runs[0].summary.to_dict()

    @pytest.mark.parametrize("form", [
        "empty-histograms", "no-violations", "null-violations"])
    def test_older_session_forms_are_hits(self, tmp_path, form):
        """Older session artifacts: the common form with no histograms
        collected, and forms from before violation counts existed."""
        cache_dir = str(tmp_path / "cache")
        config = short_config()
        first = run_sweep([config], cache_dir=cache_dir)
        path = ResultCache(cache_dir).path(config_key(config))
        with open(path) as handle:
            payload = json.load(handle)
        if form == "empty-histograms":
            payload["histograms"] = {}
        elif form == "no-violations":
            del payload["violations"]
        else:
            payload["violations"] = None
        with open(path, "w") as handle:
            json.dump(payload, handle, sort_keys=True)
        again = run_sweep([config], cache_dir=cache_dir)
        run = again.runs[0]
        assert run.cached and again.cache_hits == 1
        assert run.summary.metrics == first.runs[0].summary.metrics
        assert run.summary.config_key == first.runs[0].config_key
        expected = {} if form == "empty-histograms" else None
        assert run.summary.violations == expected

    def test_download_artifact_is_a_miss(self, tmp_path):
        cache_dir, _, download = self._older_cache(tmp_path,
                                                   short_config())
        assert ResultCache(cache_dir).load(config_key(download)) is None
        sweep = run_sweep([download], cache_dir=cache_dir)
        run = sweep.runs[0]
        assert not run.cached and sweep.cache_hits == 0
        assert run.failure is not None


# Module-level kill runners for the broken-pool tests (picklable).
def kill_once_runner(config):
    """SIGKILL this worker the first time, succeed on the retry."""
    marker = os.environ["REPRO_TEST_KILL_MARKER"]
    try:
        with open(marker, "x"):
            pass
    except FileExistsError:
        return default_runner(config)
    os.kill(os.getpid(), signal.SIGKILL)


def always_kill_runner(config):
    os.kill(os.getpid(), signal.SIGKILL)


#: Pickles by its name, ``<lambda>``, which no module attribute carries.
unpicklable_runner = lambda config: default_runner(config)  # noqa: E731


#: In-process invocation log for the dedup tests (jobs=1 only).
counting_calls = []


def counting_runner(config):
    counting_calls.append(config_key(config))
    return default_runner(config)


class TestDuplicateConfigs:
    def test_duplicates_simulated_once(self):
        counting_calls.clear()
        configs = [short_config()] * 3
        sweep = run_sweep(configs, runner=counting_runner)
        assert sweep.ok and len(sweep) == 3
        assert len(counting_calls) == 1
        assert not sweep.runs[0].shared
        assert sweep.runs[1].shared and sweep.runs[2].shared
        for run in sweep.runs[1:]:
            assert run.cached  # served without a fresh simulation
            assert run.summary == sweep.runs[0].summary
            assert run.attempts == sweep.runs[0].attempts

    def test_mixed_grid_keeps_distinct_configs_distinct(self):
        counting_calls.clear()
        configs = [short_config(), short_config(wifi_mbps=6.0),
                   short_config()]
        sweep = run_sweep(configs, runner=counting_runner)
        assert sweep.ok
        assert len(counting_calls) == 2
        assert sweep.runs[2].shared and not sweep.runs[1].shared

    def test_duplicate_failure_carries_its_own_index(self):
        sweep = run_sweep([short_config()] * 2, runner=crash_runner)
        assert not sweep.ok
        assert sweep.runs[1].shared
        assert sweep.runs[1].failure is not None
        assert sweep.runs[1].failure.index == 1
        assert sweep.runs[0].failure.index == 0
        assert "injected crash" in sweep.runs[1].failure.error

    def test_duplicate_progress_line_per_run(self):
        lines = []
        run_sweep([short_config()] * 3, progress=lines.append)
        runs = sorted(re.search(r"run (\d)/3 ", line).group(1)
                      for line in lines)
        assert runs == ["1", "2", "3"]
        assert sum(line.endswith(" cached") for line in lines) == 2

    def test_dedup_in_pool(self):
        sweep = run_sweep([short_config()] * 3, jobs=2)
        assert sweep.ok
        assert [run.shared for run in sweep.runs] == [False, True, True]
        assert sweep.runs[1].summary == sweep.runs[0].summary

    def test_dedup_composes_with_the_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = run_sweep([short_config()] * 2, cache_dir=cache_dir)
        assert first.cache_hits == 1  # the duplicate
        second = run_sweep([short_config()] * 2, cache_dir=cache_dir)
        assert second.cache_hits == 2
        assert second.runs[0].summary == first.runs[0].summary


class TestCacheStoreFailure:
    def test_store_failure_degrades_to_a_warning(self, tmp_path,
                                                 monkeypatch):
        def broken_store(self, key, payload):
            raise OSError("disk full")

        monkeypatch.setattr(ResultCache, "store", broken_store)
        sweep = run_sweep([short_config()],
                          cache_dir=str(tmp_path / "cache"))
        assert sweep.ok  # the simulation itself survived
        run = sweep.runs[0]
        assert run.summary is not None
        assert run.cache_error is not None
        assert "disk full" in run.cache_error

    def test_healthy_cache_records_no_warning(self, tmp_path):
        sweep = run_sweep([short_config()],
                          cache_dir=str(tmp_path / "cache"))
        assert sweep.ok
        assert sweep.runs[0].cache_error is None


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"),
                    reason="needs SIGKILL (POSIX)")
class TestBrokenPoolRecovery:
    def test_worker_death_is_retried_on_a_fresh_pool(self, tmp_path,
                                                     monkeypatch):
        marker = tmp_path / "killed"
        monkeypatch.setenv("REPRO_TEST_KILL_MARKER", str(marker))
        sweep = run_sweep([short_config()], jobs=2, retries=2,
                          runner=kill_once_runner)
        assert marker.exists()
        assert sweep.ok
        # Exactly one attempt died with the pool before the retry won.
        assert sweep.runs[0].attempts == 2

    def test_collateral_runs_survive_the_pool_death(self, tmp_path,
                                                    monkeypatch):
        marker = tmp_path / "killed"
        monkeypatch.setenv("REPRO_TEST_KILL_MARKER", str(marker))
        configs = [short_config(wifi_mbps=w) for w in (6.0, 7.0, 8.0)]
        sweep = run_sweep(configs, jobs=2, retries=2,
                          runner=kill_once_runner)
        assert sweep.ok and len(sweep) == 3

    def test_permanent_worker_death_records_a_failure(self):
        sweep = run_sweep([short_config()], jobs=2, retries=1,
                          runner=always_kill_runner)
        assert not sweep.ok
        failure = sweep.runs[0].failure
        assert failure is not None
        assert failure.kind == FAILED_ERROR
        assert "worker process died" in failure.error
        assert failure.attempts == 2

    def test_one_worker_death_fails_at_most_jobs_runs(self, tmp_path,
                                                      monkeypatch):
        # Only the runs in flight when the worker dies can be charged;
        # the queued rest must go to the fresh pool untouched.
        marker = tmp_path / "killed"
        monkeypatch.setenv("REPRO_TEST_KILL_MARKER", str(marker))
        configs = [short_config(wifi_mbps=4.0 + 0.5 * i) for i in range(12)]
        sweep = run_sweep(configs, jobs=2, retries=0,
                          runner=kill_once_runner)
        assert marker.exists()
        assert len(sweep) == 12
        assert len(sweep.failures) <= 2
        for failure in sweep.failures:
            assert "worker process died" in failure.error
            assert failure.attempts == 1


class TestUnpicklableRunner:
    def test_charged_retried_then_recorded(self):
        sweep = run_sweep([short_config()], jobs=2, retries=2,
                          runner=unpicklable_runner)
        failure = sweep.runs[0].failure
        assert failure is not None and failure.kind == FAILED_ERROR
        assert failure.attempts == 3
        assert "PicklingError" in failure.error


class TestMixedKeyEncode:
    def test_mixed_type_dict_keys_are_hashable(self):
        # Raw-key sorting would raise TypeError("'<' not supported ...").
        key = config_key(short_config(abr_kwargs={"b": 1, 2: 3}))
        assert isinstance(key, str)

    def test_stringified_order_is_stable(self):
        one = config_key(short_config(abr_kwargs={"b": 1, 2: 3}))
        other = config_key(short_config(abr_kwargs={2: 3, "b": 1}))
        assert one == other

    def test_string_form_collisions_are_shared_keys(self):
        # {"2": x} and {2: x} canonicalize identically by design: the
        # emitted JSON carries stringified keys either way.
        assert config_key(short_config(abr_kwargs={"2": 3})) == \
            config_key(short_config(abr_kwargs={2: 3}))
