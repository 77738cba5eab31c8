"""Session lifetime: a finished session frees its graph by reference count.

``run_session`` and ``run_file_download`` close what they opened (the
simulator's heap and bus, the player's clock, the connection's kernel,
the scheduler binding, the invariant monitor), so no reference cycle
outlives a session and CPython's cyclic collector never has to walk a
dead session graph.  These tests count the cyclic garbage each entry
point leaves with ``gc.DEBUG_SAVEALL``, and check that every
``SessionResult`` field still reads the value it had before teardown.
"""

import gc
import io
from collections import Counter

import pytest

from repro.experiments import runner
from repro.experiments.configs import FileDownloadConfig, SessionConfig
from repro.experiments.fleet import FleetConfig, run_fleet
from repro.experiments.runner import run_file_download, run_session
from repro.net.simulator import Simulator
from repro.obs.check import check_trace
from repro.obs.recorder import RecorderConfig, ShardRecorder
from repro.obs.trace_export import loads_jsonl
from repro.obs.why import attributions_from_trace


def short_config(**kwargs):
    defaults = dict(video="big_buck_bunny", abr="festive", mpdash=True,
                    deadline_mode="rate", wifi_mbps=3.8, lte_mbps=3.0,
                    video_duration=40.0)
    defaults.update(kwargs)
    return SessionConfig(**defaults)


def cyclic_garbage(call):
    """Objects only the cyclic collector could free after ``call()``.

    One warm-up call first, so first-use caches and lazy imports do not
    count; then the collector is off and ``DEBUG_SAVEALL`` keeps whatever
    the second call left in cycles.
    """
    call()
    gc.collect()
    was_enabled = gc.isenabled()
    flags = gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.garbage.clear()
        call()
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)
        if was_enabled:
            gc.enable()


def summary(garbage):
    return Counter(type(obj).__name__ for obj in garbage).most_common(8)


SESSION_MODES = {
    "plain": lambda: run_session(short_config()),
    "wifi_only": lambda: run_session(short_config(wifi_only=True)),
    "no_mpdash": lambda: run_session(short_config(mpdash=False)),
    "record_trace": lambda: run_session(short_config(record_trace=True)),
    "check": lambda: run_session(short_config(), check=True),
    "metrics_spans": lambda: run_session(
        short_config(collect_metrics=True, collect_spans=True)),
    "time_capped": lambda: run_session(short_config(max_sim_time=25.0)),
    # Capped inside the first request's RTT: a transfer is still waiting
    # to start when the connection closes.
    "capped_mid_request": lambda: run_session(
        short_config(max_sim_time=0.01)),
    "robust_mpc": lambda: run_session(short_config(abr="robust-mpc")),
    "file_download": lambda: run_file_download(
        FileDownloadConfig(size=2e6, deadline=8.0, mpdash=True)),
}


class TestNoCyclicGarbage:
    @pytest.mark.parametrize("mode", sorted(SESSION_MODES))
    def test_session_leaves_no_cycles(self, mode):
        garbage = cyclic_garbage(SESSION_MODES[mode])
        assert not garbage, summary(garbage)

    @pytest.fixture(scope="class")
    def traced(self):
        result = run_session(short_config(record_trace=True))
        out = io.StringIO()
        result.export_trace(out)
        return result, out.getvalue()

    def test_recorder_observe_leaves_no_cycles(self, traced, tmp_path):
        result, _text = traced
        recorder = ShardRecorder(
            RecorderConfig(artifact_dir=str(tmp_path), head_every=1),
            "key", 0)
        garbage = cyclic_garbage(lambda: recorder.observe(0, result))
        assert not garbage, summary(garbage)

    def test_offline_judge_leaves_no_cycles(self, traced):
        _result, text = traced

        def judge():
            trace = loads_jsonl(text)
            attributions_from_trace(trace, report=check_trace(trace))

        garbage = cyclic_garbage(judge)
        assert not garbage, summary(garbage)

    @pytest.mark.parametrize("recorded", [False, True])
    def test_fleet_garbage_does_not_grow_with_sessions(self, recorded,
                                                        tmp_path):
        """A campaign may leave a constant, never a per-session
        amount."""
        def campaign(sessions):
            recorder = None
            if recorded:
                recorder = RecorderConfig(
                    artifact_dir=str(tmp_path / f"rec{sessions}"))
            config = FleetConfig(sessions=sessions, shard_size=8,
                                 video_duration=20.0, seed=2016)
            return lambda: run_fleet(config, jobs=1, recorder=recorder)

        small = cyclic_garbage(campaign(8))
        large = cyclic_garbage(campaign(32))
        assert len(large) <= len(small) <= 100, (summary(small),
                                                 summary(large))


READS = {
    "buffer_level": lambda r: r.player.buffer.level,
    "scheduler_stats": lambda r: r.scheduler_stats,
    "metrics": lambda r: r.metrics,
    "analyzer_metrics": lambda r: r.analyzer.metrics(
        r.config.steady_state_fraction),
    "activity_totals": lambda r: {
        path: r.connection.activity.total_bytes(path)
        for path in r.connection.activity.paths()},
    "trace_bytes": lambda r: _trace_text(r),
    "check_report": lambda r: r.check_report.to_dict(),
}


def _trace_text(result):
    out = io.StringIO()
    result.export_trace(out)
    return out.getvalue()


class TestResultReadsAfterTeardown:
    @pytest.mark.parametrize("max_sim_time", [None, 25.0])
    def test_reads_match_the_values_before_teardown(self, monkeypatch,
                                                     max_sim_time):
        """Snapshot every read just before the simulator closes (the first
        teardown step), then read again from the returned result and from
        an untouched run of the same config (which nothing read early, so
        teardown alone must commit e.g. the final buffer drain)."""
        config = short_config(record_trace=True, max_sim_time=max_sim_time)
        untouched = run_session(config, check=True)
        results = []
        before = {}

        class Capturing(runner.SessionResult):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                results.append(self)

        real_close = Simulator.close

        def close(sim):
            if not before:
                before.update({name: read(results[0])
                               for name, read in READS.items()})
            real_close(sim)

        monkeypatch.setattr(runner, "SessionResult", Capturing)
        monkeypatch.setattr(Simulator, "close", close)
        result = run_session(config, check=True)
        assert before, "teardown never closed the simulator"
        assert result is results[0]
        assert {name: read(result) for name, read in READS.items()} == before
        assert {name: read(untouched)
                for name, read in READS.items()} == before
        if max_sim_time is not None:
            # Cut off mid-playback: the final occupancy is committed.
            assert not result.finished
            assert result.player.buffer.level > 0
