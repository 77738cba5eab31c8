"""Failure injection: blackouts, dead paths, pathological configurations.

The paper's robustness story (§5.1) is that MP-DASH steps aside — low
buffer disables the scheduler, a passed deadline re-opens every path — so
adversity degrades QoE gracefully instead of deadlocking.  These tests
drive those paths explicitly.
"""

import pytest

from repro.experiments import (FileDownloadConfig, SessionConfig,
                               run_file_download, run_session)
from repro.net.trace import BandwidthTrace
from repro.net.units import mbps, megabytes


def blackout_trace(rate_mbps, start, end, horizon=700.0):
    base = BandwidthTrace.constant(mbps(rate_mbps))
    base.duration = horizon
    return BandwidthTrace.with_dropouts(base, [(start, end)],
                                        floor_bytes_per_s=mbps(0.05))


def window_bytes(activity, path, start, end):
    """Bytes ``path`` carried in the activity bins starting in
    ``[start, end)``."""
    times, values = activity.series(path)
    return sum(v for t, v in zip(times, values) if start <= t < end)


class TestWifiBlackout:
    def test_session_survives_mid_stream_blackout(self):
        """WiFi dies for 30 s mid-session; LTE carries the stream."""
        config = SessionConfig(
            video="big_buck_bunny", abr="festive", mpdash=True,
            deadline_mode="rate",
            wifi_trace=blackout_trace(3.8, 60.0, 90.0),
            lte_trace=BandwidthTrace.constant(mbps(4.0)),
            wifi_mbps=None, lte_mbps=None, video_duration=180.0)
        result = run_session(config)
        assert result.finished
        assert result.metrics.stall_count == 0
        # The blackout forced real cellular usage.
        assert result.metrics.cellular_bytes > megabytes(5)

    def test_blackout_cellular_concentrated_in_window(self):
        config = SessionConfig(
            video="big_buck_bunny", abr="festive", mpdash=True,
            deadline_mode="rate",
            wifi_trace=blackout_trace(4.5, 60.0, 90.0),
            lte_trace=BandwidthTrace.constant(mbps(4.0)),
            wifi_mbps=None, lte_mbps=None, video_duration=180.0)
        result = run_session(config)
        activity = result.connection.activity
        during = window_bytes(activity, "cellular", 55.0, 100.0)
        total = activity.total_bytes("cellular")
        assert total > 0
        assert during / total > 0.6

    def test_scheduler_reenables_wifi_after_recovery(self):
        config = SessionConfig(
            video="big_buck_bunny", abr="festive", mpdash=True,
            deadline_mode="rate",
            wifi_trace=blackout_trace(4.5, 40.0, 60.0),
            lte_trace=BandwidthTrace.constant(mbps(4.0)),
            wifi_mbps=None, lte_mbps=None, video_duration=180.0)
        result = run_session(config)
        activity = result.connection.activity
        # WiFi carries traffic again well after the blackout.
        late_wifi = window_bytes(activity, "wifi", 100.0, 180.0)
        late_cell = window_bytes(activity, "cellular", 100.0, 180.0)
        assert late_wifi > 3 * late_cell


class TestDegenerateNetworks:
    def test_dead_cellular_path(self):
        """A cellular path with (almost) no bandwidth: MP-DASH cannot make
        deadlines with it, but nothing hangs and WiFi still streams."""
        config = SessionConfig(
            video="big_buck_bunny", abr="gpac", mpdash=True,
            deadline_mode="rate", wifi_mbps=5.0, lte_mbps=0.01,
            video_duration=120.0)
        result = run_session(config)
        assert result.finished
        assert result.metrics.stall_count == 0

    def test_both_paths_starved_stalls_but_terminates(self):
        config = SessionConfig(
            video="big_buck_bunny", abr="gpac", mpdash=True,
            deadline_mode="rate", wifi_mbps=0.3, lte_mbps=0.2,
            video_duration=60.0, max_sim_time=400.0)
        result = run_session(config)
        # The lowest level (0.58 Mbps) exceeds capacity: stalls happen,
        # the run still terminates at the cap or completion.
        assert result.session_duration <= 401.0
        assert result.metrics.stall_count >= 1 or not result.finished

    def test_deadline_miss_recovery_in_download(self):
        """An impossible deadline is missed once, after which the transfer
        finishes on all paths (condition 2 of §3.2)."""
        result = run_file_download(FileDownloadConfig(
            size=megabytes(10), deadline=1.0, wifi_mbps=2.0, lte_mbps=2.0))
        assert result.missed_deadline
        assert result.total_bytes >= megabytes(10) * 0.99
        # After deactivation both paths were used.
        assert result.bytes_per_path["cellular"] > 0

    def test_extremely_short_video(self):
        config = SessionConfig(video="big_buck_bunny", abr="festive",
                               mpdash=True, wifi_mbps=8.0, lte_mbps=8.0,
                               video_duration=8.0, buffer_capacity=16.0)
        result = run_session(config)
        assert result.finished
        assert len(result.player.log.chunks) == 2

    def test_tiny_buffer_capacity(self):
        config = SessionConfig(video="big_buck_bunny", abr="gpac",
                               mpdash=True, wifi_mbps=8.0, lte_mbps=8.0,
                               buffer_capacity=8.0, video_duration=60.0)
        result = run_session(config)
        assert result.finished
        assert result.metrics.stall_count == 0


class TestSchedulerRobustness:
    def test_flapping_wifi_no_deadline_misses(self):
        """WiFi alternating hard every 5 s: the scheduler flaps cellular
        but keeps every chunk on time."""
        pattern = ([mbps(6.0)] * 10 + [mbps(1.0)] * 10) * 40
        wifi = BandwidthTrace.from_samples(pattern, 0.5)
        config = SessionConfig(
            video="big_buck_bunny", abr="festive", mpdash=True,
            deadline_mode="rate", wifi_trace=wifi,
            lte_trace=BandwidthTrace.constant(mbps(4.0)),
            wifi_mbps=None, lte_mbps=None, video_duration=200.0)
        result = run_session(config)
        assert result.finished
        assert result.metrics.stall_count == 0
        assert result.scheduler_stats["deadline_misses"] == 0

    def test_alpha_extremes(self):
        for alpha in (0.05, 1.0):
            result = run_file_download(FileDownloadConfig(
                size=megabytes(5), deadline=10.0, alpha=alpha,
                wifi_mbps=3.8, lte_mbps=3.0))
            assert not result.missed_deadline, alpha
