"""Integration tests: full sessions through the experiment harness.

These exercise the paper's headline claims end to end on short videos:
MP-DASH cuts cellular usage versus vanilla MPTCP without stalling, the
file-download scheduler meets deadlines while avoiding cellular, and the
throttling baseline wastes energy.
"""

import pytest

from repro.experiments import (BASELINE, DURATION, FileDownloadConfig, RATE,
                               SessionConfig, run_file_download, run_schemes,
                               run_session)
from repro.net.units import kbps, megabytes

VIDEO_SECONDS = 120.0


def short_config(**kwargs):
    defaults = dict(video="big_buck_bunny", abr="festive",
                    wifi_mbps=3.8, lte_mbps=3.0,
                    video_duration=VIDEO_SECONDS)
    defaults.update(kwargs)
    return SessionConfig(**defaults)


class TestStreamingSessions:
    def test_baseline_overuses_cellular(self):
        """The Figure-1 motivation: vanilla MPTCP puts roughly half the
        bytes on LTE even though WiFi nearly suffices."""
        result = run_session(short_config(mpdash=False))
        assert result.finished
        assert result.metrics.cellular_fraction > 0.30

    @pytest.mark.parametrize("mode", ["rate", "duration"])
    def test_mpdash_cuts_cellular_without_stalls(self, mode):
        baseline = run_session(short_config(mpdash=False))
        treated = run_session(short_config(mpdash=True, deadline_mode=mode))
        assert treated.finished
        assert treated.metrics.stall_count == 0
        assert treated.metrics.cellular_bytes < \
            0.4 * baseline.metrics.cellular_bytes
        # QoE preserved: no meaningful playback bitrate loss.
        assert treated.metrics.mean_bitrate >= \
            0.9 * baseline.metrics.mean_bitrate

    def test_run_schemes_comparison(self):
        comparison = run_schemes(short_config(),
                                 schemes=(BASELINE, RATE, DURATION))
        assert comparison.cellular_savings(RATE) > 0.5
        assert comparison.cellular_savings(DURATION) > 0.5
        assert comparison.stalls(RATE) == 0
        assert abs(comparison.bitrate_reduction(RATE)) < 0.1

    def test_plenty_of_wifi_means_almost_no_cellular(self):
        """Scenario 3 locations: WiFi alone sustains the top bitrate, so
        MP-DASH nearly eliminates cellular traffic (up to 99% in the
        paper)."""
        comparison = run_schemes(short_config(wifi_mbps=20.0, lte_mbps=10.0),
                                 schemes=(BASELINE, RATE))
        assert comparison.cellular_savings(RATE) > 0.9
        assert comparison.energy_savings(RATE) > 0.3

    def test_wifi_only_session(self):
        result = run_session(short_config(wifi_only=True, wifi_mbps=8.0,
                                          mpdash=False))
        assert result.finished
        assert result.metrics.cellular_bytes == 0.0

    def test_scheduler_stats_exposed(self):
        result = run_session(short_config(mpdash=True))
        stats = result.scheduler_stats
        assert stats["activations"] > 0
        assert stats["deadline_misses"] == 0

    def test_throttling_hurts_energy_per_byte(self):
        """Table 4: throttling LTE to 700 kbps trickles data and burns
        radio energy; MP-DASH gets below it on cellular bytes AND energy."""
        throttled = run_session(short_config(
            mpdash=False, abr="gpac", lte_throttle=kbps(700)))
        mpdash = run_session(short_config(mpdash=True, abr="gpac",
                                          deadline_mode="rate"))
        assert mpdash.metrics.cellular_bytes < throttled.metrics.cellular_bytes
        assert mpdash.metrics.radio_energy < throttled.metrics.radio_energy

    def test_insufficient_network_caps_at_sim_deadline(self):
        config = short_config(wifi_mbps=0.2, lte_mbps=0.2,
                              max_sim_time=90.0, mpdash=False)
        result = run_session(config)
        assert not result.finished
        assert result.session_duration <= 90.0 + 1.0

    def test_steady_state_fraction_respected(self):
        full = run_session(short_config(steady_state_fraction=0.0))
        steady = run_session(short_config(steady_state_fraction=0.2))
        assert steady.metrics.chunk_count < full.metrics.chunk_count


class TestSchemeConfig:
    def test_with_scheme(self):
        base = short_config()
        assert base.with_scheme(BASELINE).mpdash is False
        assert base.with_scheme(RATE).deadline_mode == "rate"
        assert base.with_scheme(DURATION).mpdash is True
        with pytest.raises(ValueError):
            base.with_scheme("bogus")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SessionConfig(deadline_mode="bogus")
        with pytest.raises(ValueError):
            SessionConfig(alpha=0.0)
        with pytest.raises(ValueError):
            SessionConfig(wifi_mbps=None)


class TestFileDownload:
    def test_mpdash_download_meets_deadline_avoiding_cellular(self):
        """The §7.2 experiment: 5 MB, WiFi 3.8 / LTE 3.0, deadline 10 s
        (WiFi alone needs ~10.5 s, so a whiff of cellular is expected)."""
        result = run_file_download(FileDownloadConfig(
            size=megabytes(5), deadline=10.0, wifi_mbps=3.8, lte_mbps=3.0))
        assert not result.missed_deadline
        assert result.cellular_fraction < 0.25

    def test_baseline_download_splits_by_capacity(self):
        result = run_file_download(FileDownloadConfig(
            size=megabytes(5), deadline=10.0, mpdash=False,
            wifi_mbps=3.8, lte_mbps=3.0))
        assert result.cellular_fraction > 0.35

    def test_shorter_deadline_more_cellular(self):
        results = {}
        for deadline in (8.0, 10.0):
            results[deadline] = run_file_download(FileDownloadConfig(
                size=megabytes(5), deadline=deadline,
                wifi_mbps=3.8, lte_mbps=3.0))
        assert results[8.0].cellular_bytes > results[10.0].cellular_bytes
        assert not results[8.0].missed_deadline

    def test_mpdash_saves_energy_vs_baseline(self):
        baseline = run_file_download(FileDownloadConfig(
            size=megabytes(5), deadline=10.0, mpdash=False,
            wifi_mbps=3.8, lte_mbps=3.0))
        mpdash = run_file_download(FileDownloadConfig(
            size=megabytes(5), deadline=10.0, wifi_mbps=3.8, lte_mbps=3.0))
        assert mpdash.cellular_bytes < baseline.cellular_bytes
        assert mpdash.radio_energy < baseline.radio_energy

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FileDownloadConfig(size=0, deadline=10.0)
        with pytest.raises(ValueError):
            FileDownloadConfig(size=1e6, deadline=0.0)
