"""A disabled path keeps its level in the aggregate throughput estimate.

The player sees aggregate capacity across all paths (§3.2).  A path
MP-DASH has switched off feeds its estimator no samples, so a falling
Holt-Winters trend would stay frozen, clamp the forecast at 0, and keep
the path out of the aggregate for the rest of the session: FESTIVE then
holds a low level, every deadline is met on WiFi, and the scheduler
never turns cellular back on.
"""

import pytest

from repro.estimators import Ewma, HarmonicMean, HoltWinters
from repro.experiments import BASELINE, RATE, SessionConfig, run_schemes
from repro.mptcp.connection import MptcpConnection
from repro.net.link import cellular_path, wifi_path
from repro.net.simulator import Simulator
from repro.workloads import field_study_locations

#: Cellular samples (Mbps) whose trend falls below minus the level.
FALLING = (40.0, 30.0, 20.0, 10.0, 1.0)


def falling_estimator():
    estimator = HoltWinters()
    for sample in FALLING:
        estimator.update(sample)
    return estimator


class TestLevel:
    def test_holt_winters_level_drops_the_trend(self):
        estimator = falling_estimator()
        assert estimator.predict() == 0.0
        assert estimator.level() == pytest.approx(estimator.predict(0))
        assert estimator.level() > 0.0

    def test_trend_free_level_is_the_prediction(self):
        estimator = Ewma()
        assert estimator.level() is None
        estimator.update(4.0)
        assert estimator.level() == estimator.predict()

    def test_disabled_path_contributes_its_level(self):
        wifi, cellular = wifi_path(bandwidth_mbps=8.0), \
            cellular_path(bandwidth_mbps=8.0)
        conn = MptcpConnection(Simulator(), [wifi, cellular])
        conn.subflow("wifi").estimator.update(5.0)
        conn.subflow("cellular").estimator = falling_estimator()
        level = conn.subflow("cellular").estimator.level()
        assert conn.aggregate_throughput_estimate() == pytest.approx(5.0)
        cellular.enabled = False
        assert conn.aggregate_throughput_estimate() == pytest.approx(
            5.0 + level)

    def test_reenabled_path_returns_to_the_forecast(self):
        wifi, cellular = wifi_path(bandwidth_mbps=8.0), \
            cellular_path(bandwidth_mbps=8.0)
        conn = MptcpConnection(Simulator(), [wifi, cellular])
        conn.subflow("wifi").estimator.update(5.0)
        conn.subflow("cellular").estimator = falling_estimator()
        cellular.enabled = False
        cellular.enabled = True
        # Enabled again, the path feeds samples and its trend counts.
        assert conn.aggregate_throughput_estimate() == pytest.approx(5.0)

    def test_cold_disabled_path_adds_nothing(self):
        wifi, cellular = wifi_path(bandwidth_mbps=8.0), \
            cellular_path(bandwidth_mbps=8.0)
        conn = MptcpConnection(Simulator(), [wifi, cellular])
        cellular.enabled = False
        assert conn.aggregate_throughput_estimate() is None
        conn.subflow("wifi").estimator.update(5.0)
        assert conn.aggregate_throughput_estimate() == pytest.approx(5.0)

    @pytest.mark.parametrize("kind", [Ewma, HarmonicMean, HoltWinters])
    def test_cold_estimator_has_no_level(self, kind):
        estimator = kind()
        assert estimator.level() is None
        estimator.update(4.0)
        assert estimator.level() is not None
        estimator.reset()
        assert estimator.level() is None

    @pytest.mark.parametrize("kind", [Ewma, HarmonicMean, HoltWinters])
    def test_steady_samples_set_the_level(self, kind):
        estimator = kind()
        for _ in range(10):
            estimator.update(6.0)
        assert estimator.level() == pytest.approx(6.0)
        assert estimator.level() == pytest.approx(estimator.predict())


@pytest.mark.parametrize("name", ["bar", "food_market"])
def test_field_study_run_keeps_cellular(name):
    """The two field-study runs that locked cellular out (FESTIVE,
    rate-based deadlines): 100% of cellular saved at 62.7% (``bar``) and
    38.8% (``food_market``) bitrate loss."""
    location = next(loc for loc in field_study_locations()
                    if loc.name == name)
    video_seconds = 240.0
    wifi, lte = location.paths(duration=2 * video_seconds + 200)
    config = SessionConfig(video="big_buck_bunny", abr="festive",
                           wifi_trace=wifi.trace, lte_trace=lte.trace,
                           wifi_mbps=None, lte_mbps=None,
                           wifi_rtt_ms=location.wifi_rtt_ms,
                           lte_rtt_ms=location.lte_rtt_ms,
                           video_duration=video_seconds,
                           tick_interval=0.025)
    comparison = run_schemes(config, schemes=(BASELINE, RATE))
    assert comparison.cellular_savings(RATE) < 0.9
    assert comparison.bitrate_reduction(RATE) < 0.1
