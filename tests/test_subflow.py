"""Tests for the subflow wrapper's analytic span interface."""

import pytest

from repro.estimators import Ewma
from repro.mptcp.subflow import MIN_SAMPLE_INTERVAL, Subflow
from repro.net.link import Path
from repro.net.trace import BandwidthTrace
from repro.net.units import mbps

BW = mbps(8.0)


def _path(enabled=True, bw=BW):
    return Path("wifi", BandwidthTrace.constant(bw), rtt=0.05,
                enabled=enabled)


def _deliver(sf, start, end, bins=None):
    """``deliver_analytic`` over ``[start, end]`` with 0.1 s bins; the
    closed bins and then the still-open one land in ``bins`` as
    ``(first_time, bytes)``."""
    open_bins = {}

    def publish(event):
        if bins is not None:
            bins.append((event.time, event.num_bytes))
    delivered = sf.deliver_analytic(start, end, sf.path.bandwidth_at(start),
                                    0.1, open_bins, publish)
    if bins is not None:
        bins.extend((time, num_bytes)
                    for _index, time, num_bytes in open_bins.values())
    return delivered


def _warm(sf, seconds=5.0):
    """Grow the window to the ceiling without forming any sample."""
    sf.grow_analytic(0.0, seconds, sf.path.bandwidth_at(0.0))
    return seconds


class TestDelivery:
    def test_disabled_path_delivers_nothing(self):
        sf = Subflow(_path(enabled=False))
        assert not sf._usable(0.0)
        assert sf.time_to_deliver(0.0, 1000.0, BW) == float("inf")
        cwnd = sf.tcp.cwnd
        sf.grow_analytic(0.0, 1.0, BW)
        assert sf.tcp.cwnd == cwnd
        assert sf.tcp.last_send_time is None

    def test_enabled_path_delivers(self):
        sf = Subflow(_path())
        assert sf._usable(0.0)
        assert _deliver(sf, 0.0, 0.01) > 0.0

    def test_account_accumulates_total(self):
        """``total_bytes`` is the sum of every committed span, equal to
        what the spans returned and what they reported per bin."""
        sf = Subflow(_path())
        bins = []
        first = _deliver(sf, 0.0, 0.37, bins)
        second = _deliver(sf, 0.37, 1.0, bins)
        assert first > 0 and second > 0
        assert sf.total_bytes == pytest.approx(first + second, rel=1e-12)
        assert sum(b for _i, b in bins) == pytest.approx(sf.total_bytes,
                                                         rel=1e-12)
        # Application-limited spans never count bytes.
        sf.grow_analytic(1.0, 2.0, BW)
        assert sf.total_bytes == pytest.approx(first + second, rel=1e-12)


class TestEstimation:
    def test_estimate_cold_before_samples(self):
        sf = Subflow(_path())
        assert sf.throughput_estimate() is None

    def test_estimate_warms_after_enough_busy_time(self):
        """The first sample forms after one sample interval of busy
        time, not before; on a pinned window it reads the path rate."""
        sf = Subflow(_path())
        start = _warm(sf)
        interval = max(sf.path.rtt, MIN_SAMPLE_INTERVAL)
        _deliver(sf, start, start + 0.9 * interval)
        assert sf.throughput_estimate() is None
        _deliver(sf, start + 0.9 * interval, start + interval)
        assert sf.throughput_estimate() == pytest.approx(BW, rel=0.01)

    def test_estimate_warms_during_slow_start(self):
        """Same cadence while the window is still growing."""
        sf = Subflow(_path())
        interval = max(sf.path.rtt, MIN_SAMPLE_INTERVAL)
        _deliver(sf, 0.0, 0.9 * interval)
        assert sf.throughput_estimate() is None
        _deliver(sf, 0.9 * interval, interval)
        assert sf.throughput_estimate() is not None

    def test_custom_estimator_used(self):
        sf = Subflow(_path(bw=mbps(4.0)), estimator=Ewma(alpha=1.0))
        start = _warm(sf)
        _deliver(sf, start, start + 1.0)
        assert sf.throughput_estimate() == pytest.approx(mbps(4.0),
                                                         rel=0.01)

    def test_idle_ticks_do_not_feed_estimator(self):
        """An application-limited span (nothing sendable) forms no
        sample, however long it lasts."""
        sf = Subflow(_path())
        sf.grow_analytic(0.0, 10.0, BW)
        assert sf.throughput_estimate() is None
        assert sf.total_bytes == 0
