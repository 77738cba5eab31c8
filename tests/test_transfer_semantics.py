"""Tests for transfer availability (proxy watermark) and rate sampling."""

import pytest

from repro.mptcp.connection import MptcpConnection, Transfer
from repro.mptcp.subflow import Subflow
from repro.net.link import Path, cellular_path, wifi_path
from repro.net.simulator import Simulator
from repro.net.trace import BandwidthTrace
from repro.net.units import mbps, megabytes


class TestSendable:
    def test_defaults_to_remaining(self):
        transfer = Transfer(1000.0)
        assert transfer.sendable == 1000.0
        transfer.add("wifi", 400.0)
        assert transfer.sendable == 600.0

    def test_available_caps_sendable(self):
        transfer = Transfer(1000.0)
        transfer.available = 300.0
        assert transfer.sendable == 300.0
        transfer.add("wifi", 300.0)
        assert transfer.sendable == 0.0
        transfer.available = 1000.0
        assert transfer.sendable == 700.0

    def test_available_never_negative(self):
        transfer = Transfer(1000.0)
        transfer.available = 100.0
        transfer.add("wifi", 150.0)  # relay raced slightly ahead
        assert transfer.sendable == 0.0

    def test_connection_respects_watermark(self):
        """A transfer with a frozen watermark stops at it."""
        sim = Simulator()
        conn = MptcpConnection(sim, [wifi_path(bandwidth_mbps=8.0),
                                     cellular_path(bandwidth_mbps=8.0)])
        transfer = conn.start_transfer(megabytes(2))
        transfer.available = 500_000.0
        sim.run(until=20.0)
        assert not transfer.complete
        assert transfer.bytes_done == pytest.approx(500_000.0, abs=5_000)
        # Raising the watermark lets it finish.
        transfer.available = None
        sim.run(until=40.0)
        assert transfer.complete


class TestAppLimitedSampling:
    """Only network-limited spans feed the estimator.  The connection
    commits a span with ``deliver_analytic`` when the path runs at full
    potential, and with ``grow_analytic`` when the sender has nothing to
    send (a proxy still fetching, a sub-epsilon residue)."""

    BW = mbps(8.0)

    def make_subflow(self):
        sf = Subflow(Path("wifi", BandwidthTrace.constant(self.BW),
                          rtt=0.05))
        sf.grow_analytic(0.0, 5.0, self.BW)  # window at the ceiling, no samples
        return sf

    @staticmethod
    def deliver(sf, start, end):
        return sf.deliver_analytic(start, end, sf.path.bandwidth_at(start),
                                   0.1, {}, lambda event: None)

    def test_network_limited_samples_feed_estimator(self):
        sf = self.make_subflow()
        self.deliver(sf, 5.0, 6.0)
        assert sf.throughput_estimate() == pytest.approx(self.BW, rel=0.01)

    def test_app_limited_crumbs_excluded(self):
        """An application-limited span says nothing about path capacity
        and must not poison the estimate (the last sliver of a chunk)."""
        sf = self.make_subflow()
        self.deliver(sf, 5.0, 6.0)
        before = sf.throughput_estimate()
        sf.grow_analytic(6.0, 8.0, self.BW)
        assert sf.throughput_estimate() == before

    def test_no_budget_means_always_sampled(self):
        """A committed span is network-limited by construction, so short
        spans pool their busy time into samples like one long span."""
        sf = self.make_subflow()
        for step in range(100):
            self.deliver(sf, 5.0 + step * 0.01, 5.0 + (step + 1) * 0.01)
        assert sf.throughput_estimate() == pytest.approx(self.BW, rel=0.01)

    def test_total_bytes_counted_regardless(self):
        sf = self.make_subflow()
        delivered = self.deliver(sf, 5.0, 5.01)  # under one sample
        assert sf.throughput_estimate() is None
        assert sf.total_bytes == pytest.approx(delivered)
        assert delivered == pytest.approx(self.BW * 0.01)
