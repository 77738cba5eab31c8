"""Tests for the TCP-splitting proxy (§8 server transparency)."""

import pytest

from repro.core.policy import prefer_wifi
from repro.core.socket_api import MpDashSocket
from repro.mptcp.connection import MptcpConnection
from repro.mptcp.proxy import SplittingProxy
from repro.net.link import Path, cellular_path, wifi_path
from repro.net.simulator import Simulator
from repro.net.trace import BandwidthTrace
from repro.net.units import mbps, megabytes


def origin(rate_mbps=20.0, rtt=0.02):
    return Path("origin", BandwidthTrace.constant(mbps(rate_mbps)), rtt=rtt)


def make_setup(origin_mbps=20.0, wifi=3.8, lte=3.0, mpdash=False):
    sim = Simulator()
    client_leg = MptcpConnection(sim, [wifi_path(bandwidth_mbps=wifi),
                                       cellular_path(bandwidth_mbps=lte)])
    socket = MpDashSocket(client_leg, prefer_wifi()) if mpdash else None
    proxy = SplittingProxy(sim, origin(origin_mbps), client_leg)
    return sim, client_leg, proxy, socket


class TestRelay:
    def test_transfer_completes_through_proxy(self):
        sim, _leg, proxy, _socket = make_setup()
        done = []
        proxy.fetch(megabytes(2), on_complete=lambda t: done.append(sim.now))
        sim.run(until=60.0)
        assert len(done) == 1
        assert proxy.origin_bytes == pytest.approx(megabytes(2), rel=1e-6)

    def test_fast_origin_client_leg_limits(self):
        """Origin at 20 Mbps, client leg ~6.8 Mbps: the multipath leg is
        the bottleneck and the duration matches the direct case."""
        sim, _leg, proxy, _socket = make_setup(origin_mbps=20.0)
        transfer = proxy.fetch(megabytes(5))
        sim.run(until=60.0)
        assert transfer.complete
        assert 5.5 <= transfer.duration() <= 8.0

    def test_slow_origin_limits_end_to_end(self):
        """Origin at 1 Mbps: no amount of multipath can beat the source."""
        sim, _leg, proxy, _socket = make_setup(origin_mbps=1.0)
        transfer = proxy.fetch(megabytes(2))
        sim.run(until=120.0)
        assert transfer.complete
        # 2 MB at 1 Mbps is 16 s.
        assert transfer.duration() >= 15.0

    def test_cut_through_not_store_and_forward(self):
        """The client leg starts receiving before the origin finishes."""
        sim, _leg, proxy, _socket = make_setup(origin_mbps=4.0)
        transfer = proxy.fetch(megabytes(4))
        sim.run(until=3.0)
        assert 0 < transfer.bytes_done < megabytes(4)
        assert transfer.available < megabytes(4)

    def test_sequential_fetches(self):
        sim, _leg, proxy, _socket = make_setup()
        order = []
        proxy.fetch(megabytes(1), tag="a",
                    on_complete=lambda t: order.append(t.tag))
        proxy.fetch(megabytes(1), tag="b",
                    on_complete=lambda t: order.append(t.tag))
        sim.run(until=60.0)
        assert order == ["a", "b"]

    def test_invalid_size_rejected(self):
        _sim, _leg, proxy, _socket = make_setup()
        with pytest.raises(ValueError):
            proxy.fetch(0)

    def test_close_stops_ticking(self):
        sim, leg, proxy, _socket = make_setup()
        proxy.close()
        leg.close()
        assert all(event.cancelled for event in sim._heap)


class TestMpDashThroughProxy:
    def test_mpdash_preference_works_unchanged(self):
        """The whole point of §8: MP-DASH on the client leg needs no origin
        cooperation — cellular stays off when WiFi meets the deadline."""
        sim, leg, proxy, socket = make_setup(origin_mbps=20.0, wifi=3.8,
                                             lte=3.0, mpdash=True)
        socket.mp_dash_enable(megabytes(2), 12.0)
        transfer = proxy.fetch(megabytes(2))
        sim.run(until=60.0)
        assert transfer.complete
        assert transfer.duration() <= 12.0
        assert transfer.per_path.get("cellular", 0.0) < megabytes(2) * 0.08

    def test_mpdash_tight_deadline_uses_cellular_through_proxy(self):
        sim, leg, proxy, socket = make_setup(origin_mbps=20.0, wifi=3.8,
                                             lte=3.0, mpdash=True)
        socket.mp_dash_enable(megabytes(5), 8.0)
        transfer = proxy.fetch(megabytes(5))
        sim.run(until=60.0)
        assert transfer.complete
        assert transfer.duration() <= 8.5
        assert transfer.per_path["cellular"] > 0

    def test_origin_is_single_path(self):
        """The origin leg is one vanilla TCP flow: all origin bytes arrive
        over exactly one path (the server needs no MPTCP, no MP-DASH)."""
        sim, _leg, proxy, _socket = make_setup()
        proxy.fetch(megabytes(2))
        sim.run(until=60.0)
        assert proxy.origin_bytes == pytest.approx(megabytes(2), rel=1e-6)
        assert proxy.origin_path.name == "origin"


class TestStreamingThroughProxy:
    def test_full_dash_session_behind_proxy(self):
        """End-to-end §8 story: a DASH player streams through the splitting
        proxy with MP-DASH on the client leg; the origin server is an
        unmodified single-path DashServer."""
        from repro.abr import Festive
        from repro.core.adapter import MpDashAdapter
        from repro.dash.http import HttpClient
        from repro.dash.player import DashPlayer
        from repro.dash.server import DashServer
        from repro.workloads import video_asset

        sim = Simulator()
        client_leg = MptcpConnection(sim, [wifi_path(bandwidth_mbps=3.8),
                                           cellular_path(bandwidth_mbps=3.0)])
        socket = MpDashSocket(client_leg, prefer_wifi())
        adapter = MpDashAdapter(socket, deadline_mode="rate")
        proxy = SplittingProxy(sim, origin(30.0), client_leg)

        server = DashServer()
        server.host(video_asset("big_buck_bunny", duration=120.0))
        client = HttpClient(client_leg, server.resolve, fetcher=proxy.fetch)
        player = DashPlayer(sim, client, server.manifest("big_buck_bunny"),
                            Festive(), addon=adapter)
        player.start()
        while not player.finished and sim.now < 400.0:
            sim.run(until=sim.now + 5.0)
        assert player.finished
        assert player.log.stall_count == 0
        # The origin leg carried every byte exactly once, single path.
        total = sum(c.size for c in player.log.chunks)
        assert proxy.origin_bytes == pytest.approx(total, rel=1e-6)
        # MP-DASH still avoided the cellular path on the client leg.
        cellular = client_leg.subflow("cellular").total_bytes
        assert cellular < 0.25 * total
