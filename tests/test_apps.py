"""Tests for the §8 delay-tolerant applications (music, navigation)."""

import pytest

from repro.apps import (MusicPrefetcher, NavigationPrefetcher,
                        PlaylistTrack, RouteTile)
from repro.core.policy import prefer_wifi
from repro.core.socket_api import MpDashSocket
from repro.mptcp.connection import MptcpConnection
from repro.net.link import cellular_path, wifi_path
from repro.net.simulator import Simulator
from repro.net.units import megabytes


def make_transport(wifi=4.0, lte=4.0, mpdash=True):
    sim = Simulator()
    connection = MptcpConnection(sim, [wifi_path(bandwidth_mbps=wifi),
                                       cellular_path(bandwidth_mbps=lte)])
    socket = MpDashSocket(connection, prefer_wifi()) if mpdash else None
    return sim, connection, socket


def run(sim, app, cap=600.0):
    app.start()
    while not app.finished and sim.now < cap:
        sim.run(until=sim.now + 5.0)


PLAYLIST = [
    PlaylistTrack("intro", megabytes(4), 40.0),
    PlaylistTrack("song-a", megabytes(8), 60.0),
    PlaylistTrack("song-b", megabytes(7), 55.0),
    PlaylistTrack("outro", megabytes(5), 45.0),
]


class TestMusicPrefetcher:
    def test_plays_whole_playlist(self):
        sim, connection, socket = make_transport()
        app = MusicPrefetcher(sim, connection, socket, PLAYLIST)
        run(sim, app)
        assert app.finished
        assert len(app.results) == len(PLAYLIST)
        assert app.stall_time == 0.0

    def test_prefetches_arrive_on_time(self):
        sim, connection, socket = make_transport()
        app = MusicPrefetcher(sim, connection, socket, PLAYLIST)
        run(sim, app)
        assert app.prefetches_on_time() == len(PLAYLIST) - 1

    def test_mpdash_avoids_cellular_when_wifi_suffices(self):
        sim, connection, socket = make_transport(wifi=4.0, lte=4.0)
        app = MusicPrefetcher(sim, connection, socket, PLAYLIST)
        run(sim, app)
        baseline_sim, baseline_conn, _ = make_transport(mpdash=False)
        baseline = MusicPrefetcher(baseline_sim, baseline_conn, None,
                                   PLAYLIST)
        run(baseline_sim, baseline)
        # WiFi at 4 Mbps delivers an 8 MB track in ~16 s against a ~54 s
        # deadline: MP-DASH needs almost no cellular; vanilla splits ~50/50.
        assert app.cellular_bytes < 0.2 * baseline.cellular_bytes
        assert baseline.cellular_bytes > megabytes(5)

    def test_first_track_fetched_in_foreground(self):
        sim, connection, socket = make_transport()
        app = MusicPrefetcher(sim, connection, socket, PLAYLIST)
        run(sim, app)
        # Foreground fetch uses every path (no deadline to exploit).
        assert app.results[0].bytes_per_path.get("cellular", 0.0) > 0

    def test_slow_network_causes_stall_not_deadlock(self):
        sim, connection, socket = make_transport(wifi=0.4, lte=0.4)
        playlist = [PlaylistTrack("a", megabytes(3), 10.0),
                    PlaylistTrack("b", megabytes(6), 10.0)]
        app = MusicPrefetcher(sim, connection, socket, playlist)
        run(sim, app, cap=300.0)
        assert app.finished
        assert app.stall_time > 0

    def test_validation(self):
        sim, connection, socket = make_transport()
        with pytest.raises(ValueError):
            MusicPrefetcher(sim, connection, socket, [])
        with pytest.raises(ValueError):
            MusicPrefetcher(sim, connection, socket, PLAYLIST, safety=0.0)
        with pytest.raises(ValueError):
            PlaylistTrack("x", 0, 10.0)


ROUTE = [RouteTile(f"tile-{i}", megabytes(2), 400.0 * (i + 1))
         for i in range(8)]


class TestNavigationPrefetcher:
    def test_fetches_whole_route(self):
        sim, connection, socket = make_transport()
        app = NavigationPrefetcher(sim, connection, socket, ROUTE,
                                   speed=15.0)
        run(sim, app)
        assert app.finished
        assert len(app.results) == len(ROUTE)

    def test_tiles_arrive_before_vehicle(self):
        sim, connection, socket = make_transport()
        app = NavigationPrefetcher(sim, connection, socket, ROUTE,
                                   speed=15.0)
        run(sim, app)
        assert app.tiles_on_time() == len(ROUTE)

    def test_mpdash_offloads_to_preferred_path(self):
        sim, connection, socket = make_transport()
        app = NavigationPrefetcher(sim, connection, socket, ROUTE,
                                   speed=15.0)
        run(sim, app)
        baseline_sim, baseline_conn, _ = make_transport(mpdash=False)
        baseline = NavigationPrefetcher(baseline_sim, baseline_conn, None,
                                        ROUTE, speed=15.0)
        run(baseline_sim, baseline)
        assert app.cellular_bytes < 0.3 * baseline.cellular_bytes

    def test_fast_vehicle_needs_cellular(self):
        """Outrunning WiFi: deadlines tighten and cellular kicks in."""
        slow_sim, slow_conn, slow_socket = make_transport(wifi=2.0, lte=8.0)
        relaxed = NavigationPrefetcher(slow_sim, slow_conn, slow_socket,
                                       ROUTE, speed=10.0)
        run(slow_sim, relaxed)
        fast_sim, fast_conn, fast_socket = make_transport(wifi=2.0, lte=8.0)
        rushed = NavigationPrefetcher(fast_sim, fast_conn, fast_socket,
                                      ROUTE, speed=40.0)
        run(fast_sim, rushed)
        assert rushed.cellular_bytes > relaxed.cellular_bytes

    def test_route_sorted_by_distance(self):
        sim, connection, socket = make_transport()
        shuffled = list(reversed(ROUTE))
        app = NavigationPrefetcher(sim, connection, socket, shuffled,
                                   speed=15.0)
        assert [t.distance for t in app.route] == sorted(
            t.distance for t in ROUTE)

    def test_validation(self):
        sim, connection, socket = make_transport()
        with pytest.raises(ValueError):
            NavigationPrefetcher(sim, connection, socket, [], speed=10.0)
        with pytest.raises(ValueError):
            NavigationPrefetcher(sim, connection, socket, ROUTE, speed=0.0)
        with pytest.raises(ValueError):
            NavigationPrefetcher(sim, connection, socket, ROUTE,
                                 speed=10.0, lookahead=-1.0)
        with pytest.raises(ValueError):
            RouteTile("x", -1.0, 100.0)
