"""End-to-end tests for the DASH player (no MP-DASH involved)."""

import pytest

from repro.abr import Gpac, make_abr
from repro.dash.http import HttpClient
from repro.dash.media import VideoAsset
from repro.dash.player import DashPlayer
from repro.dash.server import DashServer
from repro.mptcp.connection import MptcpConnection
from repro.net.link import cellular_path, wifi_path
from repro.net.simulator import Simulator
from repro.obs.events import PlaybackEnded, PlaybackStarted
from repro.obs.trace_export import TraceRecorder


def make_session(wifi_mbps=8.0, lte_mbps=8.0, duration=60.0, abr=None,
                 bitrates=(1.0, 2.0, 4.0), buffer_capacity=24.0):
    sim = Simulator()
    conn = MptcpConnection(sim, [wifi_path(bandwidth_mbps=wifi_mbps),
                                 cellular_path(bandwidth_mbps=lte_mbps)])
    server = DashServer()
    server.host(VideoAsset.generate("movie", 4.0, duration,
                                    list(bitrates), seed=0))
    client = HttpClient(conn, server.resolve)
    player = DashPlayer(sim, client, server.manifest("movie"),
                        abr or Gpac(), buffer_capacity=buffer_capacity)
    return sim, conn, player


def run_to_end(sim, player, cap=600.0):
    while not player.finished and sim.now < cap:
        sim.run(until=sim.now + 5.0)


class TestHappyPath:
    def test_downloads_all_chunks(self):
        sim, _conn, player = make_session()
        player.start()
        run_to_end(sim, player)
        assert player.finished
        assert len(player.log.chunks) == player.manifest.num_chunks

    def test_no_stalls_on_fast_network(self):
        sim, _conn, player = make_session(wifi_mbps=20.0, lte_mbps=20.0)
        player.start()
        run_to_end(sim, player)
        assert player.log.stall_count == 0

    def test_playback_events_ordered(self):
        sim, _conn, player = make_session()
        recorder = TraceRecorder(sim.bus)
        player.start()
        run_to_end(sim, player)
        play = [e for e in recorder.events if type(e) is PlaybackStarted]
        end = [e for e in recorder.events if type(e) is PlaybackEnded]
        assert len(play) == 1 and len(end) == 1
        assert play[0].time < end[0].time
        assert player.log.started_at == play[0].time

    def test_plays_whole_video(self):
        sim, _conn, player = make_session(duration=40.0)
        player.start()
        run_to_end(sim, player)
        assert player.buffer.total_played == pytest.approx(40.0, abs=0.5)

    def test_reaches_top_level_on_fast_network(self):
        sim, _conn, player = make_session(wifi_mbps=20.0, lte_mbps=20.0,
                                          duration=120.0)
        player.start()
        run_to_end(sim, player)
        assert player.log.chunks[-1].level == 2

    def test_buffer_never_exceeds_capacity(self):
        sim, _conn, player = make_session(duration=120.0)
        player.start()
        run_to_end(sim, player)
        assert all(level <= player.buffer.capacity + 1e-9
                   for _t, level in player.buffer_samples)

    def test_chunk_records_carry_path_bytes(self):
        sim, _conn, player = make_session()
        player.start()
        run_to_end(sim, player)
        assert all(sum(c.bytes_per_path.values()) == pytest.approx(
            c.size, rel=0.01) for c in player.log.chunks)


class TestAdversity:
    def test_stalls_when_network_too_slow(self):
        """0.5 Mbps cannot sustain even the 1 Mbps lowest level."""
        sim, _conn, player = make_session(wifi_mbps=0.3, lte_mbps=0.3,
                                          duration=40.0)
        player.start()
        run_to_end(sim, player, cap=400.0)
        assert player.log.stall_count > 0

    def test_drops_to_lowest_level_when_starved(self):
        sim, _conn, player = make_session(wifi_mbps=0.8, lte_mbps=0.5,
                                          duration=60.0)
        player.start()
        run_to_end(sim, player, cap=400.0)
        tail_levels = [c.level for c in player.log.chunks[3:]]
        assert all(level == 0 for level in tail_levels)


class TestLifecycle:
    def test_double_start_rejected(self):
        sim, _conn, player = make_session()
        player.start()
        with pytest.raises(RuntimeError):
            player.start()

    def test_buffer_capacity_must_hold_two_chunks(self):
        sim = Simulator()
        conn = MptcpConnection(sim, [wifi_path(bandwidth_mbps=1.0)])
        server = DashServer()
        server.host(VideoAsset.generate("m", 4.0, 20.0, [1.0], seed=0))
        client = HttpClient(conn, server.resolve)
        with pytest.raises(ValueError):
            DashPlayer(sim, client, server.manifest("m"), Gpac(),
                       buffer_capacity=6.0)

    def test_all_abr_algorithms_complete_a_session(self):
        for name in ("gpac", "festive", "bba", "bba-c", "mpc"):
            sim, _conn, player = make_session(abr=make_abr(name),
                                              duration=60.0)
            player.start()
            run_to_end(sim, player)
            assert player.finished, name
