"""Tests for the symmetric preference (§3.2): prefer cellular over WiFi.

The paper's prototype supports two policies; the common one (WiFi first)
is exercised everywhere else, so these tests pin the symmetric case — a
moving user who prefers the stable cellular link and wants WiFi used only
under deadline pressure.
"""

import pytest

from repro.core.policy import prefer_cellular
from repro.core.socket_api import MpDashSocket
from repro.experiments import SessionConfig, run_session
from repro.mptcp.connection import MptcpConnection
from repro.net.link import cellular_path, wifi_path
from repro.net.simulator import Simulator
from repro.net.units import megabytes
from repro.obs.events import MpDashArmed, MpDashSkipped


def make_connection(wifi=3.0, lte=3.8):
    sim = Simulator()
    connection = MptcpConnection(sim, [wifi_path(bandwidth_mbps=wifi),
                                       cellular_path(bandwidth_mbps=lte)])
    socket = MpDashSocket(connection, prefer_cellular())
    return sim, connection, socket


class TestPreferCellular:
    def test_primary_becomes_cellular(self):
        _sim, connection, _socket = make_connection()
        assert connection.primary.name == "cellular"

    def test_costs_inverted(self):
        _sim, connection, _socket = make_connection()
        assert connection.subflow("cellular").path.cost < \
            connection.subflow("wifi").path.cost

    def test_wifi_avoided_when_cellular_meets_deadline(self):
        sim, connection, socket = make_connection(wifi=3.0, lte=3.8)
        socket.mp_dash_enable(megabytes(2), 10.0)
        transfer = connection.start_transfer(megabytes(2))
        sim.run(until=30.0)
        assert transfer.complete
        assert transfer.per_path.get("wifi", 0.0) < megabytes(2) * 0.05

    def test_wifi_assists_under_tight_deadline(self):
        sim, connection, socket = make_connection(wifi=3.0, lte=3.8)
        # 5 MB over cellular alone needs ~10.5 s.
        socket.mp_dash_enable(megabytes(5), 8.0)
        transfer = connection.start_transfer(megabytes(5))
        sim.run(until=30.0)
        assert transfer.complete
        assert transfer.finished_at - transfer.started_at <= 8.5
        assert transfer.per_path["wifi"] > 0


class TestArmedEvents:
    def test_player_logs_armed_and_skipped(self):
        result = run_session(SessionConfig(
            video="big_buck_bunny", abr="festive", mpdash=True,
            deadline_mode="rate", wifi_mbps=6.0, lte_mbps=4.0,
            video_duration=80.0, record_trace=True))
        chunks = result.player.log.chunks
        armed = [e for e in result.events if type(e) is MpDashArmed]
        skipped = [e for e in result.events if type(e) is MpDashSkipped]
        assert len(armed) + len(skipped) == len(chunks)
        # Startup chunks are skipped, steady-state ones armed.
        assert skipped, "initial buffering should skip MP-DASH"
        assert len(armed) > len(skipped)
        # Armed events carry the deadline the adapter computed, and each
        # armed chunk's record carries the same one.
        assert all(e.deadline > 0 for e in armed)
        deadlines = {c.index: c.deadline for c in chunks}
        assert all(deadlines[e.index] == e.deadline for e in armed)
        assert all(deadlines[e.index] is None for e in skipped)

    def test_baseline_sessions_log_no_mpdash_events(self):
        result = run_session(SessionConfig(
            video="big_buck_bunny", abr="festive", mpdash=False,
            wifi_mbps=6.0, lte_mbps=4.0, video_duration=60.0,
            record_trace=True))
        chunks = result.player.log.chunks
        assert not any(type(e) is MpDashArmed for e in result.events)
        assert sum(type(e) is MpDashSkipped
                   for e in result.events) == len(chunks)
        assert all(c.deadline is None for c in chunks)
