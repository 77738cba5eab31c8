"""Tests for the MP-DASH socket-option API."""

import pytest

from repro.core.policy import prefer_cellular, prefer_wifi
from repro.core.socket_api import MpDashSocket
from repro.mptcp.connection import MptcpConnection
from repro.net.link import cellular_path, wifi_path
from repro.net.simulator import Simulator
from repro.net.units import megabytes


def make(preference=None, signaling_delay=0.0):
    sim = Simulator()
    paths = [wifi_path(bandwidth_mbps=8.0),
             cellular_path(bandwidth_mbps=8.0)]
    conn = MptcpConnection(sim, paths, signaling_delay=signaling_delay)
    socket = MpDashSocket(conn, preference or prefer_wifi())
    return sim, conn, socket


class TestInstallation:
    def test_installs_controller(self):
        _sim, conn, socket = make()
        assert conn.controller is socket.scheduler

    def test_sets_primary_to_preferred(self):
        _sim, conn, _socket = make(prefer_cellular())
        assert conn.primary.name == "cellular"

    def test_stamps_costs_on_paths(self):
        _sim, conn, _socket = make()
        assert conn.subflow("wifi").path.cost == 0.0
        assert conn.subflow("cellular").path.cost == 1.0

    def test_double_install_rejected(self):
        sim = Simulator()
        paths = [wifi_path(bandwidth_mbps=1.0),
                 cellular_path(bandwidth_mbps=1.0)]
        conn = MptcpConnection(sim, paths)
        MpDashSocket(conn, prefer_wifi())
        with pytest.raises(RuntimeError):
            MpDashSocket(conn, prefer_wifi())


class TestSocketOptions:
    def test_enable_then_transfer_controls_paths(self):
        sim, conn, socket = make()
        socket.mp_dash_enable(megabytes(2), 10.0)
        transfer = conn.start_transfer(megabytes(2))
        sim.run(until=30.0)
        assert transfer.complete
        assert transfer.per_path.get("cellular", 0.0) < megabytes(2) * 0.05

    def test_disable_reverts_to_vanilla(self):
        sim, conn, socket = make()
        socket.mp_dash_enable(megabytes(2), 30.0)
        socket.mp_dash_disable()
        transfer = conn.start_transfer(megabytes(2))
        sim.run(until=30.0)
        assert transfer.per_path["cellular"] > 0

    def test_disable_mid_transfer_restores_cellular(self):
        """§3.1: a deactivated connection is vanilla MPTCP — disabling
        mid-activation must request the costlier paths back on, not leave
        the connection wedged on whatever subset was last requested."""
        sim, conn, socket = make()
        # Generous deadline: the scheduler keeps cellular switched off.
        socket.mp_dash_enable(megabytes(8), 30.0)
        conn.start_transfer(megabytes(8))
        sim.run(until=1.0)
        assert conn.path_state("cellular") is False
        socket.mp_dash_disable()
        assert conn.path_state("cellular") is True
        assert conn.path_state("wifi") is True
        assert not socket.active

    def test_active_reflects_activation(self):
        sim, conn, socket = make()
        assert not socket.active
        socket.mp_dash_enable(megabytes(1), 10.0)
        conn.start_transfer(megabytes(1))
        sim.run(until=0.2)
        assert socket.active
        sim.run(until=30.0)
        assert not socket.active

    def test_enable_validates(self):
        _sim, _conn, socket = make()
        with pytest.raises(ValueError):
            socket.mp_dash_enable(0, 10.0)


class TestCrossLayerReads:
    def test_aggregate_throughput_exposed(self):
        sim, conn, socket = make()
        conn.start_transfer(megabytes(5))
        sim.run(until=10.0)
        aggregate = socket.aggregate_throughput()
        assert aggregate is not None
        assert aggregate == pytest.approx(
            conn.aggregate_throughput_estimate())
