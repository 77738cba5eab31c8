"""Tests for the fluid TCP subflow model."""

import pytest

from repro.net.tcp import INITIAL_CWND, MIN_RTO, TcpState
from repro.net.units import PACKET_SIZE, mbps


RTT = 0.05
BW = mbps(10.0)


def advance_for(tcp, start, duration, bw, dt=0.01):
    """Drive the window forward while continuously sending."""
    t = start
    delivered = 0.0
    while t < start + duration - 1e-12:
        delivered += tcp.advance(t, dt, bw, sending=True)
        t += dt
    return delivered, t


class TestSlowStart:
    def test_starts_at_initial_window(self):
        tcp = TcpState(RTT)
        assert tcp.cwnd == INITIAL_CWND

    def test_window_roughly_doubles_per_rtt(self):
        tcp = TcpState(RTT)
        advance_for(tcp, 0.0, RTT, BW)
        assert tcp.cwnd == pytest.approx(2 * INITIAL_CWND, rel=0.1)

    def test_rate_capped_by_available_bandwidth(self):
        tcp = TcpState(RTT)
        advance_for(tcp, 0.0, 2.0, BW)  # plenty of time to saturate
        assert tcp.rate(BW) == pytest.approx(BW)

    def test_rate_capped_by_window(self):
        tcp = TcpState(RTT)
        assert tcp.rate(BW) == pytest.approx(INITIAL_CWND / RTT)

    def test_delivery_approaches_bandwidth_delay_product(self):
        tcp = TcpState(RTT)
        delivered, _ = advance_for(tcp, 0.0, 5.0, BW)
        # After the ramp the link should be nearly saturated.
        assert delivered >= 0.85 * BW * 5.0

    def test_invalid_rtt_rejected(self):
        with pytest.raises(ValueError):
            TcpState(0.0)


class TestCongestionAvoidance:
    def test_window_stops_at_queue_ceiling(self):
        tcp = TcpState(RTT)
        advance_for(tcp, 0.0, 10.0, BW)
        bdp = BW * RTT
        assert tcp.cwnd <= bdp * 1.3 + PACKET_SIZE

    def test_window_shrinks_when_bandwidth_drops(self):
        tcp = TcpState(RTT)
        _, t = advance_for(tcp, 0.0, 5.0, BW)
        high_cwnd = tcp.cwnd
        advance_for(tcp, t, 3.0, BW / 10.0)
        assert tcp.cwnd < high_cwnd
        assert tcp.rate(BW / 10.0) == pytest.approx(BW / 10.0)


class TestIdleRestart:
    def test_long_idle_decays_window(self):
        tcp = TcpState(RTT)
        _, t = advance_for(tcp, 0.0, 5.0, BW)
        saturated = tcp.cwnd
        # Idle for many RTOs, then resume.
        resume = t + 10.0
        tcp.advance(resume, 0.01, BW, sending=True)
        assert tcp.cwnd < saturated

    def test_short_gap_keeps_window(self):
        tcp = TcpState(RTT)
        _, t = advance_for(tcp, 0.0, 5.0, BW)
        saturated = tcp.cwnd
        tcp.advance(t + MIN_RTO / 2, 0.01, BW, sending=True)
        assert tcp.cwnd >= saturated * 0.9

    def test_idle_never_drops_below_initial_window(self):
        tcp = TcpState(RTT)
        advance_for(tcp, 0.0, 5.0, BW)
        tcp.advance(1e6, 0.01, BW, sending=True)
        assert tcp.cwnd >= INITIAL_CWND

    def test_restart_preview_is_what_sending_commits(self):
        # One rule: the pure preview, the committed window and the hook
        # agree on whether (and how far) the window restarted.
        restarts = []
        for gap in (MIN_RTO / 2, MIN_RTO * 1.25, 10.0, 1e6):
            tcp = TcpState(RTT)
            tcp.cwnd = 40.0 * INITIAL_CWND
            tcp.last_send_time = 1.0
            tcp.on_idle_restart = restarts.append
            preview = tcp.window_after_restart(1.0 + gap)
            # A zero-length span on a wide link commits only the restart.
            tcp.advance_analytic(1.0 + gap, 0.0, 1e9)
            assert (tcp.cwnd, tcp.ssthresh) == preview
        assert restarts == [1.0 + MIN_RTO * 1.25, 11.0, 1.0 + 1e6]

    def test_not_sending_delivers_nothing(self):
        tcp = TcpState(RTT)
        assert tcp.advance(0.0, 0.01, BW, sending=False) == 0.0


class TestReset:
    def test_reset_restores_initial_state(self):
        tcp = TcpState(RTT)
        advance_for(tcp, 0.0, 5.0, BW)
        tcp.reset()
        assert tcp.cwnd == INITIAL_CWND
        assert tcp.ssthresh == float("inf")
