"""Tests for the subflow teardown/re-establish alternative (§6).

MP-DASH deliberately "disables" a subflow by skipping it in the scheduler
rather than removing it, so re-enabling is free.  The alternative — adding
and removing the subflow, as eMPTCP-style designs do — pays a handshake
delay and a congestion restart per re-enable.  These tests pin both
semantics and their difference.
"""

import pytest

from repro.experiments import FileDownloadConfig, run_file_download
from repro.mptcp.connection import MptcpConnection
from repro.mptcp.subflow import Subflow
from repro.net.link import Path, cellular_path, wifi_path
from repro.net.simulator import Simulator
from repro.net.trace import BandwidthTrace
from repro.net.units import megabytes, mbps


def toggling_connection(reestablish):
    sim = Simulator()
    conn = MptcpConnection(
        sim, [wifi_path(bandwidth_mbps=4.0),
              cellular_path(bandwidth_mbps=4.0)],
        signaling_delay=0.0, subflow_reestablish=reestablish)
    return sim, conn


class TestSubflowSemantics:
    def test_skip_semantics_reenable_is_free(self):
        sim, conn = toggling_connection(reestablish=False)
        subflow = conn.subflow("cellular")
        conn.request_path_state("cellular", False)
        sim.run(until=1.0)
        conn.request_path_state("cellular", True)
        sim.run(until=1.05)
        assert subflow._usable(sim.now)
        assert subflow.reconnects == 0

    def test_reestablish_pays_handshake(self):
        sim, conn = toggling_connection(reestablish=True)
        subflow = conn.subflow("cellular")
        conn.request_path_state("cellular", False)
        sim.run(until=1.0)
        conn.request_path_state("cellular", True)
        sim.run(until=1.02)
        # Within the handshake window the subflow is not usable.
        assert not subflow._usable(sim.now)
        sim.run(until=1.2)  # 1.5 * 55 ms RTT has elapsed
        assert subflow._usable(sim.now)
        assert subflow.reconnects == 1

    def test_reestablish_resets_congestion_window(self):
        sim, conn = toggling_connection(reestablish=True)
        subflow = conn.subflow("cellular")
        conn.start_transfer(megabytes(3))
        sim.run(until=5.0)
        grown = subflow.tcp.cwnd
        conn.request_path_state("cellular", False)
        sim.run(until=6.0)
        conn.request_path_state("cellular", True)
        sim.run(until=6.1)
        assert subflow.tcp.cwnd < grown

    def test_negative_reconnect_delay_rejected(self):
        path = Path("x", BandwidthTrace.constant(mbps(1.0)), rtt=0.05)
        with pytest.raises(ValueError):
            Subflow(path, reconnect_delay=-1.0)


class TestEndToEndCost:
    def test_reestablish_never_beats_skip_on_deadline_slack(self):
        """Same MP-DASH download under both semantics: teardown finishes
        no earlier and reconnects at least once when cellular is needed."""
        results = {}
        for reestablish in (False, True):
            results[reestablish] = run_file_download(FileDownloadConfig(
                size=megabytes(5), deadline=8.0, wifi_mbps=3.8,
                lte_mbps=3.0, subflow_reestablish=reestablish))
        assert not results[False].missed_deadline
        assert not results[True].missed_deadline
        assert results[True].duration >= results[False].duration - 0.05

    def test_reconnect_count_exposed(self):
        result = run_file_download(FileDownloadConfig(
            size=megabytes(5), deadline=8.0, wifi_mbps=3.8, lte_mbps=3.0,
            subflow_reestablish=True))
        # Cellular was disabled at arm time and re-enabled at least once
        # under deadline pressure.
        assert result.cellular_bytes > 0
