"""Tests for the MPTCP connection."""

import pytest

from repro.mptcp.connection import MptcpConnection, PathController
from repro.net.link import cellular_path, wifi_path
from repro.net.simulator import Simulator
from repro.net.units import mbps, megabytes


def make_connection(sim, wifi=8.0, lte=8.0, **kwargs):
    paths = [wifi_path(bandwidth_mbps=wifi), cellular_path(bandwidth_mbps=lte)]
    return MptcpConnection(sim, paths, **kwargs)


class TestTransfers:
    def test_transfer_completes(self):
        sim = Simulator()
        conn = make_connection(sim)
        done = []
        conn.start_transfer(megabytes(1), tag="t",
                            on_complete=lambda t: done.append(sim.now))
        sim.run(until=30.0)
        assert len(done) == 1

    def test_transfer_time_close_to_fluid_bound(self):
        """1 MB over 8+8 Mbps should take about 0.5s plus ramp and RTT."""
        sim = Simulator()
        conn = make_connection(sim)
        transfer = conn.start_transfer(megabytes(1))
        sim.run(until=30.0)
        assert transfer.complete
        assert 0.5 <= transfer.duration() <= 2.0

    def test_bytes_split_across_paths(self):
        sim = Simulator()
        conn = make_connection(sim)
        transfer = conn.start_transfer(megabytes(5))
        sim.run(until=60.0)
        assert transfer.per_path["wifi"] > 0
        assert transfer.per_path["cellular"] > 0
        assert transfer.bytes_done == pytest.approx(megabytes(5), abs=10.0)

    def test_request_latency_one_rtt(self):
        sim = Simulator()
        conn = make_connection(sim)
        transfer = conn.start_transfer(megabytes(1))
        sim.run(until=30.0)
        # Data began flowing one primary RTT after the request.
        assert transfer.started_at == pytest.approx(
            transfer.requested_at + conn.primary.path.rtt, abs=0.02)

    def test_transfers_queue_sequentially(self):
        sim = Simulator()
        conn = make_connection(sim)
        order = []
        conn.start_transfer(megabytes(1), tag="a",
                            on_complete=lambda t: order.append(t.tag))
        conn.start_transfer(megabytes(1), tag="b",
                            on_complete=lambda t: order.append(t.tag))
        sim.run(until=60.0)
        assert order == ["a", "b"]

    def test_invalid_size_rejected(self):
        sim = Simulator()
        conn = make_connection(sim)
        with pytest.raises(ValueError):
            conn.start_transfer(0)

    def test_disabled_path_carries_nothing(self):
        sim = Simulator()
        conn = make_connection(sim, lte=8.0)
        conn.request_path_state("cellular", False)
        sim.run(until=1.0)  # let the signal take effect
        transfer = conn.start_transfer(megabytes(1))
        sim.run(until=30.0)
        assert transfer.per_path.get("cellular", 0.0) == 0.0
        assert transfer.complete

    def test_close_stops_ticking(self):
        sim = Simulator()
        conn = make_connection(sim)
        conn.close()
        assert all(event.cancelled for event in sim._heap)


class TestPathControl:
    def test_state_change_delayed_by_signaling(self):
        sim = Simulator()
        conn = make_connection(sim, signaling_delay=0.2)
        conn.request_path_state("cellular", False)
        assert conn.path_state("cellular") is True
        sim.run(until=0.3)
        assert conn.path_state("cellular") is False

    def test_zero_signaling_is_instant(self):
        sim = Simulator()
        conn = make_connection(sim, signaling_delay=0.0)
        conn.request_path_state("cellular", False)
        assert conn.path_state("cellular") is False

    def test_unknown_path_rejected(self):
        sim = Simulator()
        conn = make_connection(sim)
        with pytest.raises(KeyError):
            conn.request_path_state("bluetooth", True)
        with pytest.raises(KeyError):
            conn.subflow("bluetooth")

    def test_duplicate_path_names_rejected(self):
        sim = Simulator()
        paths = [wifi_path(bandwidth_mbps=1.0), wifi_path(bandwidth_mbps=2.0)]
        with pytest.raises(ValueError):
            MptcpConnection(sim, paths)

    def test_needs_at_least_one_path(self):
        with pytest.raises(ValueError):
            MptcpConnection(Simulator(), [])


class TestEstimates:
    def test_aggregate_estimate_sums_paths(self):
        sim = Simulator()
        conn = make_connection(sim, wifi=8.0, lte=4.0)
        conn.start_transfer(megabytes(10))
        sim.run(until=10.0)
        aggregate = conn.aggregate_throughput_estimate()
        assert aggregate == pytest.approx(mbps(12.0), rel=0.15)

    def test_estimate_none_before_traffic(self):
        sim = Simulator()
        conn = make_connection(sim)
        assert conn.aggregate_throughput_estimate() is None
        assert conn.throughput_estimate("wifi") is None

    def test_disabled_path_estimate_frozen_not_lost(self):
        sim = Simulator()
        conn = make_connection(sim, wifi=8.0, lte=4.0)
        conn.start_transfer(megabytes(5))
        sim.run(until=10.0)
        before = conn.throughput_estimate("cellular")
        conn.request_path_state("cellular", False)
        conn.start_transfer(megabytes(2))
        sim.run(until=20.0)
        assert conn.throughput_estimate("cellular") == before


class RecordingController(PathController):
    def __init__(self):
        self.started = []
        self.completed = []
        self.ticks = 0

    def on_tick(self, now, transfer, connection):
        self.ticks += 1
        return None

    def on_transfer_start(self, now, transfer, connection):
        self.started.append(transfer.id)

    def on_transfer_complete(self, now, transfer, connection):
        self.completed.append(transfer.id)


class TestControllerHooks:
    def test_controller_sees_lifecycle(self):
        sim = Simulator()
        conn = make_connection(sim)
        controller = RecordingController()
        conn.controller = controller
        transfer = conn.start_transfer(megabytes(1))
        sim.run(until=30.0)
        assert controller.started == [transfer.id]
        assert controller.completed == [transfer.id]
        assert controller.ticks > 0

    def test_controller_decisions_applied(self):
        class DisableCellular(PathController):
            def on_tick(self, now, transfer, connection):
                return {"cellular": False}

        sim = Simulator()
        conn = make_connection(sim)
        conn.controller = DisableCellular()
        transfer = conn.start_transfer(megabytes(2))
        sim.run(until=60.0)
        # Cellular may carry a sliver before the first decision lands.
        assert transfer.per_path.get("cellular", 0.0) < megabytes(2) * 0.1
        assert transfer.complete


class TestTransferAccessors:
    def test_fraction_on(self):
        sim = Simulator()
        conn = make_connection(sim, wifi=6.0, lte=2.0)
        transfer = conn.start_transfer(megabytes(4))
        sim.run(until=60.0)
        total = sum(transfer.fraction_on(p) for p in ("wifi", "cellular"))
        assert total == pytest.approx(1.0)
        assert transfer.fraction_on("wifi") > transfer.fraction_on("cellular")

    def test_throughput_reported(self):
        sim = Simulator()
        conn = make_connection(sim)
        transfer = conn.start_transfer(megabytes(1))
        sim.run(until=30.0)
        assert transfer.throughput() == pytest.approx(
            transfer.total_bytes / transfer.duration())
