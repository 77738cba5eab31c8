"""Tests for session metrics."""

import pytest

from repro.analysis.metrics import (SessionMetrics, bitrate_reduction,
                                    compute_metrics, path_utilization,
                                    savings)
from repro.dash.events import ChunkRecord, PlayerEventLog
from repro.energy.model import EnergyBreakdown
from repro.mptcp.activity import ActivityLog
from repro.obs.bus import EventBus
from repro.obs.events import PlaybackStarted, StallEnd, StallStart


def chunk(index, level=2, wifi=800_000.0, cellular=200_000.0):
    size = wifi + cellular
    return ChunkRecord(index=index, level=level, size=size, duration=4.0,
                       requested_at=index * 4.0,
                       completed_at=index * 4.0 + 2.0,
                       throughput=size / 2.0,
                       bytes_per_path={"wifi": wifi, "cellular": cellular})


def make_log(num_chunks=10, bus=None):
    log = PlayerEventLog()
    if bus is None:
        bus = EventBus()
    log.attach(bus)
    bus.publish(PlaybackStarted(2.0))
    for i in range(num_chunks):
        log.record_chunk(chunk(i, level=i % 3))
    return log


ENERGY = {"wifi": EnergyBreakdown(active=10.0),
          "cellular": EnergyBreakdown(active=30.0, tail=10.0),
          "total": EnergyBreakdown(active=40.0, tail=10.0)}


class TestComputeMetrics:
    def test_bytes_aggregated_per_path(self):
        metrics = compute_metrics(make_log(), ENERGY, 60.0)
        assert metrics.wifi_bytes == pytest.approx(8_000_000)
        assert metrics.cellular_bytes == pytest.approx(2_000_000)
        assert metrics.cellular_fraction == pytest.approx(0.2)

    def test_energy_extracted(self):
        metrics = compute_metrics(make_log(), ENERGY, 60.0)
        assert metrics.radio_energy == pytest.approx(50.0)
        assert metrics.cellular_energy == pytest.approx(40.0)

    def test_steady_state_skips_head(self):
        metrics = compute_metrics(make_log(10), ENERGY, 60.0,
                                  steady_state_fraction=0.2)
        assert metrics.chunk_count == 8

    def test_mean_bitrate_from_sizes(self):
        metrics = compute_metrics(make_log(), ENERGY, 60.0)
        assert metrics.mean_bitrate == pytest.approx(1_000_000 / 4.0)
        assert metrics.mean_bitrate_mbps == pytest.approx(2.0)

    def test_startup_delay(self):
        metrics = compute_metrics(make_log(), ENERGY, 60.0)
        assert metrics.startup_delay == pytest.approx(2.0)

    def test_stall_accounting(self):
        bus = EventBus()
        log = make_log(bus=bus)
        bus.publish(StallStart(10.0))
        bus.publish(StallEnd(12.5))
        metrics = compute_metrics(log, ENERGY, 60.0)
        assert metrics.stall_count == 1
        assert metrics.total_stall_time == pytest.approx(2.5)

    def test_quality_switches_counted_on_kept_chunks(self):
        metrics = compute_metrics(make_log(6), ENERGY, 60.0)
        # Levels cycle 0,1,2,0,1,2: five switches.
        assert metrics.quality_switches == 5

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics(make_log(), ENERGY, 60.0,
                            steady_state_fraction=1.0)

    def test_empty_log(self):
        metrics = compute_metrics(PlayerEventLog(), ENERGY, 60.0)
        assert metrics.total_bytes == 0.0
        assert metrics.mean_bitrate == 0.0
        assert metrics.startup_delay is None


class TestDerived:
    def test_savings(self):
        assert savings(100.0, 25.0) == pytest.approx(0.75)
        assert savings(100.0, 150.0) == pytest.approx(-0.5)
        assert savings(0.0, 10.0) == 0.0

    def test_bitrate_reduction(self):
        base = SessionMetrics(mean_bitrate=1000.0)
        worse = SessionMetrics(mean_bitrate=900.0)
        better = SessionMetrics(mean_bitrate=1100.0)
        assert bitrate_reduction(base, worse) == pytest.approx(0.1)
        assert bitrate_reduction(base, better) == pytest.approx(-0.1)

    def test_path_utilization(self):
        log = ActivityLog(1.0)
        for t in (0.5, 1.5, 2.5):
            log.record(t, "wifi", 100.0)
        assert path_utilization(log, "wifi", 10.0) == pytest.approx(0.3)

    def test_path_utilization_validates(self):
        with pytest.raises(ValueError):
            path_utilization(ActivityLog(), "wifi", 0.0)
