"""Tests for the player event log."""

import pytest

from repro.dash.events import ChunkRecord, PlayerEventLog
from repro.obs.bus import EventBus
from repro.obs.events import StallEnd, StallStart


def make_chunk(index=0, level=0, cellular=0.0, wifi=100.0):
    return ChunkRecord(index=index, level=level, size=wifi + cellular,
                       duration=4.0, requested_at=index * 4.0,
                       completed_at=index * 4.0 + 2.0, throughput=1000.0,
                       bytes_per_path={"wifi": wifi, "cellular": cellular})


def attached_log():
    """A log attached to a fresh bus, and the bus's publish."""
    bus = EventBus()
    log = PlayerEventLog()
    log.attach(bus)
    return log, bus.publish


class TestEvents:
    def test_stall_pairing(self):
        log, publish = attached_log()
        publish(StallStart(5.0))
        publish(StallEnd(7.5))
        assert log.stall_count == 1
        assert log.total_stall_time == pytest.approx(2.5)

    def test_unmatched_stall_end_leaves_no_stall(self):
        log, publish = attached_log()
        publish(StallEnd(1.0))
        assert log.stall_count == 0

    def test_close_ends_open_stall(self):
        log, publish = attached_log()
        publish(StallStart(5.0))
        log.close(9.0)
        assert log.stall_count == 1
        assert log.total_stall_time == pytest.approx(4.0)

    def test_close_without_open_stall_is_noop(self):
        log = PlayerEventLog()
        log.close(10.0)
        assert log.stall_count == 0


class TestChunks:
    def test_quality_switch_count(self):
        log = PlayerEventLog()
        for level in [0, 0, 1, 1, 0, 2]:
            log.record_chunk(make_chunk(level=level))
        assert log.quality_switches() == 3

    def test_fraction_on(self):
        chunk = make_chunk(cellular=25.0, wifi=75.0)
        assert chunk.fraction_on("cellular") == pytest.approx(0.25)
        assert chunk.fraction_on("wifi") == pytest.approx(0.75)

    def test_fraction_on_empty_chunk(self):
        chunk = ChunkRecord(index=0, level=0, size=0.0, duration=4.0,
                            requested_at=0.0, completed_at=1.0,
                            throughput=0.0)
        assert chunk.fraction_on("wifi") == 0.0

    def test_download_time(self):
        chunk = make_chunk(index=3)
        assert chunk.download_time == pytest.approx(2.0)
