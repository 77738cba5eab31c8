"""Tests for the binned activity log."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mptcp.activity import ActivityLog


class TestRecording:
    def test_total_bytes_accumulate(self):
        log = ActivityLog(0.1)
        log.record(0.05, "wifi", 100.0)
        log.record(0.07, "wifi", 50.0)
        assert log.total_bytes("wifi") == 150.0

    def test_paths_sorted(self):
        log = ActivityLog()
        log.record(0.0, "wifi", 1.0)
        log.record(0.0, "cellular", 1.0)
        assert log.paths() == ["cellular", "wifi"]

    def test_zero_bytes_ignored(self):
        log = ActivityLog()
        log.record(0.0, "wifi", 0.0)
        assert log.paths() == []

    def test_invalid_bin_width_rejected(self):
        with pytest.raises(ValueError):
            ActivityLog(0.0)


class TestSeries:
    def test_series_fills_gaps_with_zeros(self):
        log = ActivityLog(1.0)
        log.record(0.5, "wifi", 10.0)
        log.record(3.5, "wifi", 20.0)
        times, values = log.series("wifi")
        assert times == [0.0, 1.0, 2.0, 3.0]
        assert values == [10.0, 0.0, 0.0, 20.0]

    def test_series_until_extends_horizon(self):
        log = ActivityLog(1.0)
        log.record(0.5, "wifi", 10.0)
        times, values = log.series("wifi", until=3.0)
        assert len(times) == 4
        assert values == [10.0, 0.0, 0.0, 0.0]

    def test_empty_series(self):
        log = ActivityLog(1.0)
        assert log.series("wifi") == ([], [])

    def test_throughput_series_scales_by_width(self):
        log = ActivityLog(0.5)
        log.record(0.1, "wifi", 100.0)
        _times, rates = log.throughput_series("wifi")
        assert rates[0] == pytest.approx(200.0)


class TestActiveWindows:
    def test_contiguous_bins_merge(self):
        log = ActivityLog(1.0)
        log.record(0.5, "wifi", 1.0)
        log.record(1.5, "wifi", 1.0)
        assert log.active_windows("wifi", idle_threshold=0.0) == [(0.0, 2.0)]

    def test_gap_splits_windows(self):
        log = ActivityLog(1.0)
        log.record(0.5, "wifi", 1.0)
        log.record(5.5, "wifi", 1.0)
        windows = log.active_windows("wifi", idle_threshold=1.0)
        assert windows == [(0.0, 1.0), (5.0, 6.0)]

    def test_gap_within_threshold_merges(self):
        log = ActivityLog(1.0)
        log.record(0.5, "wifi", 1.0)
        log.record(5.5, "wifi", 1.0)
        windows = log.active_windows("wifi", idle_threshold=10.0)
        assert windows == [(0.0, 6.0)]

    def test_no_activity_no_windows(self):
        assert ActivityLog().active_windows("wifi", 1.0) == []


class TestProperties:
    @given(st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.001, max_value=1e6)), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_total_bytes_preserved(self, events):
        log = ActivityLog(0.1)
        for t, b in events:
            log.record(t, "wifi", b)
        _times, values = log.series("wifi")
        assert sum(values) == pytest.approx(sum(b for _, b in events))
        assert log.total_bytes("wifi") == pytest.approx(
            sum(b for _, b in events))
