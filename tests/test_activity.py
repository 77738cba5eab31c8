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

    def test_bytes_between(self):
        log = ActivityLog(1.0)
        for t in range(5):
            log.record(t + 0.5, "wifi", 10.0)
        # [1, 3) holds the bins at 1 s and 2 s, not the one starting at 3 s.
        assert log.bytes_between("wifi", 1.0, 3.0) == pytest.approx(20.0)

    def test_bytes_between_end_off_bin_boundary(self):
        log = ActivityLog(1.0)
        for t, num_bytes in enumerate((10.0, 20.0, 30.0, 40.0)):
            log.record(t + 0.5, "wifi", num_bytes)
        assert log.bytes_between("wifi", 1.0, 3.0) == pytest.approx(50.0)
        # end = 2.5 falls inside the bin [2, 3), which record() files under
        # index 2; like the bin at exactly end, it is excluded here and
        # counted by the window that starts at 2.5 instead.
        assert log.bytes_between("wifi", 1.0, 2.5) == pytest.approx(20.0)
        assert log.bytes_between("wifi", 0.5, 2.5) == pytest.approx(30.0)
        assert log.bytes_between("wifi", 2.5, 3.0) == pytest.approx(30.0)

    @given(times=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=40),
           cuts=st.lists(st.floats(0.0, 25.0), min_size=2, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_bytes_between_adjacent_windows_partition(self, times, cuts):
        log = ActivityLog(0.1)
        for t in times:
            log.record(t, "wifi", 1.0)
        cuts = sorted(cuts)
        pieces = sum(log.bytes_between("wifi", a, b)
                     for a, b in zip(cuts, cuts[1:]))
        assert pieces == pytest.approx(
            log.bytes_between("wifi", cuts[0], cuts[-1]))

    @pytest.mark.parametrize("path, start, end, expected", [
        ("wifi", 0.0, 4.0, 100.0),  # every bin
        ("wifi", 0.0, 10.0, 100.0),  # window past the last bin
        ("wifi", 2.0, 2.0, 0.0),  # empty window
        ("wifi", 3.0, 1.0, 0.0),  # reversed window
        ("wifi", 4.0, 9.0, 0.0),  # after the last bin
        ("wifi", 3.0, 4.0, 40.0),  # exactly the last bin
        ("cellular", 0.0, 4.0, 5.0),  # paths never mix
        ("bluetooth", 0.0, 4.0, 0.0),  # unknown path
    ])
    def test_bytes_between_windows(self, path, start, end, expected):
        log = ActivityLog(1.0)
        for t, num_bytes in enumerate((10.0, 20.0, 30.0, 40.0)):
            log.record(t + 0.5, "wifi", num_bytes)
        log.record(1.5, "cellular", 5.0)
        assert log.bytes_between(path, start, end) == pytest.approx(
            expected)

    @given(times=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=40),
           until=st.floats(0.0, 25.0))
    @settings(max_examples=100, deadline=None)
    def test_bytes_between_matches_series_prefix(self, times, until):
        log = ActivityLog(0.25)
        for t in times:
            log.record(t, "wifi", 1.0)
        stop = int(until / log.bin_width)
        _times, values = log.series("wifi", until=25.0)
        assert log.bytes_between("wifi", 0.0, until) == pytest.approx(
            sum(values[:stop]))

    def test_bytes_between_empty_window(self):
        log = ActivityLog(1.0)
        log.record(0.5, "wifi", 10.0)
        assert log.bytes_between("wifi", 5.0, 5.0) == 0.0


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
