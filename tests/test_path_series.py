"""The report's per-path throughput series, drawn from filled bins.

``_throughput_points`` must keep the very points the dense expression
kept: ``_downsample`` over every bin of ``throughput_timeline`` in
Mbit/s, empty bins as zeros.  Points are compared by ``repr`` so NaN,
infinities and the exact float bits all count.
"""

from math import inf, nan

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.analyzer import MultipathVideoAnalyzer
from repro.dash.events import PlayerEventLog
from repro.mptcp.activity import ActivityLog
from repro.obs.report import _downsample, _throughput_points


def dense_points(log, path, until):
    """The path panel's earlier series: every bin, then max-pooled."""
    analyzer = MultipathVideoAnalyzer(log, PlayerEventLog(), 1.0)
    times, values = analyzer.throughput_timeline(path, until=until)
    return _downsample([(t, v * 8.0 / 1e6) for t, v in zip(times, values)])


#: Byte counts: a few repeated values so strides hold ties, any positive
#: float, and the infinities and NaN a hand-edited trace can carry.
_BYTES = st.one_of(st.sampled_from([1.0, 1500.0, 1500.0, 3e5]),
                   st.floats(min_value=1e-6, max_value=1e12),
                   st.just(inf), st.just(nan))


@st.composite
def _logs(draw):
    width = draw(st.sampled_from([0.1, 0.25, 0.3, 1.0]))
    log = ActivityLog(width)
    deliveries = draw(st.lists(
        st.tuples(st.floats(-20.0, 400.0), _BYTES), max_size=200))
    for time, num_bytes in deliveries:
        log.record(time, "wifi", num_bytes)
    # Horizons from before the first bin to well past the last, so the
    # dense series runs from empty through <= 360 to > 360 points.
    bins = draw(st.integers(-3, 1600))
    until = (bins + draw(st.floats(0.0, 0.999))) * width
    return log, until


@given(case=_logs())
@settings(max_examples=200, deadline=None)
def test_filled_bins_keep_the_dense_points(case):
    log, until = case
    assert repr(_throughput_points(log, "wifi", until)) == \
        repr(dense_points(log, "wifi", until))


@given(rng=st.randoms(use_true_random=False),
       length=st.integers(361, 1200))
@settings(max_examples=50, deadline=None)
def test_ties_keep_the_first_peak_in_each_stride(rng, length):
    # Few distinct values (0.0 leaves its bin empty), so most strides
    # hold several equal peaks.
    values = [rng.choice([0.0, 2.0, 5.0, nan, inf]) for _ in range(length)]
    log = ActivityLog(1.0)
    for index, num_bytes in enumerate(values):
        log.record(index + 0.5, "wifi", num_bytes)
    until = len(values) - 0.5
    kept = _throughput_points(log, "wifi", until)
    assert repr(kept) == repr(dense_points(log, "wifi", until))
    assert len(kept) <= 360


def test_bins_before_zero_and_past_the_horizon_are_left_out():
    log = ActivityLog(0.5)
    for time in (-3.0, -0.75, 0.2, 10.0, 600.0):
        log.record(time, "wifi", 100.0)
    for until in (-1.0, 0.0, 0.4, 9.9, 10.0, 200.0, 599.0, 601.0):
        assert repr(_throughput_points(log, "wifi", until)) == \
            repr(dense_points(log, "wifi", until))
    assert _throughput_points(log, "cellular", 200.0) == \
        dense_points(log, "cellular", 200.0)


def test_filled_bins_are_sorted_and_clipped_to_the_horizon():
    log = ActivityLog(1.0)
    for time in (5.5, -2.5, 1.5, 9.5, 3.5):
        log.record(time, "wifi", time + 10.0)
    assert log.filled_bins("wifi", 6.0) == [(1, 11.5), (3, 13.5),
                                            (5, 15.5)]
    assert log.filled_bins("cellular", 6.0) == []
