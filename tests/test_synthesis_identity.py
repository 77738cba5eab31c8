"""Byte-identity of the fast session set-up paths against scalar references.

Trace synthesis draws its Gaussian innovations in one batch, walks the
base trace with a segment cursor, and the energy/radio/utilization walks
visit only the bins that carried bytes.  None of that may change a single
output bit, so each fast path is compared here against the straightforward
scalar version it replaced, kept verbatim as a reference function.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import path_utilization
from repro.energy.devices import DEVICES
from repro.energy.model import (EnergyBreakdown, interface_energy,
                                radio_state_events)
from repro.mptcp.activity import ActivityLog
from repro.net.trace import BLOCK, BandwidthTrace
from repro.obs.events import (RADIO_ACTIVE, RADIO_IDLE, RADIO_TAIL,
                              RadioStateChange)


# ----------------------------------------------------------------------
# Scalar references: one numpy draw and one lookup per sample.
# ----------------------------------------------------------------------
def reference_random_walk(mean_bytes_per_s, sigma_fraction, duration,
                          interval, seed, reversion=0.2):
    rng = np.random.default_rng(seed)
    count = max(1, int(math.ceil(duration / interval)))
    sigma = sigma_fraction * mean_bytes_per_s
    innovation = sigma * math.sqrt(max(1e-9, 2 * reversion - reversion ** 2))
    samples = []
    level = mean_bytes_per_s
    for _ in range(count):
        level += reversion * (mean_bytes_per_s - level)
        level += rng.normal(0.0, innovation)
        level = min(max(level, 0.05 * mean_bytes_per_s),
                    2.5 * mean_bytes_per_s)
        samples.append(level)
    return BandwidthTrace.from_samples(samples, interval)


def reference_mobility_walk(peak_bytes_per_s, floor_bytes_per_s, period,
                            duration, interval=0.25, seed=0,
                            jitter_fraction=0.08):
    rng = np.random.default_rng(seed)
    count = max(1, int(math.ceil(duration / interval)))
    samples = []
    amplitude = (peak_bytes_per_s - floor_bytes_per_s) / 2.0
    midpoint = (peak_bytes_per_s + floor_bytes_per_s) / 2.0
    for i in range(count):
        t = i * interval
        level = midpoint + amplitude * math.cos(2 * math.pi * t / period)
        level += rng.normal(0.0, jitter_fraction * peak_bytes_per_s)
        samples.append(max(level, 0.0))
    return BandwidthTrace.from_samples(samples, interval)


def reference_with_dropouts(base, dropouts, floor_bytes_per_s=0.0):
    interval = 0.1
    horizon = base.duration if math.isfinite(base.duration) else (
        max(end for _, end in dropouts) + 1.0 if dropouts else 1.0)
    count = max(1, int(math.ceil(horizon / interval)))
    samples = []
    for i in range(count):
        t = i * interval
        rate = base.bandwidth_at(t)
        for start, end in dropouts:
            if start <= t < end:
                rate = floor_bytes_per_s
                break
        samples.append(rate)
    return BandwidthTrace.from_samples(samples, interval)


def reference_interface_energy(activity, path, profile, session_end):
    times, values = activity.series(path, until=session_end)
    width = activity.bin_width
    breakdown = EnergyBreakdown()
    promoted_until = 0.0
    last_burst_end = None
    for start, num_bytes in zip(times, values):
        if num_bytes <= 0:
            continue
        end = start + width
        if last_burst_end is None or start > promoted_until:
            breakdown.promotion += profile.promotion_energy
        if last_burst_end is not None:
            gap = max(0.0, start - last_burst_end)
            tail = min(gap, profile.tail_time)
            breakdown.tail += tail * profile.tail_power
            breakdown.idle += max(0.0, gap - tail) * profile.idle_power
        else:
            breakdown.idle += max(0.0, start) * profile.idle_power
        throughput_mbps = num_bytes * 8.0 / 1e6 / width
        breakdown.active += profile.active_power(throughput_mbps) * width
        last_burst_end = end
        promoted_until = end + profile.tail_time
    if last_burst_end is None:
        breakdown.idle += session_end * profile.idle_power
    else:
        gap = max(0.0, session_end - last_burst_end)
        tail = min(gap, profile.tail_time)
        breakdown.tail += tail * profile.tail_power
        breakdown.idle += max(0.0, gap - tail) * profile.idle_power
    return breakdown


def reference_radio_state_events(activity, path, profile, session_end):
    times, values = activity.series(path, until=session_end)
    width = activity.bin_width
    events = []
    last_burst_end = None
    for start, num_bytes in zip(times, values):
        if num_bytes <= 0:
            continue
        if last_burst_end is None:
            events.append(RadioStateChange(start, path, RADIO_ACTIVE))
        elif start > last_burst_end:
            events.append(RadioStateChange(last_burst_end, path,
                                           RADIO_TAIL))
            tail_end = last_burst_end + profile.tail_time
            if start > tail_end:
                events.append(RadioStateChange(tail_end, path, RADIO_IDLE))
            events.append(RadioStateChange(start, path, RADIO_ACTIVE))
        last_burst_end = start + width
    if last_burst_end is not None:
        events.append(RadioStateChange(last_burst_end, path, RADIO_TAIL))
        tail_end = last_burst_end + profile.tail_time
        if session_end > tail_end:
            events.append(RadioStateChange(tail_end, path, RADIO_IDLE))
    return events


def reference_path_utilization(activity, path, session_duration):
    _times, values = activity.series(path, until=session_duration)
    busy = sum(1 for v in values if v > 0)
    return busy * activity.bin_width / session_duration


def assert_same_trace(fast, slow):
    assert fast.times == slow.times
    assert fast.rates == slow.rates
    assert fast.duration == slow.duration
    assert fast.loop == slow.loop


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
seeds = st.integers(min_value=0, max_value=2 ** 63)
means = st.one_of(st.just(0.0), st.floats(min_value=1.0, max_value=1e8))
sigmas = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.0))
# Intervals and durations drawn independently, so durations are mostly
# not a multiple of the interval; counts stay below ~3000 samples.
intervals = st.floats(min_value=0.1, max_value=2.0)
durations = st.floats(min_value=0.01, max_value=300.0)


@st.composite
def base_traces(draw):
    """Looping and non-looping bases, regular and irregular segments,
    and ``constant()`` with a finite or infinite duration."""
    kind = draw(st.sampled_from(
        ["samples", "samples_no_loop", "irregular", "constant_finite",
         "constant_inf"]))
    rates = st.lists(st.floats(min_value=0.0, max_value=1e8),
                     min_size=1, max_size=40)
    if kind in ("samples", "samples_no_loop"):
        # Multiples of the 0.1 s resampling step put grid points exactly
        # on segment starts and, through rounding, past the period.
        interval = draw(st.one_of(
            st.sampled_from([0.1, 0.2, 0.5, 1.0]),
            st.floats(min_value=0.05, max_value=10.0)))
        return BandwidthTrace.from_samples(draw(rates), interval,
                                           loop=(kind == "samples"))
    if kind == "irregular":
        gaps = draw(st.lists(st.floats(min_value=0.01, max_value=20.0),
                             min_size=1, max_size=30))
        times = [0.0]
        for gap in gaps[:-1]:
            times.append(times[-1] + gap)
        values = draw(st.lists(st.floats(min_value=0.0, max_value=1e8),
                               min_size=len(times), max_size=len(times)))
        return BandwidthTrace(times, values, loop=draw(st.booleans()))
    base = BandwidthTrace.constant(draw(st.floats(min_value=0.0,
                                                  max_value=1e8)))
    if kind == "constant_finite":
        base.duration = draw(st.floats(min_value=0.05, max_value=200.0))
    return base


@st.composite
def dropout_windows(draw):
    """Valid windows: possibly overlapping, possibly past the horizon."""
    windows = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        start = draw(st.floats(min_value=-5.0, max_value=250.0))
        length = draw(st.floats(min_value=1e-3, max_value=60.0))
        windows.append((start, start + length))
    return windows


# ----------------------------------------------------------------------
class TestRandomWalkIdentity:
    @given(means, sigmas, durations, intervals, seeds,
           st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=120, deadline=None)
    def test_matches_scalar_draws(self, mean, sigma, duration, interval,
                                  seed, reversion):
        fast = BandwidthTrace.random_walk(mean, sigma, duration, interval,
                                          seed, reversion=reversion)
        slow = reference_random_walk(mean, sigma, duration, interval, seed,
                                     reversion=reversion)
        assert_same_trace(fast, slow)

    def test_fleet_shaped_walks_match(self):
        # The exact shape session_config builds: 220 s at 0.5 s.
        for seed in range(40):
            assert_same_trace(
                BandwidthTrace.random_walk(6e5, 0.45, 220.0, 0.5, seed),
                reference_random_walk(6e5, 0.45, 220.0, 0.5, seed))


class TestMobilityWalkIdentity:
    @given(st.floats(min_value=0.0, max_value=1e7),
           st.floats(min_value=0.0, max_value=1e7),
           st.floats(min_value=1.0, max_value=200.0),
           durations, st.floats(min_value=0.1, max_value=2.0), seeds,
           st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)))
    @settings(max_examples=120, deadline=None)
    def test_matches_scalar_draws(self, peak, floor, period, duration,
                                  interval, seed, jitter):
        fast = BandwidthTrace.mobility_walk(peak, floor, period, duration,
                                            interval=interval, seed=seed,
                                            jitter_fraction=jitter)
        slow = reference_mobility_walk(peak, floor, period, duration,
                                       interval=interval, seed=seed,
                                       jitter_fraction=jitter)
        assert_same_trace(fast, slow)


class TestWithDropoutsIdentity:
    @given(base_traces(), dropout_windows(),
           st.floats(min_value=0.0, max_value=1e6))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_sample_lookup(self, base, windows, floor):
        fast = BandwidthTrace.with_dropouts(base, windows,
                                            floor_bytes_per_s=floor)
        slow = reference_with_dropouts(base, windows,
                                       floor_bytes_per_s=floor)
        assert_same_trace(fast, slow)

    def test_field_study_shape_matches(self):
        # A looping 0.5 s walk resampled at 0.1 s with two blackouts, as
        # the scenario-2 locations build it.
        for seed in range(20):
            base = BandwidthTrace.random_walk(7e5, 0.45, 220.0, 0.5, seed)
            windows = [(110.0, 130.0), (200.0, 218.0)]
            assert_same_trace(
                BandwidthTrace.with_dropouts(base, windows, 7e4),
                reference_with_dropouts(base, windows, 7e4))

    def test_grid_point_past_the_period_wraps(self):
        # 3 x 0.1 s rounds to a period of 0.30000000000000004, so the
        # resampling grid's fourth point lies past it and reads segment 0.
        base = BandwidthTrace.from_samples([10.0, 20.0, 30.0], 0.1)
        fast = BandwidthTrace.with_dropouts(base, [])
        assert fast.rates == [10.0, 20.0, 30.0, 10.0]
        assert_same_trace(fast, reference_with_dropouts(base, []))

    @pytest.mark.parametrize("window", [
        (5.0, 5.0), (6.0, 2.0), (math.nan, 3.0), (1.0, math.nan)])
    def test_degenerate_window_rejected(self, window):
        base = BandwidthTrace.constant(1000.0)
        base.duration = 10.0
        with pytest.raises(ValueError, match="start < end"):
            BandwidthTrace.with_dropouts(base, [(1.0, 2.0), window])


# ----------------------------------------------------------------------
@st.composite
def activity_logs(draw):
    """A log with sparse bins, some past any horizon, on two paths."""
    width = draw(st.sampled_from([0.1, 0.25, 1.0]))
    log = ActivityLog(width)
    for _ in range(draw(st.integers(min_value=0, max_value=60))):
        log.record(draw(st.floats(min_value=0.0, max_value=120.0)),
                   draw(st.sampled_from(["wifi", "cellular"])),
                   draw(st.floats(min_value=1.0, max_value=5e6)))
    return log


session_ends = st.one_of(
    # ``until`` on a bin boundary, and anywhere in between.
    st.integers(min_value=1, max_value=1200).map(lambda k: k * 0.1),
    st.floats(min_value=0.01, max_value=150.0))


def dense_bursts(log, path, until):
    times, values = log.series(path, until)
    return [(t, v) for t, v in zip(times, values) if v > 0]


class TestBurstsIdentity:
    @given(activity_logs(), session_ends)
    @settings(max_examples=150, deadline=None)
    def test_bursts_match_dense_series(self, log, until):
        for path in ("wifi", "cellular", "unused"):
            assert log.bursts(path, until) == dense_bursts(log, path, until)

    def test_bins_past_until_are_dropped(self):
        log = ActivityLog(1.0)
        log.record(0.5, "wifi", 10.0)
        log.record(3.0, "wifi", 20.0)
        log.record(7.5, "wifi", 30.0)
        assert log.bursts("wifi", 3.0) == [(0.0, 10.0), (3.0, 20.0)]
        assert log.bursts("wifi", 2.999) == [(0.0, 10.0)]
        assert log.bursts("cellular", 10.0) == []

    def test_zero_byte_bins_are_skipped(self):
        # The offline metrics collector hands its bins over as they are,
        # zero-byte packets included; they are not bursts.
        log = ActivityLog(0.5)
        log._bins = {"wifi": {4: 0.0, 1: 50.0, 2: 0.0}}
        assert log.bursts("wifi", 10.0) == dense_bursts(log, "wifi", 10.0)
        assert log.bursts("wifi", 10.0) == [(0.5, 50.0)]

    @given(activity_logs(), session_ends,
           st.sampled_from(sorted(DEVICES)))
    @settings(max_examples=150, deadline=None)
    def test_energy_radio_and_utilization_match_dense_walks(
            self, log, session_end, device):
        profile = DEVICES[device]
        for path in ("wifi", "cellular"):
            interface = profile.for_interface(path)
            assert interface_energy(log, path, interface, session_end) == \
                reference_interface_energy(log, path, interface,
                                           session_end)
            assert radio_state_events(log, path, interface,
                                      session_end) == \
                reference_radio_state_events(log, path, interface,
                                             session_end)
            assert path_utilization(log, path, session_end) == \
                reference_path_utilization(log, path, session_end)


# ----------------------------------------------------------------------
# On-demand synthesis: queries read exactly what whole traces hold.
# ----------------------------------------------------------------------
def whole(trace):
    return len(trace._rates) == len(trace._times)


def query_times(trace, step):
    """Times in and past the first period, on and beside the block edges
    of a trace sampled every ``step`` seconds, and on its grid points."""
    period = trace.duration
    grid = trace.times
    edges = st.tuples(
        st.integers(min_value=0, max_value=3 * (len(grid) // BLOCK + 1)),
        st.sampled_from([-1, 0, 1])).map(
            lambda edge: max(0, edge[0] * BLOCK + edge[1]) * step)
    return st.one_of(
        st.floats(min_value=0.0, max_value=3 * period),
        edges,
        edges.map(lambda t: math.nextafter(t, math.inf)),
        edges.map(lambda t: max(0.0, math.nextafter(t, -math.inf))),
        st.integers(min_value=0, max_value=3).map(lambda n: n * period),
        st.sampled_from(grid))


def edge_times(count, step, period):
    """Grid points one either side of every block edge, the floats just
    beside them, and the same a period later."""
    for k in range(count // BLOCK + 1):
        for index in (k * BLOCK - 1, k * BLOCK, k * BLOCK + 1):
            if 0 <= index < count:
                t = index * step
                for near in (t, math.nextafter(t, math.inf),
                             math.nextafter(t, -math.inf)):
                    if near >= 0:
                        yield near
                        yield near + period


def ask(trace, query, time):
    return getattr(trace, query)(time)


class TestOnDemandIdentity:
    @given(st.data(), means, sigmas, durations, intervals, seeds,
           st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_queries_match_whole_traces(self, data, mean, sigma, duration,
                                        interval, seed, dropped):
        fast = BandwidthTrace.random_walk(mean, sigma, duration, interval,
                                          seed)
        slow = reference_random_walk(mean, sigma, duration, interval, seed)
        step = interval
        if dropped:
            windows = data.draw(dropout_windows())
            floor = data.draw(st.floats(min_value=0.0, max_value=1e6))
            fast = BandwidthTrace.with_dropouts(fast, windows, floor)
            slow = reference_with_dropouts(slow, windows, floor)
            step = 0.1
        assert whole(fast) == (len(slow.rates) <= BLOCK)
        queries = data.draw(st.lists(
            st.tuples(st.sampled_from(["bandwidth_at", "next_change",
                                       "segment"]),
                      query_times(slow, step)), max_size=30))
        if data.draw(st.booleans()):
            queries.sort(key=lambda q: q[1])
        for query, time in queries:
            assert ask(fast, query, time) == ask(slow, query, time), \
                (query, time)
        assert_same_trace(fast, slow)
        assert fast.mean_bandwidth() == slow.mean_bandwidth()
        assert repr(fast) == repr(slow)
        for query, time in queries:
            assert ask(fast, query, time) == ask(slow, query, time)

    @given(base_traces(), dropout_windows(),
           st.floats(min_value=0.0, max_value=1e6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_queries_over_explicit_bases_match(self, base, windows, floor,
                                               data):
        fast = BandwidthTrace.with_dropouts(base, windows, floor)
        slow = reference_with_dropouts(base, windows, floor)
        for time in data.draw(st.lists(query_times(slow, 0.1),
                                       max_size=20)):
            assert fast.segment(time) == slow.segment(time), time
        assert_same_trace(fast, slow)


    @pytest.mark.parametrize("dropped", [False, True])
    def test_first_read_at_each_block_edge(self, dropped):
        # A fresh trace per query, so each edge is read before any later
        # block exists: the scan must carry the change across the edge.
        def build(walk):
            base = walk(6e5, 0.45, 220.0, 0.5, 17)
            if dropped:
                windows = [(12.75, 19.2), (110.0, 130.0)]
                return (BandwidthTrace.with_dropouts(base, windows, 6e4)
                        if walk is BandwidthTrace.random_walk else
                        reference_with_dropouts(base, windows, 6e4))
            return base

        slow = build(reference_random_walk)
        step = 0.1 if dropped else 0.5
        for time in edge_times(len(slow.rates), step, slow.duration):
            for query in ("next_change", "bandwidth_at"):
                fast = build(BandwidthTrace.random_walk)
                assert ask(fast, query, time) == ask(slow, query, time), \
                    (query, time)


def outcome(build):
    """A built trace's rates, or the error building it raised."""
    try:
        trace = build()
    except Exception as error:  # noqa: BLE001 - comparing any error
        return type(error), str(error)
    return repr(trace.rates), trace.duration


class TestConstructionErrorIdentity:
    @given(st.sampled_from([-1e6, -1.0, -0.0, 0.0, 1e6, math.nan, math.inf,
                            -math.inf]),
           st.sampled_from([-0.5, -0.0, 0.0, 0.3, math.nan, math.inf]),
           st.sampled_from([0.2, -1.0, 3.0, math.nan, 1e200]),
           st.sampled_from([0, 7, -1]))
    @settings(max_examples=150, deadline=None)
    def test_random_walk_fails_as_the_whole_build_did(self, mean, sigma,
                                                      reversion, seed):
        assert outcome(lambda: BandwidthTrace.random_walk(
            mean, sigma, 100.0, 0.5, seed, reversion=reversion)) == \
            outcome(lambda: reference_random_walk(
                mean, sigma, 100.0, 0.5, seed, reversion=reversion))

    @pytest.mark.parametrize("windows", [
        [(0.05, 0.07)],            # between grid points: covers none
        [(500.0, 600.0)],          # past the horizon
        [(-9.0, -1.0)],            # before time 0
        [(50.0, 50.05)],           # covers exactly one grid point
        [(0.05, 0.07), (10.0, 12.0)],
        [],
    ])
    @pytest.mark.parametrize("floor", [-1.0, -0.0, 0.0, 5.0, math.nan])
    def test_dropout_floor_fails_as_the_whole_build_did(self, windows,
                                                        floor):
        def base():
            return BandwidthTrace.random_walk(7e5, 0.45, 100.0, 0.5, 3)

        assert outcome(lambda: BandwidthTrace.with_dropouts(
            base(), windows, floor)) == \
            outcome(lambda: reference_with_dropouts(base(), windows, floor))


class TestFleetReadsLittle:
    def test_sessions_materialize_at_most_a_quarter(self, monkeypatch):
        from repro.experiments.fleet import FleetConfig, session_config
        from repro.experiments.runner import run_session

        built = []
        on_demand = BandwidthTrace._on_demand.__func__

        def recording(cls, blocks, count, interval):
            trace = on_demand(cls, blocks, count, interval)
            built.append(trace)
            return trace

        monkeypatch.setattr(BandwidthTrace, "_on_demand",
                            classmethod(recording))
        config = FleetConfig(sessions=12, video_duration=20.0, seed=2016)
        draws = list(config.workload().draws())
        for draw in draws:
            run_session(session_config(config, draw))
        # WiFi and LTE walks per session, plus the 0.1 s resampling at
        # dropout sites, all sized to the 220 s horizon.
        lengths = {len(trace._times) for trace in built}
        assert lengths == {440, 2200}
        assert len(built) >= 2 * len(draws) - sum(d.wifi_only for d in draws)
        for trace in built:
            assert len(trace._rates) <= len(trace._times) / 4
