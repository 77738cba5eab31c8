"""Tests for bandwidth traces."""

import copy
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.trace import BandwidthTrace, constant_mbps
from repro.net.units import mbps


class TestConstruction:
    def test_constant_trace(self):
        trace = BandwidthTrace.constant(1000.0)
        assert trace.bandwidth_at(0.0) == 1000.0
        assert trace.bandwidth_at(1e6) == 1000.0

    def test_constant_mbps_shorthand(self):
        trace = constant_mbps(8.0)
        assert trace.bandwidth_at(5.0) == pytest.approx(1e6)

    def test_from_samples(self):
        trace = BandwidthTrace.from_samples([100.0, 200.0, 300.0], 1.0)
        assert trace.bandwidth_at(0.5) == 100.0
        assert trace.bandwidth_at(1.0) == 200.0
        assert trace.bandwidth_at(2.9) == 300.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            BandwidthTrace([0.0, 1.0], [100.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BandwidthTrace([], [])

    def test_nonzero_start_rejected(self):
        with pytest.raises(ValueError):
            BandwidthTrace([1.0], [100.0])

    def test_decreasing_times_rejected(self):
        with pytest.raises(ValueError):
            BandwidthTrace([0.0, 2.0, 1.0], [1.0, 2.0, 3.0])

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            BandwidthTrace([0.0], [-5.0])

    def test_non_positive_interval_rejected(self):
        with pytest.raises(ValueError):
            BandwidthTrace.from_samples([1.0], 0.0)


class TestQueries:
    def test_negative_time_rejected(self):
        trace = BandwidthTrace.constant(10.0)
        with pytest.raises(ValueError):
            trace.bandwidth_at(-1.0)

    @pytest.mark.parametrize("query", ["bandwidth_at", "next_change",
                                       "segment"])
    @pytest.mark.parametrize("loop", [True, False])
    def test_nan_time_rejected(self, query, loop):
        # NaN compares false against every breakpoint, so without the
        # check it silently read the last segment.
        trace = BandwidthTrace.from_samples([1.0, 2.0, 3.0], 1.0, loop=loop)
        with pytest.raises(ValueError, match="NaN"):
            getattr(trace, query)(math.nan)

    def test_looping_wraps_around(self):
        trace = BandwidthTrace.from_samples([100.0, 200.0], 1.0)
        assert trace.duration == 2.0
        assert trace.bandwidth_at(2.0) == 100.0
        assert trace.bandwidth_at(3.5) == 200.0

    def test_non_looping_holds_last_value(self):
        trace = BandwidthTrace.from_samples([100.0, 200.0], 1.0, loop=False)
        assert trace.bandwidth_at(100.0) == 200.0

    def test_mean_bandwidth_time_weighted(self):
        trace = BandwidthTrace.from_samples([100.0, 300.0], 1.0)
        assert trace.mean_bandwidth() == pytest.approx(200.0)

    def test_samples(self):
        trace = BandwidthTrace.from_samples([10.0, 20.0], 1.0)
        assert trace.samples(0.5, 2.0) == [10.0, 10.0, 20.0, 20.0]

    def test_scaled(self):
        trace = BandwidthTrace.from_samples([10.0, 20.0], 1.0)
        doubled = trace.scaled(2.0)
        assert doubled.bandwidth_at(0.0) == 20.0
        assert doubled.bandwidth_at(1.0) == 40.0
        # Original untouched.
        assert trace.bandwidth_at(0.0) == 10.0

    def test_capped(self):
        trace = BandwidthTrace.from_samples([10.0, 100.0], 1.0)
        capped = trace.capped(50.0)
        assert capped.bandwidth_at(0.0) == 10.0
        assert capped.bandwidth_at(1.0) == 50.0

    def test_scaled_negative_rejected(self):
        with pytest.raises(ValueError):
            BandwidthTrace.constant(10.0).scaled(-1.0)


class TestGenerators:
    def test_gaussian_mean_approximately_preserved(self):
        trace = BandwidthTrace.gaussian(mbps(3.8), 0.1, 120.0, 0.25, seed=7)
        assert trace.mean_bandwidth() == pytest.approx(mbps(3.8), rel=0.05)

    def test_gaussian_deterministic_per_seed(self):
        a = BandwidthTrace.gaussian(1000.0, 0.3, 10.0, 0.5, seed=3)
        b = BandwidthTrace.gaussian(1000.0, 0.3, 10.0, 0.5, seed=3)
        c = BandwidthTrace.gaussian(1000.0, 0.3, 10.0, 0.5, seed=4)
        assert a.samples(0.5, 10.0) == b.samples(0.5, 10.0)
        assert a.samples(0.5, 10.0) != c.samples(0.5, 10.0)

    def test_gaussian_never_negative(self):
        trace = BandwidthTrace.gaussian(1000.0, 0.9, 60.0, 0.1, seed=1)
        assert all(r > 0 for r in trace.samples(0.1, 60.0))

    def test_random_walk_mean_reverting(self):
        trace = BandwidthTrace.random_walk(mbps(5.0), 0.3, 600.0, 0.5,
                                           seed=11)
        assert trace.mean_bandwidth() == pytest.approx(mbps(5.0), rel=0.15)

    def test_random_walk_bounded(self):
        trace = BandwidthTrace.random_walk(1000.0, 0.5, 300.0, 0.5, seed=2)
        samples = trace.samples(0.5, 300.0)
        assert all(50.0 - 1e-9 <= s <= 2500.0 + 1e-9 for s in samples)

    def test_dropouts_zero_out_windows(self):
        base = BandwidthTrace.constant(1000.0)
        base.duration = 10.0
        trace = BandwidthTrace.with_dropouts(base, [(2.0, 4.0)],
                                             floor_bytes_per_s=10.0)
        assert trace.bandwidth_at(1.0) == 1000.0
        assert trace.bandwidth_at(3.0) == 10.0
        assert trace.bandwidth_at(5.0) == 1000.0

    def test_mobility_walk_oscillates(self):
        trace = BandwidthTrace.mobility_walk(mbps(5.0), mbps(0.3),
                                             period=60.0, duration=120.0,
                                             seed=0, jitter_fraction=0.0)
        near_ap = trace.bandwidth_at(0.0)
        far = trace.bandwidth_at(30.0)
        back = trace.bandwidth_at(60.0)
        assert near_ap == pytest.approx(mbps(5.0), rel=0.05)
        assert far == pytest.approx(mbps(0.3), rel=0.2)
        assert back == pytest.approx(mbps(5.0), rel=0.05)


class TestGeneratorArguments:
    GENERATORS = {
        "gaussian": lambda duration, interval: BandwidthTrace.gaussian(
            1e6, 0.2, duration, interval, seed=1),
        "random_walk": lambda duration, interval: BandwidthTrace.random_walk(
            1e6, 0.2, duration, interval, seed=1),
        "mobility_walk": lambda duration, interval:
            BandwidthTrace.mobility_walk(1e6, 1e5, 30.0, duration,
                                         interval=interval, seed=1),
    }

    @pytest.mark.parametrize("generator", sorted(GENERATORS))
    @pytest.mark.parametrize("duration, interval, argument", [
        (10.0, 0.0, "interval"),
        (10.0, -0.5, "interval"),
        (10.0, math.nan, "interval"),
        (10.0, math.inf, "interval"),
        (math.inf, 0.5, "duration"),
        (-math.inf, 0.5, "duration"),
        (math.nan, 0.5, "duration"),
    ])
    def test_bad_count_arguments_name_the_argument(
            self, generator, duration, interval, argument):
        with pytest.raises(ValueError, match=argument):
            self.GENERATORS[generator](duration, interval)

    @pytest.mark.parametrize("generator", sorted(GENERATORS))
    def test_short_and_negative_durations_give_one_sample(self, generator):
        for duration in (0.0, -3.0, 0.1):
            trace = self.GENERATORS[generator](duration, 0.5)
            assert len(trace.rates) == 1


class TestOnDemand:
    @staticmethod
    def walks():
        walk = BandwidthTrace.random_walk(mbps(6.0), 0.45, 220.0, 0.5, seed=9)
        dropped = BandwidthTrace.with_dropouts(
            BandwidthTrace.random_walk(mbps(6.0), 0.45, 220.0, 0.5, seed=9),
            [(20.0, 30.0), (110.0, 130.0)], floor_bytes_per_s=mbps(0.6))
        return [walk, dropped]

    @staticmethod
    def reads(trace, times):
        return [(trace.bandwidth_at(t), trace.next_change(t),
                 trace.segment(t)) for t in times]

    @pytest.mark.parametrize("clone", [
        lambda trace: pickle.loads(pickle.dumps(trace)), copy.copy,
        copy.deepcopy])
    def test_partly_read_trace_survives_pickling(self, clone):
        early = [0.0, 3.2, 12.7, 25.0]
        late = [26.0, 64.0, 150.3, 219.95, 230.0, 500.1, 40.0]
        for trace, twin in zip(self.walks(), self.walks()):
            assert self.reads(trace, early) == self.reads(twin, early)
            revived = clone(trace)
            assert self.reads(revived, late) == self.reads(twin, late)
            assert self.reads(trace, late) == self.reads(twin, late)
            assert revived.rates == twin.rates
            assert revived.duration == twin.duration

    def test_reads_synthesize_only_what_they_reach(self):
        walk, dropped = self.walks()
        walk.segment(20.0)
        dropped.segment(20.0)
        assert len(walk._rates) < len(walk._times) / 4
        assert len(dropped._rates) < len(dropped._times) / 4
        assert len(walk.rates) == len(walk._times) == 440
        assert len(dropped.rates) == len(dropped._times) == 2200


class TestProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e8), min_size=1,
                    max_size=50),
           st.floats(min_value=0.01, max_value=10.0),
           st.floats(min_value=0.0, max_value=1e4))
    @settings(max_examples=50, deadline=None)
    def test_bandwidth_at_returns_a_listed_rate(self, rates, interval, t):
        trace = BandwidthTrace.from_samples(rates, interval)
        assert trace.bandwidth_at(t) in rates

    @given(st.lists(st.floats(min_value=0.0, max_value=1e8), min_size=1,
                    max_size=20),
           st.floats(min_value=0.05, max_value=5.0))
    @settings(max_examples=50, deadline=None)
    def test_looping_is_periodic(self, rates, interval):
        trace = BandwidthTrace.from_samples(rates, interval)
        for k in range(3):
            t = 0.3 * interval
            assert trace.bandwidth_at(t) == trace.bandwidth_at(
                t + k * trace.duration)

    @given(st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1,
                    max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_mean_between_min_and_max(self, rates):
        trace = BandwidthTrace.from_samples(rates, 1.0)
        mean = trace.mean_bandwidth()
        assert min(rates) - 1e-9 <= mean <= max(rates) + 1e-9
