"""Time-varying bandwidth traces.

A :class:`BandwidthTrace` is a piecewise-constant function of simulated time
returning available bandwidth in **bytes per second**.  Traces are the
substitute for the paper's real WiFi/LTE links: the controlled experiments
use Dummynet-pinned constant rates, the trace-driven simulation (§7.2.2)
replays recorded profiles, and the field study uses fluctuating open-WiFi
bandwidth — each has a generator here.

All stochastic generators take an explicit seed and are fully deterministic.
"""

from __future__ import annotations

import bisect
import math
from functools import lru_cache
from itertools import islice
from typing import Iterable, Optional, Sequence

import numpy as np

from .units import mbps


@lru_cache(maxsize=16)
def _sample_times(count: int, interval: float) -> tuple:
    """``(0, interval, 2*interval, ...)``: the sample grid of ``count``
    equally spaced samples.  Sessions of one campaign share a handful of
    grids, so they are built once."""
    return tuple(i * interval for i in range(count))


class BandwidthTrace:
    """Piecewise-constant bandwidth as a function of time.

    ``times`` are segment start offsets (seconds, ascending, starting at 0)
    and ``rates`` the bandwidth (bytes/second) holding from each start until
    the next.  Beyond the last segment the trace wraps around (loops), so a
    60-second recording can drive a 600-second session, matching how the
    paper replays collected traces.
    """

    def __init__(self, times: Sequence[float], rates: Sequence[float],
                 loop: bool = True):
        times = list(times)
        rates = list(rates)
        if len(times) != len(rates):
            raise ValueError("times and rates must have equal length")
        if not times:
            raise ValueError("trace must have at least one segment")
        if times[0] != 0:
            raise ValueError("first segment must start at time 0")
        for earlier, later in zip(times, islice(times, 1, None)):
            if later <= earlier:
                raise ValueError("times must be strictly increasing")
        # min() keeps a leading NaN as its result, hiding any negative
        # after it; only then is the full scan needed.
        lowest = min(rates)
        if lowest < 0 or (lowest != lowest and any(r < 0 for r in rates)):
            raise ValueError("bandwidth cannot be negative")
        self._times = times
        self._rates = rates
        self.loop = loop
        # Offsets (within one period) where the rate actually changes;
        # computed lazily because constructors mutate ``duration`` afterwards.
        self._changes: Optional[list] = None
        # Duration of the recorded portion; only meaningful when looping or
        # when the caller treats the trace as finite.
        if len(times) > 1:
            self.duration = times[-1] + (times[-1] - times[-2])
        else:
            self.duration = math.inf if not loop else 1.0

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def constant(cls, rate_bytes_per_s: float) -> "BandwidthTrace":
        """A fixed-rate link (the Dummynet-shaped testbed case)."""
        trace = cls([0.0], [rate_bytes_per_s], loop=False)
        trace.duration = math.inf
        return trace

    @classmethod
    def from_samples(cls, rates: Iterable[float],
                     interval: float, loop: bool = True) -> "BandwidthTrace":
        """Build a trace from equally spaced samples (bytes/second)."""
        rates = list(rates)
        if interval <= 0:
            raise ValueError("interval must be positive")
        trace = cls(_sample_times(len(rates), interval), rates, loop=loop)
        trace.duration = len(rates) * interval
        return trace

    @classmethod
    def gaussian(cls, mean_bytes_per_s: float, sigma_fraction: float,
                 duration: float, interval: float,
                 seed: int) -> "BandwidthTrace":
        """Bounded-Gaussian fluctuation around a mean.

        This is the paper's synthetic profile (Table 1): instantaneous
        throughput with standard deviation ``sigma_fraction`` of the mean.
        Samples are clamped to stay non-negative (and below 2x mean so the
        mean is preserved approximately).
        """
        rng = np.random.default_rng(seed)
        count = max(1, int(math.ceil(duration / interval)))
        samples = rng.normal(mean_bytes_per_s,
                             sigma_fraction * mean_bytes_per_s, count)
        samples = np.clip(samples, 0.05 * mean_bytes_per_s,
                          2.0 * mean_bytes_per_s)
        return cls.from_samples(samples.tolist(), interval)

    @classmethod
    def random_walk(cls, mean_bytes_per_s: float, sigma_fraction: float,
                    duration: float, interval: float, seed: int,
                    reversion: float = 0.2) -> "BandwidthTrace":
        """Mean-reverting AR(1) random walk.

        Open public WiFi fluctuates with temporal correlation (Figure 5's
        FastFood/Coffee traces wander rather than jump), which an AR(1)
        process captures: each step pulls back toward the mean with strength
        ``reversion`` plus Gaussian innovation.
        """
        rng = np.random.default_rng(seed)
        count = max(1, int(math.ceil(duration / interval)))
        sigma = sigma_fraction * mean_bytes_per_s
        innovation = sigma * math.sqrt(max(1e-9, 2 * reversion - reversion ** 2))
        # One batched draw yields the same stream as ``count`` scalar
        # draws; the recursion below keeps the scalar operation order.
        steps = rng.normal(0.0, innovation, count).tolist()
        low = 0.05 * mean_bytes_per_s
        high = 2.5 * mean_bytes_per_s
        samples = []
        append = samples.append
        level = mean_bytes_per_s
        for step in steps:
            level += reversion * (mean_bytes_per_s - level)
            level += step
            if level < low:
                level = low
            if level > high:
                level = high
            append(level)
        return cls.from_samples(samples, interval)

    @classmethod
    def with_dropouts(cls, base: "BandwidthTrace", dropouts:
                      Sequence[tuple], floor_bytes_per_s: float = 0.0
                      ) -> "BandwidthTrace":
        """Overlay blackout windows onto an existing trace.

        ``dropouts`` is a sequence of ``(start, end)`` intervals during which
        the bandwidth collapses to ``floor_bytes_per_s``.  Used for the
        scenario-2 field locations where open WiFi intermittently stalls.
        A window without ``start < end`` (empty, reversed or NaN) raises
        ``ValueError`` rather than silently overlaying nothing.
        """
        windows = list(dropouts)
        for start, end in windows:
            if not start < end:
                raise ValueError(
                    f"dropout window needs start < end: {(start, end)!r}")
        interval = 0.1
        horizon = base.duration if math.isfinite(base.duration) else (
            max(end for _, end in windows) + 1.0 if windows else 1.0)
        grid = _sample_times(max(1, int(math.ceil(horizon / interval))),
                             interval)
        # Walk the base's segments with a cursor instead of one
        # ``bandwidth_at`` lookup per sample: sample times only grow, so
        # the cursor only moves forward, back to segment 0 on a wrap.
        times = base._times
        rates = base._rates
        period = base.duration
        looping = base.loop and math.isfinite(period) and period > 0
        last = len(times) - 1
        index = 0
        previous = 0.0
        samples = []
        append = samples.append
        for t in grid:
            offset = t % period if looping else t
            if offset < previous:
                index = 0
            previous = offset
            while index < last and times[index + 1] <= offset:
                index += 1
            append(rates[index])
        # The grid is ascending, so the samples with start <= t < end are
        # one slice of it.
        for start, end in windows:
            low = bisect.bisect_left(grid, start)
            high = bisect.bisect_left(grid, end)
            samples[low:high] = [floor_bytes_per_s] * (high - low)
        return cls.from_samples(samples, interval)

    @classmethod
    def mobility_walk(cls, peak_bytes_per_s: float, floor_bytes_per_s: float,
                      period: float, duration: float,
                      interval: float = 0.25, seed: int = 0,
                      jitter_fraction: float = 0.08) -> "BandwidthTrace":
        """WiFi bandwidth while walking away from and back toward an AP.

        Models the §7.3.4 mobility route: throughput follows a raised-cosine
        between ``peak`` (next to the AP) and ``floor`` (far side of the
        route) with period ``period`` seconds, plus small measurement jitter.
        """
        rng = np.random.default_rng(seed)
        count = max(1, int(math.ceil(duration / interval)))
        jitter = rng.normal(0.0, jitter_fraction * peak_bytes_per_s,
                            count).tolist()
        samples = []
        amplitude = (peak_bytes_per_s - floor_bytes_per_s) / 2.0
        midpoint = (peak_bytes_per_s + floor_bytes_per_s) / 2.0
        for i, noise in enumerate(jitter):
            t = i * interval
            level = midpoint + amplitude * math.cos(2 * math.pi * t / period)
            level += noise
            if level < 0.0:
                level = 0.0
            samples.append(level)
        return cls.from_samples(samples, interval)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def times(self) -> list:
        """Segment start offsets (seconds), a copy."""
        return list(self._times)

    @property
    def rates(self) -> list:
        """Per-segment bandwidth (bytes/second), a copy."""
        return list(self._rates)

    def bandwidth_at(self, time: float) -> float:
        """Available bandwidth (bytes/second) at simulated ``time``."""
        if time < 0:
            raise ValueError(f"time cannot be negative: {time!r}")
        if self.loop and math.isfinite(self.duration) and self.duration > 0:
            time = time % self.duration
        index = bisect.bisect_right(self._times, time) - 1
        if index < 0:
            index = 0
        return self._rates[index]

    def _change_points(self) -> list:
        """Offsets within one period at which the rate *actually* changes.

        Boundaries between equal-rate segments are dropped, so a trace built
        from identical samples reports no breakpoints at all.  For looping
        traces the wrap-around (``duration``) counts as a change when the
        last and first rates differ.
        """
        if self._changes is None:
            changes = [t for prev, rate, t in
                       zip(self._rates, self._rates[1:], self._times[1:])
                       if rate != prev]
            if (self.loop and math.isfinite(self.duration)
                    and self._rates[-1] != self._rates[0]):
                changes.append(self.duration)
            self._changes = changes
        return self._changes

    def next_change(self, time: float) -> float:
        """Absolute time of the first rate change strictly after ``time``.

        Returns ``math.inf`` when the rate never changes again (constant
        traces, non-looping traces past their last breakpoint, or traces
        whose samples all share one value).  This is the breakpoint iterator
        the event-driven kernel walks: between ``time`` and the returned
        instant, :meth:`bandwidth_at` is guaranteed constant.
        """
        if time < 0:
            raise ValueError(f"time cannot be negative: {time!r}")
        changes = self._change_points()
        if not changes:
            return math.inf
        looping = self.loop and math.isfinite(self.duration) and self.duration > 0
        if not looping:
            index = bisect.bisect_right(changes, time)
            return changes[index] if index < len(changes) else math.inf
        offset = time % self.duration
        base = time - offset
        index = bisect.bisect_right(changes, offset)
        if index < len(changes):
            return base + changes[index]
        return base + self.duration + changes[0]

    def segment(self, time: float) -> tuple:
        """``(rate, until)``: the rate holding at ``time`` and the absolute
        time it next changes (``math.inf`` if never)."""
        return self.bandwidth_at(time), self.next_change(time)

    def mean_bandwidth(self) -> float:
        """Time-weighted mean bandwidth over one recorded period."""
        if len(self._times) == 1:
            return self._rates[0]
        total = 0.0
        for i, rate in enumerate(self._rates):
            start = self._times[i]
            end = self._times[i + 1] if i + 1 < len(self._times) else self.duration
            total += rate * (end - start)
        return total / self.duration

    def scaled(self, factor: float) -> "BandwidthTrace":
        """A copy of this trace with every rate multiplied by ``factor``."""
        if factor < 0:
            raise ValueError("factor cannot be negative")
        clone = BandwidthTrace(self._times, [r * factor for r in self._rates],
                               loop=self.loop)
        clone.duration = self.duration
        return clone

    def capped(self, cap_bytes_per_s: float) -> "BandwidthTrace":
        """A copy of this trace with rates clamped to ``cap`` (Dummynet-style
        throttling, used by the Table 4 cellular-throttling baseline)."""
        if cap_bytes_per_s < 0:
            raise ValueError("cap cannot be negative")
        clone = BandwidthTrace(
            self._times, [min(r, cap_bytes_per_s) for r in self._rates],
            loop=self.loop)
        clone.duration = self.duration
        return clone

    def samples(self, interval: float, duration: float) -> list:
        """Sample the trace every ``interval`` seconds for ``duration``."""
        count = max(1, int(math.ceil(duration / interval)))
        return [self.bandwidth_at(i * interval) for i in range(count)]

    def __repr__(self) -> str:
        return (f"<BandwidthTrace segments={len(self._rates)} "
                f"mean={self.mean_bandwidth() * 8 / 1e6:.2f}Mbps "
                f"loop={self.loop}>")


def constant_mbps(rate: float) -> BandwidthTrace:
    """Shorthand for a constant trace given a rate in Mbps."""
    return BandwidthTrace.constant(mbps(rate))
