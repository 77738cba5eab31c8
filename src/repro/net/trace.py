"""Time-varying bandwidth traces.

A :class:`BandwidthTrace` is a piecewise-constant function of simulated time
returning available bandwidth in **bytes per second**.  Traces are the
substitute for the paper's real WiFi/LTE links: the controlled experiments
use Dummynet-pinned constant rates, the trace-driven simulation (§7.2.2)
replays recorded profiles, and the field study uses fluctuating open-WiFi
bandwidth — each has a generator here.

All stochastic generators take an explicit seed and are fully deterministic.
The walks synthesize their samples on demand, :data:`BLOCK` at a time and
only as far as a query reads: a fleet session sized to a 220 s horizon
simulates ~25 s of it.  A generator's normal stream is prefix-consistent
(one 440-draw call equals a 64-draw call then a 376-draw call), so a trace
built block by block holds the same floats as one built whole.
"""

from __future__ import annotations

import bisect
import math
from functools import lru_cache
from itertools import islice
from typing import Any, Iterable, Iterator, List, Optional, Sequence

# numpy is imported inside the functions that use it, so reading a trace
# never loads it (docs/architecture.md, "Import boundary").

from .units import mbps


#: Samples a generated trace synthesizes at a time.
BLOCK = 64


def _sample_count(duration: float, interval: float) -> int:
    """Number of ``interval``-spaced samples covering ``duration``; rejects
    arguments that admit no such count before anything is drawn."""
    if not 0 < interval < math.inf:
        raise ValueError(
            f"interval must be positive and finite: {interval!r}")
    if not math.isfinite(duration):
        raise ValueError(f"duration must be finite: {duration!r}")
    return max(1, int(math.ceil(duration / interval)))


def _check_rates(rates: Sequence[float]) -> None:
    # min() keeps a leading NaN as its result, hiding any negative after
    # it; only then is the full scan needed.
    lowest = min(rates)
    if lowest < 0 or (lowest != lowest and any(r < 0 for r in rates)):
        raise ValueError("bandwidth cannot be negative")


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

    A trace is a prefix of its rates plus, while that prefix is short, a
    producer of the next :data:`BLOCK` of them; a trace built from
    explicit samples is one whose prefix is already complete.
    :meth:`bandwidth_at`, :meth:`next_change` and :meth:`segment` extend
    the prefix only as far as they read.  Every other accessor, pickling
    included, completes the trace first.
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
        _check_rates(rates)
        self._times: Sequence[float] = times
        self._rates: List[float] = rates
        # The producer of further rates; None once the prefix is whole.
        self._blocks: Optional[Iterator[List[float]]] = None
        self.loop = loop
        # Offsets (within one period) where the rate actually changes,
        # found so far among the first ``_scanned`` rates; scanned lazily
        # because constructors mutate ``duration`` afterwards.
        self._changes: List[float] = []
        self._scanned = 0
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
    def _on_demand(cls, blocks: Iterator[List[float]], count: int,
                   interval: float) -> "BandwidthTrace":
        """A looping trace of ``count`` samples ``interval`` apart whose
        rates ``blocks`` yields :data:`BLOCK` at a time.  The first block
        is drawn here, so arguments that fail the draw fail construction."""
        trace = cls.__new__(cls)
        trace._times = _sample_times(count, interval)
        trace._rates = []
        trace._blocks = blocks
        trace.loop = True
        trace._changes = []
        trace._scanned = 0
        trace.duration = count * interval
        trace._grow()
        return trace

    @classmethod
    def gaussian(cls, mean_bytes_per_s: float, sigma_fraction: float,
                 duration: float, interval: float,
                 seed: int) -> "BandwidthTrace":
        """Bounded-Gaussian fluctuation around a mean.

        This is the paper's synthetic profile (Table 1): instantaneous
        throughput with standard deviation ``sigma_fraction`` of the mean.
        Samples are clamped to stay non-negative (and below 2x mean so the
        mean is preserved approximately).  Built whole: its samples are
        independent, so whether one is negative is known only after all
        are drawn.
        """
        count = _sample_count(duration, interval)
        import numpy as np

        rng = np.random.default_rng(seed)
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
        ``reversion`` plus Gaussian innovation.  Synthesized on demand; the
        clamps keep every sample at or above ``0.05 * mean`` unless the
        mean is negative, when the first sample already is.
        """
        count = _sample_count(duration, interval)
        import numpy as np

        rng = np.random.default_rng(seed)
        sigma = sigma_fraction * mean_bytes_per_s
        innovation = sigma * math.sqrt(max(1e-9, 2 * reversion - reversion ** 2))
        return cls._on_demand(
            _walk_blocks(rng, count, mean_bytes_per_s, innovation, reversion),
            count, interval)

    @classmethod
    def with_dropouts(cls, base: "BandwidthTrace", dropouts:
                      Sequence[tuple], floor_bytes_per_s: float = 0.0
                      ) -> "BandwidthTrace":
        """Overlay blackout windows onto an existing trace.

        ``dropouts`` is a sequence of ``(start, end)`` intervals during which
        the bandwidth collapses to ``floor_bytes_per_s``.  Used for the
        scenario-2 field locations where open WiFi intermittently stalls.
        A window without ``start < end`` (empty, reversed or NaN) raises
        ``ValueError`` rather than silently overlaying nothing, and so does
        a negative floor under a window covering a sample.  The 0.1 s
        resampling reads ``base`` on demand, as far as it is itself read.
        """
        windows = list(dropouts)
        for start, end in windows:
            if not start < end:
                raise ValueError(
                    f"dropout window needs start < end: {(start, end)!r}")
        interval = 0.1
        horizon = base.duration if math.isfinite(base.duration) else (
            max(end for _, end in windows) + 1.0 if windows else 1.0)
        count = max(1, int(math.ceil(horizon / interval)))
        grid = _sample_times(count, interval)
        # The grid is ascending, so the samples with start <= t < end are
        # one slice of it.
        spans = [(bisect.bisect_left(grid, start),
                  bisect.bisect_left(grid, end)) for start, end in windows]
        if floor_bytes_per_s < 0 and any(low < high for low, high in spans):
            raise ValueError("bandwidth cannot be negative")
        return cls._on_demand(
            _dropout_blocks(base, grid, spans, floor_bytes_per_s),
            count, interval)

    @classmethod
    def mobility_walk(cls, peak_bytes_per_s: float, floor_bytes_per_s: float,
                      period: float, duration: float,
                      interval: float = 0.25, seed: int = 0,
                      jitter_fraction: float = 0.08) -> "BandwidthTrace":
        """WiFi bandwidth while walking away from and back toward an AP.

        Models the §7.3.4 mobility route: throughput follows a raised-cosine
        between ``peak`` (next to the AP) and ``floor`` (far side of the
        route) with period ``period`` seconds, plus small measurement jitter.
        Built whole: a cosine argument that overflows fails at whichever
        sample first reaches it.
        """
        count = _sample_count(duration, interval)
        import numpy as np

        rng = np.random.default_rng(seed)
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
    # Materialization
    # ------------------------------------------------------------------
    def _grow(self) -> None:
        """Append the producer's next block of rates."""
        block = next(self._blocks)
        _check_rates(block)
        self._rates.extend(block)
        if len(self._rates) == len(self._times):
            self._blocks = None

    def _complete(self) -> None:
        while self._blocks is not None:
            self._grow()

    def __getstate__(self) -> dict:
        # A producer holds a live generator, which cannot be pickled.  The
        # change scan is finished too: a shallow copy shares ``_changes``,
        # which must then never grow.
        self._complete()
        if self._scanned < len(self._times):
            self._scan_changes(math.inf)
        return self.__dict__

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
        self._complete()
        return list(self._rates)

    def bandwidth_at(self, time: float) -> float:
        """Available bandwidth (bytes/second) at simulated ``time``."""
        if not time >= 0:
            raise ValueError(f"time cannot be negative or NaN: {time!r}")
        if self.loop and math.isfinite(self.duration) and self.duration > 0:
            time = time % self.duration
        index = bisect.bisect_right(self._times, time) - 1
        if index < 0:
            index = 0
        rates = self._rates
        while index >= len(rates):
            self._grow()
        return rates[index]

    def _scan_changes(self, offset: float) -> List[float]:
        """Offsets within one period at which the rate *actually* changes,
        scanned until one lies past ``offset`` or the trace is complete.

        Boundaries between equal-rate segments are dropped, so a trace built
        from identical samples reports no breakpoints at all.  For looping
        traces the wrap-around (``duration``) counts as a change when the
        last and first rates differ.
        """
        changes = self._changes
        rates = self._rates
        times = self._times
        while True:
            if self._scanned == len(rates):
                self._grow()
            start = max(1, self._scanned)
            changes.extend([t for prev, rate, t in
                            zip(rates[start - 1:], rates[start:],
                                times[start:len(rates)])
                            if rate != prev])
            self._scanned = len(rates)
            if self._blocks is None:
                if (self.loop and math.isfinite(self.duration)
                        and rates[-1] != rates[0]):
                    changes.append(self.duration)
                return changes
            if changes and changes[-1] > offset:
                return changes

    def next_change(self, time: float) -> float:
        """Absolute time of the first rate change strictly after ``time``.

        Returns ``math.inf`` when the rate never changes again (constant
        traces, non-looping traces past their last breakpoint, or traces
        whose samples all share one value).  This is the breakpoint iterator
        the event-driven kernel walks: between ``time`` and the returned
        instant, :meth:`bandwidth_at` is guaranteed constant.
        """
        if not time >= 0:
            raise ValueError(f"time cannot be negative or NaN: {time!r}")
        looping = self.loop and math.isfinite(self.duration) and self.duration > 0
        offset = time % self.duration if looping else time
        changes = self._changes
        index = bisect.bisect_right(changes, offset)
        if index == len(changes) and self._scanned < len(self._times):
            changes = self._scan_changes(offset)
            index = bisect.bisect_right(changes, offset)
        if not changes:
            return math.inf
        if not looping:
            return changes[index] if index < len(changes) else math.inf
        base = time - offset
        if index < len(changes):
            return base + changes[index]
        return base + self.duration + changes[0]

    def segment(self, time: float) -> tuple:
        """``(rate, until)``: the rate holding at ``time`` and the absolute
        time it next changes (``math.inf`` if never)."""
        return self.bandwidth_at(time), self.next_change(time)

    def mean_bandwidth(self) -> float:
        """Time-weighted mean bandwidth over one recorded period."""
        self._complete()
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
        clone = BandwidthTrace(self._times, [r * factor for r in self.rates],
                               loop=self.loop)
        clone.duration = self.duration
        return clone

    def capped(self, cap_bytes_per_s: float) -> "BandwidthTrace":
        """A copy of this trace with rates clamped to ``cap`` (Dummynet-style
        throttling, used by the Table 4 cellular-throttling baseline)."""
        if cap_bytes_per_s < 0:
            raise ValueError("cap cannot be negative")
        clone = BandwidthTrace(
            self._times, [min(r, cap_bytes_per_s) for r in self.rates],
            loop=self.loop)
        clone.duration = self.duration
        return clone

    def samples(self, interval: float, duration: float) -> list:
        """Sample the trace every ``interval`` seconds for ``duration``."""
        count = max(1, int(math.ceil(duration / interval)))
        return [self.bandwidth_at(i * interval) for i in range(count)]

    def __repr__(self) -> str:
        return (f"<BandwidthTrace segments={len(self._times)} "
                f"mean={self.mean_bandwidth() * 8 / 1e6:.2f}Mbps "
                f"loop={self.loop}>")


def _walk_blocks(rng: Any, count: int, mean: float,
                 innovation: float, reversion: float
                 ) -> Iterator[List[float]]:
    """:meth:`BandwidthTrace.random_walk`'s samples, a block at a time,
    drawn from ``rng`` (a numpy ``Generator``)."""
    low = 0.05 * mean
    high = 2.5 * mean
    level = mean
    for start in range(0, count, BLOCK):
        # Block draws yield the same stream as ``count`` scalar draws;
        # the recursion keeps the scalar operation order.
        steps = rng.normal(0.0, innovation, min(BLOCK, count - start))
        block = []
        append = block.append
        for step in steps.tolist():
            level += reversion * (mean - level)
            level += step
            if level < low:
                level = low
            if level > high:
                level = high
            append(level)
        yield block


def _dropout_blocks(base: BandwidthTrace, grid: Sequence[float],
                    spans: List[tuple], floor: float
                    ) -> Iterator[List[float]]:
    """:meth:`BandwidthTrace.with_dropouts`' samples, a block at a time."""
    # Walk the base's segments with a cursor instead of one
    # ``bandwidth_at`` lookup per sample: sample times only grow, so the
    # cursor only moves forward, back to segment 0 on a wrap.  The base's
    # rate prefix is extended in place as the cursor passes its end.
    times = base._times
    rates = base._rates
    period = base.duration
    looping = base.loop and math.isfinite(period) and period > 0
    last = len(times) - 1
    index = 0
    previous = 0.0
    for first in range(0, len(grid), BLOCK):
        stop = min(first + BLOCK, len(grid))
        block = []
        append = block.append
        for t in grid[first:stop]:
            offset = t % period if looping else t
            if offset < previous:
                index = 0
            previous = offset
            while index < last and times[index + 1] <= offset:
                index += 1
            while index >= len(rates):
                base._grow()
            append(rates[index])
        for low, high in spans:
            low = max(low, first)
            high = min(high, stop)
            if low < high:
                block[low - first:high - first] = [floor] * (high - low)
        yield block


def constant_mbps(rate: float) -> BandwidthTrace:
    """Shorthand for a constant trace given a rate in Mbps."""
    return BandwidthTrace.constant(mbps(rate))
