"""The SVG scales, flame lanes, downsampler and radio panel against
their earlier, slower implementations.

The oracles below are the previous versions copied verbatim (renamed
``Old*``/``old_*``, and pointed at each other where they called one
another).  The current code must produce the same strings: the same
float bits through ``_Frame.sx``/``sy``, the same SVG text from
``flame_lanes`` and ``_radio_panel``, and the very same kept points from
``_downsample``, including for NaN, ``-0.0``, empty spans and ties.
"""

from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Sequence, Tuple
from xml.sax.saxutils import escape

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.analyzer import MultipathVideoAnalyzer
from repro.dash.events import PlayerEventLog
from repro.energy.devices import (DevicePowerProfile, GALAXY_NOTE,
                                  GALAXY_S3)
from repro.energy.model import radio_state_events
from repro.mptcp.activity import ActivityLog
from repro.obs.events import RadioStateChange
from repro.obs.report import (_downsample, _note, _panel, _radio_panel,
                               _tiles)
from repro.obs.svg import (_MARGINS, LaneSegment, _empty, _Frame, _svg,
                           flame_lanes, fmt, legend_html)


# ----------------------------------------------------------------------
# Oracles: the previous implementations, verbatim
# ----------------------------------------------------------------------
@dataclass
class OldFrame:
    """Pixel scales plus the shared axis/grid chrome."""

    width: int
    height: int
    x0: float
    x1: float
    y0: float
    y1: float
    margins: Tuple[int, int, int, int] = _MARGINS

    @property
    def left(self) -> float:
        return float(self.margins[0])

    @property
    def top(self) -> float:
        return float(self.margins[1])

    @property
    def right(self) -> float:
        return float(self.width - self.margins[2])

    @property
    def bottom(self) -> float:
        return float(self.height - self.margins[3])

    def sx(self, x: float) -> float:
        span = self.x1 - self.x0
        if span <= 0:
            return self.left
        return self.left + (x - self.x0) / span * (self.right - self.left)

    def sy(self, y: float) -> float:
        span = self.y1 - self.y0
        if span <= 0:
            return self.bottom
        return self.bottom - (y - self.y0) / span * (self.bottom - self.top)

    # The chrome did not change; it reads the properties above.
    chrome = _Frame.chrome


def old_flame_lanes(lanes: Sequence[Tuple[str, Sequence[LaneSegment]]], *,
                    width: int = 720, lane_height: int = 18,
                    x_label: str = "time (s)", x_min: Optional[float] = None,
                    x_max: Optional[float] = None, title: str = "") -> str:
    """Horizontal interval lanes (span trees, radio states).

    ``lanes`` is an ordered list of (label, segments); every segment is
    drawn as a rounded bar on its lane, classed by ``segment.css``.
    """
    lanes = list(lanes)
    segments = [seg for _, segs in lanes for seg in segs]
    if not lanes or not segments:
        return _empty(width, 60, "no intervals")
    x0 = min(seg.start for seg in segments) if x_min is None else x_min
    x1 = max(seg.end for seg in segments) if x_max is None else x_max
    gap = 6
    height = _MARGINS[1] + _MARGINS[3] + len(lanes) * (lane_height + gap)
    frame = OldFrame(width, height, x0, x1, 0.0, 1.0)
    parts = frame.chrome(x_label, "", y_ticks=[])
    for row, (label, segs) in enumerate(lanes):
        top = frame.top + row * (lane_height + gap)
        parts.append(f'<text class="tick" text-anchor="end" '
                     f'x="{fmt(frame.left - 6)}" '
                     f'y="{fmt(top + lane_height / 2 + 3)}">'
                     f'{escape(label)}</text>')
        for seg in segs:
            left = frame.sx(max(seg.start, x0))
            right = frame.sx(min(seg.end, x1))
            seg_width = max(right - left, 1.0)
            tooltip = (f"<title>{escape(seg.label)}</title>"
                       if seg.label else "")
            parts.append(f'<rect class="fill {escape(seg.css)}" rx="2" '
                         f'x="{fmt(left)}" y="{fmt(top)}" '
                         f'width="{fmt(seg_width)}" '
                         f'height="{lane_height}">{tooltip}</rect>')
    return _svg(width, height, parts, title=title)


def old_downsample(points: Sequence[Tuple[float, float]],
                   limit: int = 360) -> List[Tuple[float, float]]:
    """Max-pooling downsample: keep each stride's peak sample.

    Peaks (not means) because throughput/cwnd spikes are the signal; the
    kept points are real samples, so determinism is preserved.
    """
    if len(points) <= limit:
        return list(points)
    stride = -(-len(points) // limit)  # ceil
    kept: List[Tuple[float, float]] = []
    for start in range(0, len(points), stride):
        group = points[start:start + stride]
        kept.append(max(group, key=lambda p: p[1]))
    return kept


def old_session_radio_events(activity: ActivityLog,
                             device: DevicePowerProfile,
                             session_end: float) -> List[RadioStateChange]:
    """Radio transitions for every interface, merged in time order."""
    merged: List[RadioStateChange] = []
    for path in activity.paths():
        merged.extend(radio_state_events(activity, path,
                                         device.for_interface(path),
                                         session_end))
    merged.sort(key=lambda e: (e.time, e.path))
    return merged


class OldAnalyzer(MultipathVideoAnalyzer):
    def radio_timeline(self) -> List[RadioStateChange]:
        """Every interface's idle/active/tail transitions, time-ordered —
        the energy model's view of the session as typed events."""
        return old_session_radio_events(self.activity, self.device,
                                        self.session_duration)


def old_radio_panel(analyzer: Any, metrics: Any, duration: float) -> str:
    changes = analyzer.radio_timeline()
    by_path: Dict[str, List[Any]] = {}
    for change in changes:
        by_path.setdefault(change.path, []).append(change)
    lanes: List[Tuple[str, List[LaneSegment]]] = []
    for path in sorted(by_path):
        segments: List[LaneSegment] = []
        state, since = "idle", 0.0
        for change in by_path[path]:
            if change.time > since:
                segments.append(LaneSegment(
                    since, change.time, f"radio-{state}",
                    f"{state} {since:.1f}-{change.time:.1f}s"))
            state, since = change.state, change.time
        if duration > since:
            segments.append(LaneSegment(
                since, duration, f"radio-{state}",
                f"{state} {since:.1f}-{duration:.1f}s"))
        lanes.append((path, segments))
    if not lanes:
        return _panel("Radio states and energy",
                      _note("no radio activity in this trace"))
    chart = old_flame_lanes(lanes, x_label="time (s)", x_min=0.0,
                            x_max=duration,
                            title="radio power states per interface")
    legend = legend_html([("radio-active", "active"),
                          ("radio-tail", "tail"),
                          ("radio-idle", "idle")])
    energy = _tiles(
        [(f"{value:.1f}", "J", f"{path} energy")
         for path, value in sorted(metrics.energy_per_path.items())]
        + [(f"{metrics.radio_energy:.1f}", "J", "total radio energy")])
    return _panel("Radio states and energy", chart, legend, energy)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
#: Floats that stress the scale: any value at all, plus the edge cases
#: drawn often.
any_float = st.one_of(st.sampled_from([0.0, -0.0, 1.0, float("nan"),
                                       float("inf"), -float("inf")]),
                      st.floats())
#: Chart-range floats: the chrome's tick search needs a finite span.
chart_float = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 10.0,
                                         float("nan")]),
                        st.floats(-1e4, 1e4))
label = st.text(alphabet="ab<&> \"'", max_size=4)
css = st.sampled_from(["s1", "s2", "radio-active", "a&b", "x<y"])


@st.composite
def segment(draw):
    start = draw(chart_float)
    # Sub-pixel and zero widths as often as long bars and reversed ones.
    end = draw(st.one_of(
        chart_float,
        st.floats(0.0, 1e-3).map(lambda width: start + width)))
    return LaneSegment(start, end, draw(css), draw(label))


lanes_strategy = st.lists(
    st.tuples(label, st.lists(segment(), max_size=6)), max_size=4)


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@given(st.integers(60, 1000), st.integers(60, 400), any_float, any_float,
       any_float, any_float, st.lists(any_float, max_size=5))
@settings(max_examples=200, deadline=None)
def test_frame_scales_match_the_oracle(width, height, x0, x1, y0, y1,
                                       values):
    new = _Frame(width, height, x0, x1, y0, y1)
    old = OldFrame(width, height, x0, x1, y0, y1)
    for value in values + [x0, x1, y0, y1]:
        assert repr(new.sx(value)) == repr(old.sx(value))
        assert repr(new.sy(value)) == repr(old.sy(value))
    assert (new.left, new.top, new.right, new.bottom) == \
        (old.left, old.top, old.right, old.bottom)


@given(lanes_strategy, st.one_of(st.none(), chart_float),
       st.one_of(st.none(), chart_float), st.integers(100, 900),
       st.integers(4, 30))
@settings(max_examples=200, deadline=None)
def test_flame_lanes_match_the_oracle(lanes, x_min, x_max, width,
                                      lane_height):
    kwargs = dict(width=width, lane_height=lane_height, x_min=x_min,
                  x_max=x_max, title="t")
    assert flame_lanes(lanes, **kwargs) == old_flame_lanes(lanes, **kwargs)


@given(lanes_strategy.filter(lambda lanes: any(segs for _, segs in lanes)),
       chart_float)
@settings(max_examples=100, deadline=None)
def test_flame_lanes_with_an_empty_range_match_the_oracle(lanes, edge):
    """``x_min == x_max``: every segment collapses onto the left edge."""
    assert flame_lanes(lanes, x_min=edge, x_max=edge) == \
        old_flame_lanes(lanes, x_min=edge, x_max=edge)


def test_flame_lanes_edge_cases_match_the_oracle():
    nan = float("nan")
    cases = [
        [("a", [LaneSegment(-5.0, 50.0, "s1")])],
        [("a", [LaneSegment(-0.0, 0.0, "s1"), LaneSegment(0.0, -0.0, "s2")])],
        [("a", [LaneSegment(nan, 3.0, "s1", "n")]),
         ("b", [LaneSegment(1.0, nan, "s2")])],
        [("a", [LaneSegment(1.0, 1.0 + 1e-9, "s1", "sliver")])],
        [("a", []), ("b", [LaneSegment(0, 1, "s1")])],
    ]
    for lanes in cases:
        for bounds in ((None, None), (0.0, 10.0), (2.0, 2.0), (-0.0, 0.0),
                       (nan, 1.0), (0.0, nan)):
            kwargs = dict(x_min=bounds[0], x_max=bounds[1])
            assert flame_lanes(lanes, **kwargs) == \
                old_flame_lanes(lanes, **kwargs), (lanes, bounds)


@given(st.lists(st.tuples(st.integers(0, 50).map(float),
                          st.one_of(st.sampled_from([0.0, -0.0, 1.0,
                                                     float("nan")]),
                                    st.integers(-2, 2).map(float))),
                max_size=80),
       st.integers(1, 25))
@settings(max_examples=250, deadline=None)
def test_downsample_keeps_the_oracles_points(points, limit):
    """Few distinct values, so strides are full of ties."""
    new = _downsample(points, limit)
    old = old_downsample(points, limit)
    assert repr(new) == repr(old)
    assert [id(point) for point in new] == [id(point) for point in old]


PROFILES = [replace(GALAXY_NOTE, lte=replace(GALAXY_NOTE.lte, tail_time=t),
                    wifi=replace(GALAXY_NOTE.wifi, tail_time=t / 20))
            for t in (0.0, 0.05, 2.0)] + [GALAXY_NOTE, GALAXY_S3]


@st.composite
def activity_case(draw):
    duration = draw(st.sampled_from([0.35, 5.0, 20.0, 60.0]))
    activity = ActivityLog(draw(st.sampled_from([0.1, 0.25])))
    for path in draw(st.sampled_from([("wifi", "cellular"), ("wifi",),
                                      ("cellular",), ()])):
        # Bins before 0 or past the horizon leave a path listed but
        # without bursts, and so without a lane.
        quiet = draw(st.booleans())
        lo, hi = ((-3.0, -0.5) if quiet and draw(st.booleans()) else
                  (duration + 1.0, duration + 4.0) if quiet else
                  (0.0, duration))
        for _ in range(draw(st.integers(1 if quiet else 0, 30))):
            activity.record(draw(st.floats(lo, hi)), path,
                            draw(st.sampled_from([1.0, 1500.0, 4e5])))
    return activity, duration, draw(st.sampled_from(PROFILES))


@given(activity_case())
@settings(max_examples=150, deadline=None)
def test_radio_panel_matches_the_oracle(case):
    activity, duration, device = case
    metrics = SimpleNamespace(energy_per_path={"wifi": 1.25, "cellular": 3.5},
                              radio_energy=4.75)
    new = MultipathVideoAnalyzer(activity, PlayerEventLog(), duration,
                                 device)
    old = OldAnalyzer(activity, PlayerEventLog(), duration, device)
    assert _radio_panel(new, metrics, duration) == \
        old_radio_panel(old, metrics, duration)


def test_a_path_without_bursts_gets_no_lane():
    activity = ActivityLog(0.1)
    activity.record(1.0, "wifi", 1500.0)
    activity.record(-1.0, "cellular", 1500.0)
    assert activity.paths() == ["cellular", "wifi"]
    analyzer = MultipathVideoAnalyzer(activity, PlayerEventLog(), 10.0,
                                      GALAXY_NOTE)
    metrics = SimpleNamespace(energy_per_path={}, radio_energy=0.0)
    html = _radio_panel(analyzer, metrics, 10.0)
    assert ">wifi</text>" in html and ">cellular</text>" not in html
    assert html == old_radio_panel(
        OldAnalyzer(activity, PlayerEventLog(), 10.0, GALAXY_NOTE),
        metrics, 10.0)
