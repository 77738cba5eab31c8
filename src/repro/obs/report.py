"""Self-contained single-file HTML reports over the observability stack.

One honest principle: a report is a **pure function of a trace**.
:func:`session_report_html` consumes only a loaded
:class:`~repro.obs.trace_export.Trace` and derives every panel through
the same offline views the determinism tests pin (`metrics_from_trace`,
`registry_from_trace`, `check_trace`, `spans_from_trace`) — so rendering
live at the end of ``run_session(report=...)`` and rendering later from
the exported JSONL produce byte-identical files.  No wall clock, no
randomness, no external references: the output is one HTML document with
inline CSS and inline SVG, openable offline and diffable across runs.

The main generators:

* :func:`session_report_html` — the paper's figures for one session:
  the Figure-8 chunk strip, per-path throughput/cwnd/RTT timelines,
  buffer occupancy with stall shading, the deadline-slack distribution,
  the radio-state/energy timeline, invariant verdicts, and span lanes.
* :func:`fleet_report_html`, :func:`triage_report_html` and
  :func:`history_report_html` — a fleet campaign's population
  distributions, its recorded anomalies, and the run ledger's trends.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .check import ERROR, INFO, WARNING, CheckReport, _verdicts
from .events import StallEnd, StallStart
from .metrics import Histogram, MetricsRegistry, registry_from_trace
from .spans import STATUS_MISSED, Span
from .svg import (LaneSegment, Series, StripCell, bar_chart, cdf_chart,
                  escape, flame_lanes, histogram_chart, legend_html,
                  line_chart, series_class, strip_chart)
from .trace_export import Trace, _analysis

# ----------------------------------------------------------------------
# Stylesheet (inline; light and dark from the same document)
# ----------------------------------------------------------------------
_LIGHT_VARS = """\
color-scheme:light;--surface-1:#fcfcfb;--page:#f9f9f7;--ink-1:#0b0b0b;
--ink-2:#52514e;--ink-muted:#898781;--gridline:#e1e0d9;--baseline:#c3c2b7;
--border:rgba(11,11,11,0.10);
--series-1:#2a78d6;--series-2:#eb6834;--series-3:#1baf7a;--series-4:#eda100;
--series-5:#e87ba4;--series-6:#008300;--series-7:#4a3aa7;--series-8:#e34948;
--lvl-0:#86b6ef;--lvl-1:#5598e7;--lvl-2:#2a78d6;--lvl-3:#1c5cab;
--lvl-4:#104281;
--good:#0ca30c;--warning:#fab219;--serious:#ec835a;--critical:#d03b3b;"""

_DARK_VARS = """\
color-scheme:dark;--surface-1:#1a1a19;--page:#0d0d0d;--ink-1:#ffffff;
--ink-2:#c3c2b7;--ink-muted:#898781;--gridline:#2c2c2a;--baseline:#383835;
--border:rgba(255,255,255,0.10);
--series-1:#3987e5;--series-2:#d95926;--series-3:#199e70;--series-4:#c98500;
--series-5:#d55181;--series-6:#008300;--series-7:#9085e9;--series-8:#e66767;
--lvl-0:#184f95;--lvl-1:#256abf;--lvl-2:#3987e5;--lvl-3:#6da7ec;
--lvl-4:#9ec5f4;
--good:#0ca30c;--warning:#fab219;--serious:#ec835a;--critical:#d03b3b;"""

#: Every categorical slot sets ``--c``; marks read it.  The quality-level
#: ramp (``lvl0``-``lvl4``) and the radio states reuse the mechanism.
_SLOT_RULES = "".join(
    [f".s{i}{{--c:var(--series-{i})}}" for i in range(1, 9)]
    + [f".lvl{i}{{--c:var(--lvl-{i})}}" for i in range(5)]
    + [".radio-active{--c:var(--series-1)}",
       ".radio-tail{--c:var(--series-3)}",
       ".radio-idle{--c:var(--gridline)}",
       ".status-critical{--c:var(--critical)}"])

_CSS = f"""
body{{{_LIGHT_VARS}}}
@media (prefers-color-scheme:dark){{
:root:where(:not([data-theme="light"])) body{{{_DARK_VARS}}}}}
:root[data-theme="dark"] body{{{_DARK_VARS}}}
body{{margin:0;background:var(--page);color:var(--ink-1);
font:14px/1.5 system-ui,-apple-system,"Segoe UI",sans-serif;}}
main{{max-width:800px;margin:0 auto;padding:28px 16px 64px;}}
h1{{font-size:20px;margin:0 0 2px;}}
h2{{font-size:14px;margin:0 0 10px;color:var(--ink-1);}}
section.panel{{background:var(--surface-1);border:1px solid var(--border);
border-radius:8px;padding:16px;margin:16px 0;}}
.tiles{{display:flex;flex-wrap:wrap;gap:10px 26px;margin:4px 0;}}
.tile .v{{font-size:21px;font-weight:600;}}
.tile .v small{{font-size:12px;font-weight:400;color:var(--ink-2);}}
.tile .l{{font-size:11px;color:var(--ink-muted);}}
.row{{display:flex;gap:16px;flex-wrap:wrap;align-items:flex-start;}}
table{{border-collapse:collapse;width:100%;font-size:12.5px;
font-variant-numeric:tabular-nums;}}
th{{color:var(--ink-muted);text-align:left;font-weight:500;
border-bottom:1px solid var(--baseline);padding:3px 8px;}}
td{{border-bottom:1px solid var(--gridline);padding:3px 8px;
vertical-align:top;}}
.num{{text-align:right;}}th.num{{text-align:right;}}
.legend{{display:flex;gap:14px;font-size:12px;color:var(--ink-2);
margin:6px 0 2px;flex-wrap:wrap;}}
.key{{display:inline-flex;align-items:center;gap:5px;}}
.sw{{width:10px;height:10px;border-radius:2px;display:inline-block;
background:var(--c,var(--ink-muted));}}
svg.chart{{display:block;max-width:100%;height:auto;margin:6px 0;}}
svg text{{font-family:system-ui,-apple-system,"Segoe UI",sans-serif;}}
.grid{{stroke:var(--gridline);stroke-width:1;}}
.axis{{stroke:var(--baseline);stroke-width:1;}}
.tick{{fill:var(--ink-muted);font-size:10px;
font-variant-numeric:tabular-nums;}}
.axis-label{{fill:var(--ink-2);font-size:11px;}}
.value{{fill:var(--ink-2);font-size:10px;
font-variant-numeric:tabular-nums;}}
.refline{{stroke:var(--ink-muted);stroke-width:1;stroke-dasharray:4 3;}}
.line{{fill:none;stroke:var(--c,var(--ink-muted));stroke-width:2;
stroke-linejoin:round;stroke-linecap:round;}}
.dot{{fill:var(--c,var(--ink-muted));stroke:var(--surface-1);
stroke-width:2;}}
.fill{{fill:var(--c,var(--ink-muted));}}
.area{{fill:var(--c,var(--ink-muted));opacity:.85;}}
.shade{{fill:var(--serious);fill-opacity:.14;}}
.sw.shade{{background:var(--serious);opacity:.35;}}
.overlay{{fill:var(--ink-1);fill-opacity:.45;}}
.sw.overlay{{background:var(--ink-1);opacity:.45;}}
.badge{{display:inline-block;font-size:11px;line-height:1.5;
padding:0 7px;border-radius:9px;color:#ffffff;}}
.badge.critical{{background:var(--critical);}}
.badge.warning{{background:var(--warning);color:#0b0b0b;}}
.badge.good{{background:var(--good);}}
.badge.info{{background:var(--ink-muted);}}
.note{{color:var(--ink-muted);font-size:12.5px;margin:4px 0;}}
.mono{{font-family:ui-monospace,SFMono-Regular,Menlo,monospace;
font-size:11.5px;}}
ul.flat{{margin:4px 0;padding-left:20px;font-size:12.5px;}}
{_SLOT_RULES}
"""


# ----------------------------------------------------------------------
# Document scaffolding
# ----------------------------------------------------------------------
def _document(title: str, subtitle: str, sections: Sequence[str]) -> str:
    """The single self-contained document (XHTML-style well-formed)."""
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8"/>'
        f"<title>{escape(title)}</title>"
        f"<style>{_CSS}</style></head><body><main>"
        f"<h1>{escape(title)}</h1>"
        f'<p class="note">{escape(subtitle)}</p>'
        f'{"".join(sections)}'
        '<p class="note">Generated by <span class="mono">repro report'
        "</span> — a pure function of the trace; identical inputs render "
        "identical bytes.</p>"
        "</main></body></html>\n")


def _panel(title: str, *body: str) -> str:
    return (f'<section class="panel"><h2>{escape(title)}</h2>'
            f'{"".join(body)}</section>')


def _tiles(items: Sequence[Tuple[str, str, str]]) -> str:
    """Stat tiles: (value, unit, label) triplets."""
    tiles = "".join(
        f'<div class="tile"><div class="v">{escape(value)}'
        + (f"<small> {escape(unit)}</small>" if unit else "")
        + f'</div><div class="l">{escape(label)}</div></div>'
        for value, unit, label in items)
    return f'<div class="tiles">{tiles}</div>'


def _table(headers: Sequence[Tuple[str, bool]],
           rows: Sequence[Sequence[str]]) -> str:
    """Rows of pre-rendered (already escaped) cell HTML."""
    head = "".join(f'<th class="num">{escape(text)}</th>' if numeric
                   else f"<th>{escape(text)}</th>"
                   for text, numeric in headers)
    body = "".join(
        "<tr>" + "".join(
            f'<td class="num">{cell}</td>' if headers[i][1]
            else f"<td>{cell}</td>"
            for i, cell in enumerate(row)) + "</tr>"
        for row in rows)
    return (f"<table><thead><tr>{head}</tr></thead>"
            f"<tbody>{body}</tbody></table>")


def _note(text: str) -> str:
    return f'<p class="note">{escape(text)}</p>'


def _downsample(points: Sequence[Tuple[float, float]],
                limit: int = 360) -> List[Tuple[float, float]]:
    """Max-pooling downsample: keep each stride's peak sample.

    Peaks (not means) because throughput/cwnd spikes are the signal; the
    kept points are real samples, so determinism is preserved.
    """
    if len(points) <= limit:
        return list(points)
    stride = -(-len(points) // limit)  # ceil
    kept: List[Tuple[float, float]] = []
    best = peak = None
    for index, point in enumerate(points):
        if index % stride == 0:
            if index:
                kept.append(best)
            best, peak = point, point[1]
        elif point[1] > peak:
            # Only a strictly greater value replaces the kept point:
            # max()'s own rule, so ties keep the first peak.
            best, peak = point, point[1]
    kept.append(best)
    return kept


def _throughput_points(activity: Any, path: str, until: float,
                       limit: int = 360) -> List[Tuple[float, float]]:
    """``_downsample`` of ``path``'s (time, Mbit/s) bins over [0,
    ``until``], computed from its filled bins alone.

    Each stride starts at its first bin, empty or not (0 Mbit/s), and a
    later filled bin replaces it only when strictly greater, as
    :func:`_downsample` keeps them; empty bins never do.
    """
    width = activity.bin_width
    count = int(until / width) + 1
    filled = activity.filled_bins(path, until)
    if count <= limit:
        values = dict(filled)
        return [(i * width, values.get(i, 0.0) / width * 8.0 / 1e6)
                for i in range(count)]
    stride = -(-count // limit)  # ceil
    kept = [(k * stride * width, 0.0)
            for k in range((count - 1) // stride + 1)]
    peaks = [0.0] * len(kept)
    for index, num_bytes in filled:
        value = num_bytes / width * 8.0 / 1e6
        group = index // stride
        if index % stride == 0 or value > peaks[group]:
            kept[group] = (index * width, value)
            peaks[group] = value
    return kept


def _severity_badge(severity: str) -> str:
    css = {ERROR: "critical", WARNING: "warning", INFO: "info"}.get(
        severity, "info")
    return f'<span class="badge {css}">{escape(severity)}</span>'


def _confidence_badge(confidence: str) -> str:
    css = {"high": "good", "medium": "warning", "low": "info"}.get(
        confidence, "info")
    return f'<span class="badge {css}">{escape(confidence)}</span>'


# ----------------------------------------------------------------------
# Session report panels
# ----------------------------------------------------------------------
def _overview_panel(trace: Trace, metrics: Any) -> str:
    startup = ("-" if metrics.startup_delay is None
               else f"{metrics.startup_delay:.2f}")
    tiles = _tiles([
        (f"{trace.meta.session_duration:.1f}", "s", "session"),
        (f"{metrics.chunk_count}", "", "chunks"),
        (f"{metrics.mean_bitrate_mbps:.2f}", "Mbit/s", "mean bitrate"),
        (f"{metrics.quality_switches}", "", "quality switches"),
        (f"{metrics.stall_count}", "", "stalls"),
        (f"{metrics.total_stall_time:.2f}", "s", "stall time"),
        (startup, "s", "startup delay"),
        (f"{metrics.cellular_bytes / 1e6:.1f}", "MB", "cellular data"),
        (f"{metrics.cellular_fraction:.1%}", "", "cellular share"),
        (f"{metrics.radio_energy:.1f}", "J", "radio energy"),
    ])
    return _panel("Session overview", tiles)


def _chunk_strip_panel(analyzer: Any) -> str:
    from ..analysis.visualize import chunk_cells

    cells = chunk_cells(analyzer.chunk_views())
    if not cells:
        return _panel("Chunk downloads (Figure 8)",
                      _note("no chunks downloaded"))
    strip = strip_chart(
        [StripCell(
            x0=cell.start, x1=cell.end, height=cell.height_fraction,
            fill=cell.cellular_fraction, css=f"lvl{cell.level}",
            label=(f"chunk {cell.index}: level {cell.level}, "
                   f"{cell.size / 1e6:.2f} MB, "
                   f"{cell.cellular_fraction:.0%} cellular, "
                   f"{cell.start:.1f}-{cell.end:.1f}s"))
         for cell in cells],
        title="per-chunk quality, download window, and cellular share")
    levels = sorted({cell.level for cell in cells})
    legend = legend_html([(f"lvl{level}", f"level {level}")
                          for level in levels]
                         + [("overlay", "cellular share")])
    return _panel(
        "Chunk downloads (Figure 8)",
        _note("bar height = quality level, width = download window, "
              "dark fill = cellular byte share"),
        strip, legend)


def _path_panel(analyzer: Any, registry: MetricsRegistry,
                duration: float) -> str:
    paths = sorted(analyzer.activity.paths())
    parts: List[str] = []
    if paths:
        series = []
        for path in paths:
            series.append(Series(path, _throughput_points(
                analyzer.activity, path, analyzer.session_duration)))
        parts.append(line_chart(series, x_label="time (s)",
                                y_label="throughput (Mbit/s)",
                                title="per-path delivered throughput"))
        parts.append(legend_html([
            (series_class(i), path) for i, path in enumerate(paths)]))
    else:
        parts.append(_note("no transport activity in this trace"))

    sampled = [p for p in paths
               if registry.get("repro_path_cwnd_bytes", {"path": p})]
    if sampled:
        cwnd_series, rtt_series = [], []
        for path in sampled:
            cwnd = registry.get("repro_path_cwnd_bytes", {"path": path})
            rtt = registry.get("repro_path_rtt_seconds", {"path": path})
            cwnd_series.append(Series(path, _downsample(
                [(t, v / 1e3) for t, v in cwnd.samples])))
            if rtt is not None:
                rtt_series.append(Series(path, _downsample(
                    [(t, v * 1e3) for t, v in rtt.samples])))
        parts.append(
            '<div class="row">'
            + line_chart(cwnd_series, width=352, height=200,
                         x_label="time (s)", y_label="cwnd (kB)",
                         title="cwnd")
            + line_chart(rtt_series, width=352, height=200,
                         x_label="time (s)", y_label="RTT (ms)",
                         y_min=None, title="RTT")
            + "</div>")
    else:
        parts.append(_note(
            "no PathSampled events in this trace (metrics collection was "
            "off), so cwnd/RTT timelines are unavailable"))
    return _panel("Path timelines", *parts)


def _buffer_panel(trace: Trace, registry: MetricsRegistry,
                  duration: float) -> str:
    buffer = registry.get("repro_buffer_level_seconds")
    samples = list(buffer.samples) if buffer is not None else []
    stalls: List[Tuple[float, float]] = []
    open_stall: Optional[float] = None
    for event in trace.events:
        if isinstance(event, StallStart):
            open_stall = event.time
        elif isinstance(event, StallEnd) and open_stall is not None:
            stalls.append((open_stall, event.time))
            open_stall = None
    if open_stall is not None:
        stalls.append((open_stall, duration))
    if not samples:
        return _panel("Buffer occupancy",
                      _note("no chunk requests in this trace"))
    chart = line_chart(
        [Series("buffer level", samples)], step=True, x_label="time (s)",
        y_label="buffer (s)",
        shades=[(a, b, "shade") for a, b in stalls],
        title="playback buffer occupancy with stall windows")
    entries = [("s1", "buffer level")]
    if stalls:
        entries.append(("shade", f"stall ({len(stalls)})"))
    return _panel("Buffer occupancy", chart, legend_html(entries))


def _slack_panel(registry: MetricsRegistry) -> str:
    histogram = registry.get("repro_deadline_slack_seconds")
    if histogram is None or histogram.count == 0:
        return _panel(
            "Deadline slack",
            _note("no deadline slack observations (MP-DASH deadlines "
                  "were never armed in this trace)"))
    payload = histogram.to_dict()
    late = sum(count for bound, count
               in zip(histogram.bounds, histogram.counts) if bound <= 0)
    stats = _tiles([
        (f"{histogram.count}", "", "deadlines"),
        (f"{late}", "", "negative slack"),
        (f"{histogram.quantile(0.5):.2f}", "s", "median slack"),
        (f"{histogram.quantile(0.95):.2f}", "s", "p95 slack"),
        (f"{histogram.min:.2f}", "s", "min"),
        (f"{histogram.max:.2f}", "s", "max"),
    ])
    row = ('<div class="row">'
           + histogram_chart(payload, x_label="slack (s)", refs=(0.0,),
                             title="deadline slack distribution")
           + cdf_chart(payload, x_label="slack (s)", refs=(0.0,),
                       title="deadline slack CDF")
           + "</div>")
    return _panel(
        "Deadline slack", stats, row,
        _note("slack = deadline minus completion time; left of the "
              "dashed line the deadline was missed"))


def _radio_panel(analyzer: Any, metrics: Any, duration: float) -> str:
    lanes: List[Tuple[str, List[LaneSegment]]] = []
    for path in analyzer.activity.paths():
        # One path's transitions come from one walk over its bursts in
        # bin order, so their times never decrease.  Merging every
        # path's and stable-sorting by (time, path), then splitting by
        # path again, would hand back this same list; a path with no
        # bursts has no transitions and, as there, no lane.
        changes = analyzer.radio_transitions(path, duration)
        if not changes:
            continue
        segments: List[LaneSegment] = []
        state, since = "idle", 0.0
        for time, new_state in changes:
            if time > since:
                segments.append(LaneSegment(
                    since, time, f"radio-{state}",
                    f"{state} {since:.1f}-{time:.1f}s"))
            state, since = new_state, time
        if duration > since:
            segments.append(LaneSegment(
                since, duration, f"radio-{state}",
                f"{state} {since:.1f}-{duration:.1f}s"))
        lanes.append((path, segments))
    if not lanes:
        return _panel("Radio states and energy",
                      _note("no radio activity in this trace"))
    chart = flame_lanes(lanes, x_label="time (s)", x_min=0.0,
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


def _violations_panel(report: CheckReport) -> str:
    counts = report.by_severity()
    summary = _note(
        f"checked {report.events} events with {len(report.checkers)} "
        f"checkers: {counts[ERROR]} error(s), {counts[WARNING]} "
        f"warning(s), {counts[INFO]} info")
    if not report.violations:
        return _panel("Invariant verdicts", summary,
                      '<p><span class="badge good">all invariants hold'
                      "</span></p>")
    rows = []
    for violation in report.violations:
        events = ",".join(str(i) for i in violation.events)
        rows.append([
            _severity_badge(violation.severity),
            f"{violation.time:.3f}",
            f'<span class="mono">{escape(violation.checker)}</span>',
            escape(violation.message),
            f'<span class="mono">{escape(events)}</span>'])
    table = _table([("severity", False), ("t (s)", True),
                    ("checker", False), ("message", False),
                    ("events", False)], rows)
    return _panel("Invariant verdicts", summary, table)


def _attribution_panel(trace: Trace) -> str:
    """Root-cause verdicts for the session's anomalies (repro why)."""
    from .why import attributions_from_trace, summarize_attributions

    attributions = attributions_from_trace(trace)
    if not attributions:
        return _panel(
            "Root-cause attribution",
            _note("no anomalies to attribute: no deadline misses, "
                  "stalls, or ERROR violations in this session"))
    summary = summarize_attributions(attributions)
    rows = []
    for attribution in attributions:
        where = ("-" if attribution.chunk is None
                 else f"chunk {attribution.chunk}")
        slack = ("-" if attribution.slack is None
                 else f"{attribution.slack:.2f}")
        rows.append([
            escape(attribution.kind), escape(where),
            f"{attribution.time:.2f}", escape(attribution.layer),
            f'<span class="mono">{escape(attribution.cause)}</span>',
            _confidence_badge(attribution.confidence), slack,
            escape(attribution.counterfactual or attribution.message)])
    table = _table([("kind", False), ("where", False), ("t (s)", True),
                    ("layer", False), ("cause", False),
                    ("confidence", False), ("slack (s)", True),
                    ("counterfactual", False)], rows)
    note = _note(
        f"{summary['total']} anomaly verdict(s); dominant cause "
        f"{summary['top_cause']} (layer {summary['top_layer']}); "
        f"slack = the counterfactual seconds the blamed decision cost")
    return _panel("Root-cause attribution", note, table)


#: Span kinds worth a lane, in causal order (the session root span is
#: omitted — it would be one full-width bar).
_SPAN_LANES = ("chunk", "request", "transfer", "deadline", "stall")


def _spans_panel(spans: List[Span], duration: float) -> str:
    if not spans:
        return _panel("Causal spans", _note("no spans in this trace"))
    lanes: List[Tuple[str, List[LaneSegment]]] = []
    lane_css: Dict[str, str] = {}
    for index, kind in enumerate(_SPAN_LANES):
        members = [span for span in spans if span.kind == kind]
        if not members:
            continue
        lane_css[kind] = series_class(index)
        segments = []
        for span in members:
            end = span.end if span.end is not None else duration
            css = ("status-critical" if span.status == STATUS_MISSED
                   else lane_css[kind])
            segments.append(LaneSegment(
                span.start, end, css,
                f"{span.name} {span.start:.2f}-{end:.2f}s"
                f" [{span.status}]"))
        lanes.append((kind, segments))
    chart = flame_lanes(lanes, x_label="time (s)", x_min=0.0,
                        x_max=duration, title="causal span lanes")
    entries: List[Tuple[str, str]] = [
        (lane_css[kind], kind) for kind, _ in lanes]
    entries.append(("status-critical", "missed deadline"))
    return _panel("Causal spans",
                  _note(f"{len(spans)} spans; the life of each chunk "
                        f"from request to delivery"),
                  chart, legend_html(entries))


def session_report_html(trace: Trace) -> str:
    """Render one session's full report from its (loaded) trace.

    A pure function: every panel is computed through the offline derived
    views, so live rendering at session end and offline rendering from
    the exported JSONL produce byte-identical documents.
    """
    if trace.meta.session_duration <= 0:
        # Degenerate (empty) traces still render, with fallback panels;
        # the analyzer needs a positive horizon.
        trace = Trace(meta=replace(trace.meta, session_duration=1.0),
                      events=trace.events)
    # The shared verdicts and spans themselves, not the public calls'
    # copies: no panel edits what it reads.
    analysis = _analysis(trace)
    analyzer = analysis.analyzer()
    metrics = analyzer.metrics(trace.meta.steady_state_fraction)
    registry = registry_from_trace(trace)
    verdicts = _verdicts(trace)
    spans = analysis.spans
    duration = trace.meta.session_duration
    subtitle = (f"device {trace.meta.device} | {len(trace.events)} events "
                f"| {duration:.1f}s session | trace format v"
                f"{trace.meta.version}")
    return _document("MP-DASH session report", subtitle, [
        _overview_panel(trace, metrics),
        _chunk_strip_panel(analyzer),
        _path_panel(analyzer, registry, duration),
        _buffer_panel(trace, registry, duration),
        _slack_panel(registry),
        _radio_panel(analyzer, metrics, duration),
        _violations_panel(verdicts),
        _attribution_panel(trace),
        _spans_panel(spans, duration),
    ])


# ----------------------------------------------------------------------
# Fleet report
# ----------------------------------------------------------------------
def _fleet_histogram(registry: MetricsRegistry,
                     name: str) -> Optional[Histogram]:
    metric = registry.get(name)
    if isinstance(metric, Histogram) and metric.count:
        return metric
    return None


def _labeled_counts(registry: MetricsRegistry, name: str,
                    label: str) -> List[Tuple[str, float]]:
    """(label value, count) pairs of one labeled counter family."""
    pairs: List[Tuple[str, float]] = []
    for metric in registry:
        if metric.name == name and dict(metric.labels).get(label):
            pairs.append((dict(metric.labels)[label], metric.value))
    return pairs


def _fleet_overview_panel(result: Any) -> str:
    resumed = getattr(result, "resumed_shards", 0)
    shards = f"{result.shards_done}/{result.total_shards}"
    if resumed:
        shards += f" ({resumed} resumed)"
    rate = (result.sim_seconds / result.wall_clock
            if result.wall_clock > 0 else 0.0)
    return _panel("Fleet overview", _tiles([
        (f"{result.sessions}", "", "sessions simulated"),
        (f"{result.failures}", "", "session failures"),
        (shards, "", "shards"),
        (f"{result.jobs}", "", "workers"),
        (f"{result.wall_clock:.1f}", "s", "wall clock"),
        (f"{result.sim_seconds:.0f}", "s", "simulated time"),
        (f"{rate:.0f}x", "", "sim/wall"),
    ]))


def _fleet_qoe_panel(registry: MetricsRegistry) -> str:
    parts: List[str] = []
    bitrate = _fleet_histogram(registry, "repro_fleet_bitrate_mbps")
    if bitrate is not None:
        payload = bitrate.to_dict()
        parts.append(_note(
            f"mean bitrate over {bitrate.count} sessions "
            f"(p50 = {bitrate.quantile(0.5):.2f}, "
            f"p95 = {bitrate.quantile(0.95):.2f} Mbit/s)"))
        parts.append('<div class="row">'
                     + histogram_chart(payload, x_label="Mbit/s",
                                       title="population mean bitrate")
                     + cdf_chart(payload, x_label="Mbit/s",
                                 title="population bitrate CDF")
                     + "</div>")
    stalls = _fleet_histogram(registry, "repro_fleet_stall_seconds")
    stall_count = _fleet_histogram(registry, "repro_fleet_stall_count")
    row: List[str] = []
    if stalls is not None:
        row.append(histogram_chart(
            stalls.to_dict(), width=352, x_label="stall time (s)",
            css="s2", title="stall time per session"))
    if stall_count is not None:
        row.append(histogram_chart(
            stall_count.to_dict(), width=352, x_label="stalls",
            css="s3", title="stall count per session"))
    if row:
        parts.append(f'<div class="row">{"".join(row)}</div>')
    if not parts:
        parts.append(_note("no sessions folded yet"))
    return _panel("Population QoE", *parts)


def _fleet_cellular_panel(registry: MetricsRegistry) -> str:
    parts: List[str] = []
    fraction = _fleet_histogram(registry, "repro_fleet_cellular_fraction")
    if fraction is not None:
        payload = fraction.to_dict()
        parts.append(_note(
            f"cellular byte share over {fraction.count} multipath "
            f"sessions (p50 = {fraction.quantile(0.5):.1%})"))
        parts.append('<div class="row">'
                     + histogram_chart(payload, x_label="cellular share",
                                       title="cellular byte share")
                     + cdf_chart(payload, x_label="cellular share",
                                 title="cellular share CDF")
                     + "</div>")
    row: List[str] = []
    mbytes = _fleet_histogram(registry, "repro_fleet_cellular_mbytes")
    if mbytes is not None:
        row.append(histogram_chart(
            mbytes.to_dict(), width=352, x_label="cellular MB", css="s2",
            title="cellular data per session"))
    energy = _fleet_histogram(registry, "repro_fleet_radio_energy_joules")
    if energy is not None:
        row.append(histogram_chart(
            energy.to_dict(), width=352, x_label="energy (J)", css="s4",
            title="radio energy per session"))
    if row:
        parts.append(f'<div class="row">{"".join(row)}</div>')
    if not parts:
        parts.append(_note("no multipath sessions folded yet"))
    return _panel("Cellular usage and energy", *parts)


def _fleet_deadline_panel(registry: MetricsRegistry) -> str:
    total = registry.get("repro_fleet_deadline_misses_total")
    misses = _fleet_histogram(registry, "repro_fleet_deadline_misses")
    if misses is None:
        return _panel("Deadline misses",
                      _note("no deadline observations (baseline scheme "
                            "or no sessions folded)"))
    clean = misses.counts[0] if misses.bounds[0] >= 1.0 else 0
    tiles = _tiles([
        (f"{int(total.value) if total else 0}", "", "misses total"),
        (f"{misses.count - clean}", "", "sessions with misses"),
        (f"{clean / misses.count:.1%}" if misses.count else "-", "",
         "miss-free sessions"),
    ])
    chart = histogram_chart(misses.to_dict(), width=352,
                            x_label="misses per session", css="s8",
                            title="deadline misses per session")
    return _panel("Deadline misses", tiles, chart)


def _fleet_mix_panel(registry: MetricsRegistry) -> str:
    parts: List[str] = []
    arrivals = _fleet_histogram(registry, "repro_fleet_arrival_hour")
    if arrivals is not None:
        parts.append(histogram_chart(
            arrivals.to_dict(), x_label="arrival hour (local)",
            title="session arrivals by hour"))
    row: List[str] = []
    scenarios = _labeled_counts(registry, "repro_fleet_sessions_total",
                                "scenario")
    if scenarios:
        order = {"never": 0, "sometimes": 1, "always": 2}
        scenarios.sort(key=lambda pair: order.get(pair[0], 9))
        row.append(bar_chart([name for name, _ in scenarios],
                             [count for _, count in scenarios],
                             width=352, height=190, y_label="sessions",
                             value_format="{:.0f}",
                             title="sessions by WiFi scenario"))
    devices = _labeled_counts(registry,
                              "repro_fleet_sessions_by_device_total",
                              "device")
    if devices:
        devices.sort()
        row.append(bar_chart([name for name, _ in devices],
                             [count for _, count in devices],
                             width=352, height=190, y_label="sessions",
                             value_format="{:.0f}",
                             title="sessions by device"))
    if row:
        parts.append(f'<div class="row">{"".join(row)}</div>')
    if not parts:
        parts.append(_note("no arrival observations yet"))
    return _panel("Workload mix", *parts)


def _fleet_attribution_panel(registry: MetricsRegistry) -> str:
    """Root-cause breakdown folded from every shard's attribution walks.

    Always rendered: a zero-anomaly fleet states so explicitly instead
    of omitting the section, so two campaign reports always diff
    section-for-section.
    """
    pairs: List[Tuple[str, str, float]] = []
    for metric in registry:
        if metric.name == "repro_fleet_attribution_total":
            labels = dict(metric.labels)
            if labels.get("cause"):
                pairs.append((labels["cause"],
                              labels.get("layer", "unknown"),
                              metric.value))
    if not pairs:
        return _panel(
            "Root-cause attribution",
            _note("no anomalies captured: every judged session was "
                  "free of deadline misses, stalls, and ERROR "
                  "violations"))
    pairs.sort(key=lambda entry: (-entry[2], entry[0]))
    total = sum(count for _, _, count in pairs)
    shares = ", ".join(
        f"{count / total:.0%} {cause} ({layer})"
        for cause, layer, count in pairs)
    parts = [_note(f"{total:.0f} anomaly verdict(s) across the fleet: "
                   f"{shares}"),
             bar_chart([cause for cause, _, _ in pairs],
                       [count for _, _, count in pairs],
                       width=720, height=200, y_label="anomalies",
                       value_format="{:.0f}",
                       title="anomalies by attributed root cause")]
    confidences = _labeled_counts(
        registry, "repro_fleet_attribution_confidence_total",
        "confidence")
    if confidences:
        order = {"high": 0, "medium": 1, "low": 2}
        confidences.sort(key=lambda pair: order.get(pair[0], 9))
        parts.append(_note("verdict confidence: " + ", ".join(
            f"{name} {count:.0f}" for name, count in confidences)))
    return _panel("Root-cause attribution", *parts)


def _fleet_failures_panel(result: Any) -> Optional[str]:
    errors = list(getattr(result, "errors", ()))
    if not result.failures and not errors:
        return None
    parts = [_note(f"{result.failures} session(s) failed and were "
                   f"excluded from the population distributions")]
    if errors:
        items = "".join(f'<li><span class="mono">{escape(e)}</span></li>'
                        for e in errors)
        dropped = int(getattr(result, "errors_dropped", 0))
        if dropped:
            items += (f'<li><span class="mono">(+{dropped} more '
                      f"failure(s) beyond the bounded sample)"
                      "</span></li>")
        parts.append(f'<ul class="flat">{items}</ul>')
    return _panel("Session failures", *parts)


def _anomaly_row(record: Mapping[str, Any],
                 link: Optional[str]) -> List[str]:
    def num(value: Any, fmt: str = "{:.2f}") -> str:
        return "-" if value is None else fmt.format(value)

    index = int(record.get("index", 0))
    session = (f'<a href="{escape(link)}">#{index}</a>'
               if link else f"#{index}")
    artifact = record.get("artifact")
    attribution = record.get("attribution") or {}
    cause = attribution.get("top_cause")
    return [session, f"{record.get('shard', '-')}",
            escape(str(record.get("reason", "-"))),
            num(record.get("score")), num(record.get("qoe")),
            num(record.get("misses"), "{:.0f}"),
            num(record.get("stalls"), "{:.0f}"),
            (f'<span class="mono">{escape(str(cause))}</span>'
             if cause else "-"),
            (f'<span class="mono">{escape(str(artifact))}</span>'
             if artifact else "-")]


_ANOMALY_HEADERS = [("session", False), ("shard", True),
                    ("reason", False), ("score", True), ("qoe", True),
                    ("misses", True), ("stalls", True),
                    ("top cause", False), ("artifact", False)]


def _fleet_anomalies_panel(result: Any,
                           anomaly_links: Optional[Mapping[int, str]]
                           ) -> Optional[str]:
    """Flight-recorder summary plus the worst captured sessions.

    Rendered only when the campaign ran with the recorder armed; rows
    are ranked worst-first and capped, and sessions with a rendered mini
    report (``anomaly_links``) link straight to it.
    """
    stats = getattr(result, "recorder", None)
    if stats is None:
        return None
    from .recorder import rank_anomalies

    links = dict(anomaly_links or {})
    parts = [_tiles([
        (f"{stats.get('sessions', 0)}", "", "sessions judged"),
        (f"{stats.get('captured', 0)}", "", "traces captured"),
        (f"{stats.get('oversized', 0)}", "", "oversized (dropped)"),
        (f"{stats.get('bytes_written', 0) / 1e6:.2f}", "MB",
         "artifact bytes"),
    ])]
    by_reason = stats.get("by_reason", {})
    if any(by_reason.values()):
        parts.append(_note("captures by reason: " + ", ".join(
            f"{reason} {count}" for reason, count in by_reason.items()
            if count)))
    ranked = rank_anomalies(getattr(result, "anomalies", []), top=20)
    if ranked:
        parts.append(_table(_ANOMALY_HEADERS, [
            _anomaly_row(record, links.get(int(record.get("index", -1))))
            for record in ranked]))
        total = len(getattr(result, "anomalies", []))
        if total > len(ranked):
            parts.append(_note(f"showing the worst {len(ranked)} of "
                               f"{total} captured sessions"))
    else:
        parts.append(_note("no sessions crossed a capture trigger"))
    return _panel("Captured anomalies", *parts)


def fleet_report_html(result: Any,
                      anomaly_links: Optional[Mapping[int, str]] = None
                      ) -> str:
    """Render a fleet campaign's population-distribution report.

    ``result`` is duck-typed (a
    :class:`~repro.experiments.fleet.FleetResult`): this module reads
    only its registry and plain counters, never the experiment layer.
    A pure function of the merged registry, so jobs=1 and jobs=N runs
    of the same campaign render byte-identical documents.
    ``anomaly_links`` maps captured session indices to (relative) hrefs
    of rendered mini session reports; see
    :meth:`~repro.experiments.fleet.FleetResult.export_report`.
    """
    registry = result.registry
    config = getattr(result, "config", None)
    bits = [f"{result.sessions} sessions"]
    if config is not None:
        bits += [f"{config.arrival} arrivals", f"seed {config.seed}",
                 f"scheme {config.scheme}"]
    bits.append(f"{result.jobs} worker(s)")
    if not getattr(result, "completed", True):
        bits.append("partial campaign")
    sections = [
        _fleet_overview_panel(result),
        _fleet_qoe_panel(registry),
        _fleet_cellular_panel(registry),
        _fleet_deadline_panel(registry),
        _fleet_attribution_panel(registry),
        _fleet_mix_panel(registry),
    ]
    anomalies = _fleet_anomalies_panel(result, anomaly_links)
    if anomalies is not None:
        sections.append(anomalies)
    failures = _fleet_failures_panel(result)
    if failures is not None:
        sections.append(failures)
    return _document("MP-DASH fleet report", " | ".join(bits), sections)


def triage_report_html(records: Sequence[Mapping[str, Any]],
                       fleet_key: str = "",
                       links: Optional[Mapping[int, str]] = None,
                       replays: Optional[Mapping[int, Mapping[str, Any]]]
                       = None) -> str:
    """Standalone anomaly-triage document (the ``repro triage --html``
    output): ranked capture records, offline replay verdicts, and links
    to rendered mini session reports."""
    links = dict(links or {})
    replays = dict(replays or {})
    sections: List[str] = []
    if records:
        rows = []
        for record in records:
            index = int(record.get("index", -1))
            row = _anomaly_row(record, links.get(index))
            replay = replays.get(index)
            if replay is None:
                row.append("-")
            elif not replay.get("replayed"):
                row.append(escape(str(replay.get("error", "-"))))
            else:
                verdicts = replay.get("violations", {})
                match = ("identical" if replay.get("matches_recorded")
                         else "MISMATCH")
                row.append(escape(
                    f"{verdicts.get('error', 0)} error / "
                    f"{verdicts.get('warning', 0)} warning ({match})"))
            rows.append(row)
        sections.append(_panel(
            "Ranked anomalies",
            _table(_ANOMALY_HEADERS + [("offline replay", False)], rows),
            _note("replay = the captured trace re-judged offline via "
                  "check_trace; 'identical' means the live and offline "
                  "verdicts agree")))
    else:
        sections.append(_panel(
            "Ranked anomalies",
            _note("no captured anomalies under this artifact root")))
    subtitle = (f"fleet {fleet_key[:16]}" if fleet_key
                else "anomaly triage")
    return _document("MP-DASH triage report",
                     f"{subtitle} | {len(records)} record(s)", sections)


# ----------------------------------------------------------------------
# Longitudinal history report (the run ledger's view)
# ----------------------------------------------------------------------
#: Metric leafs rendered first within each kind's trend panel; anything
#: else follows alphabetically.
_HISTORY_PRIORITY = (
    "qoe", "bitrate_mbps", "bitrate_p50_mbps", "deadline_misses",
    "stalled_session_fraction", "stall_seconds", "stall_seconds_p95",
    "cellular_mbytes", "cellular_mbytes_p50", "energy_joules",
    "radio_energy_p50_joules", "violations", "sim_per_wall",
    "wall_clock_seconds", "peak_rss_kb",
)


def _history_metric_order(metric: str) -> Tuple[int, str]:
    try:
        return (_HISTORY_PRIORITY.index(metric), metric)
    except ValueError:
        return (len(_HISTORY_PRIORITY), metric)


def _history_overview_panel(entries: Sequence[Any],
                            findings: Sequence[Any],
                            gate_passed: bool) -> str:
    by_kind: Dict[str, int] = {}
    for entry in entries:
        by_kind[entry.kind] = by_kind.get(entry.kind, 0) + 1
    by_severity: Dict[str, int] = {ERROR: 0, WARNING: 0, INFO: 0}
    for finding in findings:
        by_severity[finding.severity] += 1
    tiles = [(str(len(entries)), "", "ledger entries")]
    tiles.extend((str(count), "", f"{kind} runs")
                 for kind, count in sorted(by_kind.items()))
    tiles.append((str(by_severity[ERROR]), "", "error drift"))
    tiles.append((str(by_severity[WARNING]), "", "warning drift"))
    badge = ('<span class="badge good">gate: pass</span>'
             if gate_passed else
             '<span class="badge critical">gate: fail</span>')
    return _panel("History", _tiles(tiles), f"<p>{badge}</p>")


def _history_trend_panels(entries: Sequence[Any],
                          findings: Sequence[Any]) -> List[str]:
    from .drift import control_track, metric_series

    series_map = metric_series(entries)
    drifted: Dict[Tuple[str, str], List[Any]] = {}
    for finding in findings:
        drifted.setdefault((finding.kind, finding.metric),
                           []).append(finding)
    kinds: List[str] = []
    for entry in entries:
        if entry.kind not in kinds:
            kinds.append(entry.kind)
    panels: List[str] = []
    for kind in kinds:
        metrics = sorted((metric for k, metric in series_map if k == kind),
                         key=_history_metric_order)
        charts: List[str] = []
        for metric in metrics:
            points = series_map[(kind, metric)]
            values = [value for _, _, value in points]
            means, _stds = control_track(values)
            series = [Series(metric,
                             [(float(position), value)
                              for position, _, value in points]),
                      Series("ewma",
                             [(float(position), mean)
                              for (position, _, _), mean
                              in zip(points, means)])]
            lane_findings = drifted.get((kind, metric), [])
            refs = sorted({float(f.position) for f in lane_findings})
            title = metric
            worst = _worst_severity(lane_findings)
            if worst is not None:
                title = f"{metric} [{worst}]"
            charts.append(line_chart(
                series, width=352, height=190, y_label=metric,
                markers=True, y_min=None, refs=refs, title=title,
                x_label="ledger position"))
        if charts:
            panels.append(_panel(
                f"Trends: {kind}",
                legend_html([(series_class(0), "recorded"),
                             (series_class(1), "EWMA baseline")]),
                f'<div class="row">{"".join(charts)}</div>',
                _note("vertical lines mark drift findings at that "
                      "ledger position")))
    return panels


def _worst_severity(findings: Sequence[Any]) -> Optional[str]:
    for severity in (ERROR, WARNING, INFO):
        if any(f.severity == severity for f in findings):
            return severity
    return None


def _history_findings_panel(findings: Sequence[Any]) -> str:
    if not findings:
        return _panel("Drift findings",
                      _note("no drift detected across the ledger"))
    rows = [[_severity_badge(f.severity),
             escape(f"{f.kind}.{f.metric}"), escape(f.detector),
             escape(f.direction), str(f.position),
             f'<span class="mono">{escape(f.entry_id[:12])}</span>',
             escape(f.message)]
            for f in findings]
    return _panel(
        "Drift findings",
        _table([("severity", False), ("series", False),
                ("detector", False), ("direction", False),
                ("position", True), ("entry", False),
                ("finding", False)], rows))


def _history_entries_panel(entries: Sequence[Any]) -> str:
    rows = []
    for position, entry in enumerate(entries):
        environment = " ".join(
            f"{key}={value}"
            for key, value in sorted(entry.environment.items()))
        rows.append([str(position), escape(entry.kind),
                     f'<span class="mono">{escape(entry.entry_id[:12])}'
                     "</span>",
                     f'<span class="mono">{escape(entry.key[:12])}</span>',
                     escape(entry.label), str(len(entry.metrics)),
                     escape(environment)])
    return _panel(
        "Ledger entries",
        _table([("#", True), ("kind", False), ("entry", False),
                ("key", False), ("label", False), ("metrics", True),
                ("environment", False)], rows))


def history_report_html(entries: Sequence[Any],
                        findings: Optional[Sequence[Any]] = None,
                        warnings: Sequence[str] = ()) -> str:
    """Single-file longitudinal report over a loaded run ledger.

    A pure function of the entry sequence: the same ledger renders
    byte-identical HTML.  ``findings`` defaults to running the drift
    sentinel (:func:`~repro.obs.drift.detect_drift`) at its default
    tuning; ``warnings`` surfaces tolerated-load messages (corrupt
    ledger lines) in the document.
    """
    from .drift import detect_drift, gate_ok

    entries = list(entries)
    if findings is None:
        findings = detect_drift(entries)
    sections = [_history_overview_panel(entries, findings,
                                        gate_ok(findings))]
    sections.extend(_history_trend_panels(entries, findings))
    sections.append(_history_findings_panel(findings))
    if entries:
        sections.append(_history_entries_panel(entries))
    for warning in warnings:
        sections.append(_note(f"ledger warning: {warning}"))
    subtitle = (f"{len(entries)} ledger entr"
                f"{'y' if len(entries) == 1 else 'ies'}, "
                f"{len(findings)} drift finding(s)")
    return _document("MP-DASH run history", subtitle, sections)


def write_report(path: str, html: str) -> None:
    """Write a rendered report to ``path`` (UTF-8), creating its
    directory when missing."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(html)
