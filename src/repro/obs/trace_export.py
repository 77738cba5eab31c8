"""JSONL trace export, loading, and offline replay.

The paper's §6 analysis tool consumes a packet trace plus a player event
log captured on a device.  This module is the reproduction's equivalent
capture format: every bus event serialized as one JSON object per line,
preceded by a metadata header.  A dumped trace round-trips exactly —
floats survive via ``repr`` — so replaying it through a fresh bus rebuilds
byte-identical :class:`~repro.mptcp.activity.ActivityLog` /
:class:`~repro.dash.events.PlayerEventLog` views and therefore identical
:class:`~repro.analysis.metrics.SessionMetrics`, enabling offline analysis
and cross-run diffing without re-simulating.

Determinism: events are written in publication order with sorted JSON
keys and compact separators, so two runs of the same seed configuration
produce byte-identical files.  Paths ending in ``.gz`` are transparently
gzip-compressed on write and decompressed on read; the gzip header is
pinned (``mtime=0``, no filename) so compressed traces are just as
byte-stable as plain ones — the property the fleet flight recorder's
re-run-captures-identical-artifacts contract rests on.
"""

from __future__ import annotations

import gzip
import io
import json
import zlib
from dataclasses import asdict, dataclass, field
from typing import IO, Any, Callable, Iterable, List, Tuple, Union

from .bus import EventBus
from .events import TraceEvent, event_to_dict, events_from_dicts

#: Current trace format version.
TRACE_VERSION = 1


@dataclass(frozen=True)
class TraceMeta:
    """Header line: everything a consumer needs to interpret the stream."""

    session_duration: float
    activity_bin: float = 0.1
    steady_state_fraction: float = 0.0
    device: str = "galaxy_note"
    version: int = TRACE_VERSION


@dataclass
class Trace:
    """A loaded trace: header plus the event stream in causal order.

    Its views are dropped when ``events`` is rebound or changes length;
    the events of a trace are not otherwise edited in place.
    """

    meta: TraceMeta
    events: List[TraceEvent] = field(default_factory=list)
    _index: Tuple[Any, int, Any] = field(
        default=(None, -1, None), init=False, repr=False, compare=False)

    def count_by_type(self) -> dict:
        counts: dict = {}
        for event in self.events:
            name = type(event).__name__
            counts[name] = counts.get(name, 0) + 1
        return counts

    def view(self, build: Callable[["Trace"], Any]) -> Any:
        """``build(self)``, computed once per trace and shared read-only."""
        owner, length, views = self._index
        if owner is not self.events or length != len(self.events):
            views = {}
            self._index = (self.events, len(self.events), views)
        if build not in views:
            views[build] = build(self)
        return views[build]


class TraceRecorder:
    """Wildcard subscriber that accumulates the full event stream."""

    def __init__(self, bus: EventBus):
        self.events: List[TraceEvent] = []
        bus.subscribe_all(self.events.append)


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
def _line_encoder() -> Callable[[Any], str]:
    """``json.dumps(record, sort_keys=True, separators=(",", ":"))`` through
    one C encoder without the cycle markers (a record is a tree of plain
    values).  ``encode`` builds a new one per call, so it serves only where
    the private constructor is missing or takes other arguments than the
    nine it takes on CPython 3.10-3.13."""
    encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
    try:
        chunks = json.encoder.c_make_encoder(
            None, encoder.default, json.encoder.encode_basestring_ascii,
            None, ":", ",", True, False, True)
    except TypeError:
        return encoder.encode
    return lambda record: "".join(chunks(record, 0))


_dump_line = _line_encoder()


def dumps_jsonl(events: Iterable[TraceEvent], meta: TraceMeta) -> str:
    """Serialize a trace to its canonical (byte-stable) JSONL text."""
    lines = [_dump_line({"meta": asdict(meta)})]
    lines.extend(_dump_line(event_to_dict(event)) for event in events)
    return "\n".join(lines) + "\n"


def _is_gzip_path(path: object) -> bool:
    return str(path).endswith(".gz")


def gzip_bytes(data: bytes) -> bytes:
    """Deterministic gzip: fixed compression level, ``mtime=0``, no
    embedded filename, so equal inputs compress to equal bytes."""
    buffer = io.BytesIO()
    with gzip.GzipFile(fileobj=buffer, mode="wb", mtime=0) as handle:
        handle.write(data)
    return buffer.getvalue()


def dump_jsonl(path_or_file: Union[str, IO[str]],
               events: Iterable[TraceEvent], meta: TraceMeta) -> None:
    """Write a JSONL trace to ``path_or_file`` (gzipped for ``.gz``)."""
    text = dumps_jsonl(events, meta)
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    elif _is_gzip_path(path_or_file):
        with open(path_or_file, "wb") as handle:
            handle.write(gzip_bytes(text.encode("utf-8")))
    else:
        with open(path_or_file, "w", encoding="utf-8") as handle:
            handle.write(text)


def loads_jsonl(text: str) -> Trace:
    """Parse the canonical JSONL text back into a :class:`Trace`."""
    lines = text.splitlines()
    try:
        # One parse for the body; a line that is not one JSON value fails
        # it or the count, and the per-line parse below names it.
        header = json.loads(lines[0])
        records = json.loads("[" + ",".join(lines[1:]) + "]")
        if len(records) != len(lines) - 1:
            raise ValueError("record count")
    except (IndexError, ValueError):
        parsed = []
        for number, line in enumerate(lines, 1):
            if line.strip():
                try:
                    parsed.append(json.loads(line))
                except ValueError as exc:
                    raise ValueError(f"line {number}: {exc}") from None
        if not parsed:
            raise ValueError("empty trace")
        header, records = parsed[0], parsed[1:]
    if not isinstance(header, dict) or not isinstance(header.get("meta"),
                                                      dict):
        raise ValueError("trace missing meta header line")
    version = header["meta"].get("version", TRACE_VERSION)
    if version != TRACE_VERSION:
        raise ValueError(f"unsupported trace version {version!r} "
                         f"(expected {TRACE_VERSION})")
    try:
        meta = TraceMeta(**header["meta"])
        binned = meta.activity_bin > 0  # every replay bins PacketSent
    except TypeError as exc:
        raise ValueError(f"malformed meta header: {exc}") from None
    if not binned:
        raise ValueError(f"activity_bin must be positive: "
                         f"{meta.activity_bin!r}")
    return Trace(meta=meta, events=events_from_dicts(records))


def load_jsonl(path_or_file: Union[str, IO[str]]) -> Trace:
    """Read a JSONL trace from ``path_or_file`` (gunzipped for ``.gz``).
    A ``ValueError`` gives the reason alone: the caller names the file."""
    if hasattr(path_or_file, "read"):
        return loads_jsonl(path_or_file.read())
    try:
        opener = gzip.open if _is_gzip_path(path_or_file) else open
        with opener(path_or_file, "rb") as handle:
            text = handle.read().decode("utf-8")
    except (EOFError, gzip.BadGzipFile, zlib.error,
            UnicodeDecodeError) as exc:
        raise ValueError(f"corrupt trace ({type(exc).__name__}: "
                         f"{exc})") from None
    return loads_jsonl(text)


# ----------------------------------------------------------------------
# Offline replay
# ----------------------------------------------------------------------
def replay(events: Iterable[TraceEvent], bus: EventBus) -> None:
    """Publish a recorded stream onto ``bus`` in its original order."""
    for event in events:
        bus.publish(event)


class _Analysis:
    """The one replay of a trace, shared read-only by every view built on
    it, and the one place each per-path series is derived.

    The :class:`~repro.mptcp.activity.ActivityLog`, the
    :class:`~repro.dash.events.PlayerEventLog` and (unless ``collect`` is
    false) the :class:`~repro.obs.metrics.SessionMetricsCollector`
    (which reads the log's bins) and the
    :class:`~repro.obs.spans.SpanBuilder` listen on one bus; none of them
    publishes.  The collector's :class:`~repro.energy.model.RadioTimeline`
    serves the analyzer's energy and the report's radio lanes too.  The
    analyzer is built only when asked for: it rejects a non-positive
    session duration that the logs and the registry accept.
    """

    def __init__(self, trace: Trace, collect: bool = True):
        from ..dash.events import PlayerEventLog
        from ..mptcp.activity import ActivityLog
        from .metrics import SessionMetricsCollector
        from .spans import SpanBuilder

        self.meta = trace.meta
        bus = EventBus()
        self.activity = ActivityLog(trace.meta.activity_bin)
        self.activity.attach(bus)
        self.log = PlayerEventLog()
        self.log.attach(bus)
        self.collector = self.timeline = self.spans = None
        if collect:
            self.collector = SessionMetricsCollector(
                bus, activity_bin=trace.meta.activity_bin,
                device=trace.meta.device, activity=self.activity)
            self.timeline = self.collector.timeline
            self.spans = SpanBuilder(bus).spans
        replay(trace.events, bus)
        self._analyzer = None

    def analyzer(self, device=None):
        """The §6 analyzer over the shared logs; the trace's own device's
        is built once, another ``device``'s on every call."""
        if device is None and self._analyzer is not None:
            return self._analyzer
        from ..analysis.analyzer import MultipathVideoAnalyzer
        from ..energy.devices import DEVICES

        analyzer = MultipathVideoAnalyzer(
            self.activity, self.log, self.meta.session_duration,
            DEVICES[self.meta.device] if device is None else device,
            timeline=self.timeline)
        if device is None:
            self._analyzer = analyzer
        return analyzer


def _analysis(trace: Trace) -> _Analysis:
    """``trace``'s shared analysis replay, built once per trace."""
    return trace.view(_Analysis)


def analyzer_from_trace(trace: Trace, device=None):
    """Rebuild the §6 analysis tool from a trace, without a simulator.

    Replays the stream into fresh bus-subscribed ``ActivityLog`` /
    ``PlayerEventLog`` views and wraps them in a
    :class:`~repro.analysis.analyzer.MultipathVideoAnalyzer` — the offline
    half of the paper's capture-then-analyze workflow.  Each call replays
    the trace and returns a fresh analyzer the caller may edit; the
    derived views (:func:`metrics_from_trace`, the session report) share
    one replay per trace instead.
    """
    return _Analysis(trace, collect=False).analyzer(device)


def metrics_from_trace(trace: Trace, device=None):
    """Offline :class:`~repro.analysis.metrics.SessionMetrics` — identical
    to the live run's when the trace came from ``SessionResult``.  Reads
    the trace's shared analysis replay; each call returns fresh metrics."""
    analyzer = _analysis(trace).analyzer(device)
    return analyzer.metrics(trace.meta.steady_state_fraction)
