"""Causal spans: the life of each chunk as a tree, from the event stream.

The bus answers "what happened"; spans answer "what *caused* what".  A
:class:`SpanBuilder` subscribes to the session bus and correlates the
per-chunk event chain

    ChunkRequested → HttpRequestSent → TransferStarted/Completed
                   → SchedulerActivated/DeadlineMissed → ChunkDownloaded

into nested :class:`Span` intervals under one session root, using the
stream's own identifiers: the HTTP request id threaded through
``HttpRequestSent``/``HttpResponseReceived``, the transfer id, and the
request URL as the request→transfer join key (transfers are tagged with
the URL they serve).  Correlation state is driven purely by event order
and ids — no wall clock, no randomness — so rebuilding spans offline from
a JSONL trace (:func:`spans_from_trace`) yields *identical* spans to the
live subscriber on the same stream.

Export: :func:`to_chrome_trace` renders the tree as Chrome trace-event
JSON (complete ``"ph": "X"`` records, microsecond timestamps) which loads
directly in Perfetto / ``chrome://tracing``.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import IO, Any, Deque, Dict, List, Optional, Union

from .bus import EventBus
from .events import (ChunkDownloaded, ChunkRequested, DeadlineMissed,
                     HttpRequestSent, HttpResponseReceived, MpDashArmed,
                     MpDashSkipped, PlaybackStarted, SchedulerActivated,
                     SessionClosed, StallEnd, StallStart, TransferCompleted,
                     TransferStarted)

#: Span status values.
STATUS_OK = "ok"
STATUS_MISSED = "missed"
STATUS_OPEN = "open"

#: Chrome-trace thread ids, one lane per span kind so Perfetto stacks the
#: causal chain vertically instead of interleaving everything on one row.
_KIND_TIDS = {"session": 1, "chunk": 2, "request": 3, "transfer": 4,
              "deadline": 5, "stall": 6}


@dataclass
class Span:
    """One named interval with a parent link and JSON-able attributes.

    Equality is plain value equality (dataclass-generated), which is what
    the offline-equals-live determinism tests compare.
    """

    span_id: int
    name: str
    kind: str
    start: float
    parent: Optional[int] = None
    end: Optional[float] = None
    status: str = STATUS_OPEN
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def close(self, time: float, status: str = STATUS_OK) -> None:
        self.end = time
        self.status = status

    def to_dict(self) -> Dict[str, Any]:
        return {"span_id": self.span_id, "name": self.name,
                "kind": self.kind, "start": self.start, "end": self.end,
                "parent": self.parent, "status": self.status,
                "attrs": dict(self.attrs)}


class SpanBuilder:
    """Bus subscriber that assembles the causal span tree of a session."""

    def __init__(self, bus: Optional[EventBus] = None):
        self.spans: List[Span] = []
        self._next_id = 1
        self._session: Optional[Span] = None
        # chunk index -> its open span (closed by ChunkDownloaded).
        self._chunks: Dict[int, Span] = {}
        # The chunk span expecting the next HttpRequestSent: the player
        # publishes ChunkRequested then synchronously issues the request,
        # so a one-slot latch is a sound (and deterministic) join.
        self._awaiting_http: Optional[Span] = None
        # request id -> open request span (closed by HttpResponseReceived).
        self._requests: Dict[int, Span] = {}
        # url -> FIFO of open request spans: transfers join on tag == url.
        self._by_url: Dict[str, Deque[Span]] = {}
        # transfer id -> open transfer span.
        self._transfers: Dict[int, Span] = {}
        # transfer id -> open deadline span.
        self._deadlines: Dict[int, Span] = {}
        self._open_stall: Optional[Span] = None
        if bus is not None:
            self.attach(bus)

    # ------------------------------------------------------------------
    def attach(self, bus: EventBus) -> "SpanBuilder":
        sub = bus.subscribe
        sub(ChunkRequested, self._on_chunk_requested)
        sub(HttpRequestSent, self._on_http_request)
        sub(HttpResponseReceived, self._on_http_response)
        sub(TransferStarted, self._on_transfer_started)
        sub(TransferCompleted, self._on_transfer_completed)
        sub(SchedulerActivated, self._on_scheduler_activated)
        sub(DeadlineMissed, self._on_deadline_missed)
        sub(MpDashArmed, self._on_mpdash_armed)
        sub(MpDashSkipped, self._on_mpdash_skipped)
        sub(ChunkDownloaded, self._on_chunk_downloaded)
        sub(PlaybackStarted, self._on_playback_started)
        sub(StallStart, self._on_stall_start)
        sub(StallEnd, self._on_stall_end)
        sub(SessionClosed, self._on_session_closed)
        return self

    def _new_span(self, name: str, kind: str, start: float,
                  parent: Optional[Span], **attrs: Any) -> Span:
        span = Span(self._next_id, name, kind, start,
                    parent=None if parent is None else parent.span_id,
                    attrs=attrs)
        self._next_id += 1
        self.spans.append(span)
        return span

    def _root(self, time: float) -> Span:
        if self._session is None:
            self._session = self._new_span("session", "session", time, None)
        return self._session

    # ------------------------------------------------------------------
    # Handlers — one per event in the causal chain
    # ------------------------------------------------------------------
    def _on_chunk_requested(self, event: ChunkRequested) -> None:
        span = self._new_span(f"chunk[{event.index}]", "chunk", event.time,
                              self._root(event.time), index=event.index,
                              level=event.level,
                              buffer_level=event.buffer_level)
        self._chunks[event.index] = span
        self._awaiting_http = span

    def _on_http_request(self, event: HttpRequestSent) -> None:
        parent = self._awaiting_http or self._root(event.time)
        self._awaiting_http = None
        span = self._new_span(f"http[{event.url}]", "request", event.time,
                              parent, url=event.url, request=event.request)
        self._requests[event.request] = span
        self._by_url.setdefault(event.url, deque()).append(span)

    def _on_http_response(self, event: HttpResponseReceived) -> None:
        span = self._requests.pop(event.request, None)
        if span is None:
            return
        span.attrs["status"] = event.status
        span.attrs["content_length"] = event.content_length
        span.close(event.time)
        queue = self._by_url.get(event.url)
        if queue and span in queue:
            queue.remove(span)

    def _on_transfer_started(self, event: TransferStarted) -> None:
        queue = self._by_url.get(event.tag)
        parent = queue[0] if queue else self._root(event.time)
        span = self._new_span(f"transfer[{event.transfer}]", "transfer",
                              event.time, parent, transfer=event.transfer,
                              size=event.size, conn=event.conn)
        self._transfers[event.transfer] = span

    def _on_transfer_completed(self, event: TransferCompleted) -> None:
        span = self._transfers.pop(event.transfer, None)
        if span is not None:
            span.close(event.time)
        deadline = self._deadlines.pop(event.transfer, None)
        if deadline is not None:
            slack = deadline.attrs["deadline_at"] - event.time
            deadline.attrs["slack"] = slack
            deadline.close(event.time, deadline.status
                           if deadline.status == STATUS_MISSED else STATUS_OK)

    def _on_scheduler_activated(self, event: SchedulerActivated) -> None:
        parent = self._transfers.get(event.transfer)
        span = self._new_span(f"deadline[{event.transfer}]", "deadline",
                              event.time,
                              parent if parent is not None
                              else self._root(event.time),
                              transfer=event.transfer, size=event.size,
                              window=event.window,
                              deadline_at=event.time + event.window)
        self._deadlines[event.transfer] = span

    def _on_deadline_missed(self, event: DeadlineMissed) -> None:
        span = self._deadlines.get(event.transfer)
        if span is not None:
            span.status = STATUS_MISSED
            span.attrs["missed_at"] = event.time

    def _on_mpdash_armed(self, event: MpDashArmed) -> None:
        span = self._chunks.get(event.index)
        if span is not None:
            span.attrs["mpdash"] = "armed"
            span.attrs["deadline"] = event.deadline

    def _on_mpdash_skipped(self, event: MpDashSkipped) -> None:
        span = self._chunks.get(event.index)
        if span is not None:
            span.attrs["mpdash"] = "skipped"

    def _on_chunk_downloaded(self, event: ChunkDownloaded) -> None:
        span = self._chunks.pop(event.index, None)
        if span is None:
            return
        span.attrs["size"] = event.size
        span.attrs["throughput"] = event.throughput
        span.attrs["final_level"] = event.level
        span.close(event.time)

    def _on_playback_started(self, event: PlaybackStarted) -> None:
        self._root(event.time).attrs["playback_started"] = event.time

    def _on_stall_start(self, event: StallStart) -> None:
        self._open_stall = self._new_span("stall", "stall", event.time,
                                          self._root(event.time))

    def _on_stall_end(self, event: StallEnd) -> None:
        if self._open_stall is not None:
            self._open_stall.close(event.time)
            self._open_stall = None

    def _on_session_closed(self, event: SessionClosed) -> None:
        for span in self.spans:
            if span.end is None and span is not self._session:
                span.end = event.time
        if self._session is None:
            self._root(event.time)
        self._session.close(event.time)
        self._chunks.clear()
        self._requests.clear()
        self._by_url.clear()
        self._transfers.clear()
        self._deadlines.clear()
        self._open_stall = None
        self._awaiting_http = None


# ----------------------------------------------------------------------
# Queries and export
# ----------------------------------------------------------------------
def children(spans: List[Span], parent: Span) -> List[Span]:
    """Direct children of ``parent``, in creation order."""
    return [s for s in spans if s.parent == parent.span_id]


def spans_to_dicts(spans: List[Span]) -> List[Dict[str, Any]]:
    return [span.to_dict() for span in spans]


def transfer_chunk_map(spans: List[Span]) -> Dict[int, int]:
    """Map each transfer id to the chunk index it served.

    Walks every transfer span's parent chain up to its chunk span —
    the join the attribution engine needs to say "transfer 17 *is*
    chunk 4".  Orphaned transfers (parented to the session root because
    their request span never existed) are simply absent from the map,
    which is what lets callers degrade instead of mis-join.
    """
    by_id = {span.span_id: span for span in spans}
    mapping: Dict[int, int] = {}
    for span in spans:
        if span.kind != "transfer" or "transfer" not in span.attrs:
            continue
        parent = by_id.get(span.parent)
        while parent is not None and parent.kind != "chunk":
            parent = by_id.get(parent.parent)
        if parent is not None and "index" in parent.attrs:
            mapping[span.attrs["transfer"]] = parent.attrs["index"]
    return mapping


def to_chrome_trace(spans: List[Span], pid: int = 1) -> List[Dict[str, Any]]:
    """Render spans as Chrome trace-event complete events.

    Every record is ``{"name", "cat", "ph": "X", "ts", "dur", "pid",
    "tid", "args"}`` with timestamps in *microseconds* (the format's
    unit); the bare-array form is accepted by Perfetto and
    ``chrome://tracing`` directly.  Open spans render with zero duration.
    """
    records: List[Dict[str, Any]] = []
    for span in spans:
        end = span.end if span.end is not None else span.start
        args = dict(span.attrs)
        args["status"] = span.status
        args["span_id"] = span.span_id
        if span.parent is not None:
            args["parent"] = span.parent
        records.append({
            "name": span.name,
            "cat": span.kind,
            "ph": "X",
            "ts": round(span.start * 1e6, 3),
            "dur": round((end - span.start) * 1e6, 3),
            "pid": pid,
            "tid": _KIND_TIDS.get(span.kind, 0),
            "args": args,
        })
    return records


def dump_chrome_trace(path_or_file: Union[str, IO[str]],
                      spans: List[Span]) -> None:
    """Write the Chrome trace-event JSON array to a path or file object."""
    text = json.dumps(to_chrome_trace(spans), sort_keys=True,
                      separators=(",", ":"))
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w", encoding="utf-8") as handle:
            handle.write(text)


def spans_from_trace(trace) -> List[Span]:
    """Rebuild the span tree offline from a loaded JSONL trace.

    Identical to the live builder's ``spans`` for the same stream — the
    spans half of the capture-then-analyze workflow.  The tree is built
    in the trace's shared analysis replay; calls get a copy.
    """
    from .trace_export import _analysis

    return [Span(span.span_id, span.name, span.kind, span.start,
                 span.parent, span.end, span.status, dict(span.attrs))
            for span in _analysis(trace).spans]


def render_span_tree(spans: List[Span], max_spans: Optional[int] = None
                     ) -> str:
    """Human-readable indented tree (the ``repro spans`` default view)."""
    by_parent: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        by_parent.setdefault(span.parent, []).append(span)
    lines: List[str] = []

    def walk(span: Span, depth: int) -> None:
        if max_spans is not None and len(lines) >= max_spans:
            return
        duration = span.duration
        timing = (f"{span.start:.3f}s +{duration:.3f}s"
                  if duration is not None else f"{span.start:.3f}s …")
        note = ""
        if span.status == STATUS_MISSED:
            note = "  [MISSED]"
        elif span.status == STATUS_OPEN:
            note = "  [open]"
        lines.append(f"{'  ' * depth}{span.name}  {timing}{note}")
        for child in by_parent.get(span.span_id, ()):
            walk(child, depth + 1)

    for root in by_parent.get(None, ()):
        walk(root, 0)
    total = len(spans)
    if max_spans is not None and total > len(lines):
        lines.append(f"… {total - len(lines)} more spans")
    return "\n".join(lines)
