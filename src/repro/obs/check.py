"""Declarative cross-layer invariant monitoring over the event bus.

The bus records what happened; this module *judges* it.  A
:class:`Checker` is a small state machine that subscribes to the typed
event stream and emits structured :class:`Violation` records whenever the
stream breaks one of the paper's semantic contracts — a scheduler
activation with no armed deadline, every path disabled while a deadline
is armed (the §3.1 / Algorithm 1 path-control contract), bytes appearing
from nowhere, an illegal radio-state transition.  The
:class:`InvariantMonitor` fans the stream out to a set of checkers (the
:func:`stock_checkers` encode the paper's semantics across every layer)
and collects their verdicts into a :class:`CheckReport`.

Like the other derived views (metrics, spans), checking is a pure
function of the event stream: attaching the monitor to a live session bus
or replaying that session's JSONL trace through :func:`check_trace`
yields *identical* verdicts — the determinism tests pin this.  Violations
carry the stream indices of their offending events, so a verdict links
back to the exact events (and therefore spans) that produced it.

Severities: ``ERROR`` marks a broken invariant (the ``repro check`` CLI
exits nonzero), ``WARNING`` marks a breached soft budget (SLO-style
deadline-miss / stall thresholds), ``INFO`` is advisory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple, Type)

from .bus import EventBus
from .events import (RADIO_ACTIVE, RADIO_IDLE, RADIO_TAIL, ChunkDownloaded,
                     ChunkRequested, CwndRestarted, DeadlineArmed,
                     DeadlineDisarmed, DeadlineExtended, DeadlineMissed,
                     HttpRequestSent, HttpResponseReceived, PacketSent,
                     PathSampled, PathStateRequested, QualitySwitched,
                     RadioStateChange, SchedulerActivated, SessionClosed,
                     StallEnd, StallStart, SubflowReconnected,
                     SubflowStateChange, TraceEvent, TransferCompleted,
                     TransferStarted)

#: Violation severities, in increasing order of badness.
INFO = "info"
WARNING = "warning"
ERROR = "error"
SEVERITIES = (INFO, WARNING, ERROR)

_INF = math.inf


@dataclass(frozen=True)
class Violation:
    """One broken invariant: who found it, how bad, when, and why.

    ``events`` holds the zero-based stream indices of the offending
    events (publication order — the same order a JSONL trace lists them),
    so a violation can be joined back to the exact events and the span
    tree built from the same stream.
    """

    checker: str
    severity: str
    time: float
    message: str
    events: Tuple[int, ...] = ()
    details: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"checker": self.checker, "severity": self.severity,
                "time": self.time, "message": self.message,
                "events": list(self.events),
                "details": dict(self.details)}


class Checker:
    """Base of every invariant checker: a named bus-event state machine.

    Subclasses declare interest via :meth:`subscriptions` (event class →
    bound handler) and report through :meth:`violation`.  ``finish`` runs
    once at end of stream (at :class:`~repro.obs.events.SessionClosed`,
    or explicitly for truncated traces) for whole-session verdicts.
    """

    #: Stable identifier used in reports and violation records.
    name = "checker"
    #: Default severity of this checker's violations.
    severity = ERROR

    def __init__(self) -> None:
        self._monitor: Optional["InvariantMonitor"] = None
        self.reset()

    def reset(self) -> None:
        """Clear the per-stream state; subclasses that keep any override."""

    def bind(self, monitor: Optional["InvariantMonitor"]) -> None:
        self._monitor = monitor

    def subscriptions(self) -> Mapping[Type[TraceEvent],
                                       Callable[[TraceEvent], None]]:
        """Event class → handler; override in subclasses."""
        return {}

    def finish(self, time: float) -> None:
        """End-of-stream hook; ``time`` is the last simulated instant."""

    # ------------------------------------------------------------------
    def violation(self, time: float, message: str,
                  events: Sequence[int] = (),
                  severity: Optional[str] = None, **details: Any) -> None:
        """Record one violation; ``events`` defaults to the current event."""
        if self._monitor is None:
            raise RuntimeError(f"checker {self.name!r} is not bound to a "
                               f"monitor")
        if not events:
            index = self._monitor.index
            events = (index,) if index >= 0 else ()
        self._monitor.record(Violation(
            checker=self.name, severity=severity or self.severity,
            time=time, message=message, events=tuple(events),
            details=details))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


@dataclass
class CheckReport:
    """Every verdict of one monitored stream, plus context."""

    violations: List[Violation]
    events: int
    checkers: List[str]

    @property
    def ok(self) -> bool:
        """True when no ERROR-severity violation was recorded."""
        return not any(v.severity == ERROR for v in self.violations)

    def count(self, severity: str) -> int:
        return sum(1 for v in self.violations if v.severity == severity)

    def errors(self) -> List[Violation]:
        """The ERROR-severity violations, in stream order — the subset
        the attribution engine explains."""
        return [v for v in self.violations if v.severity == ERROR]

    def by_severity(self) -> Dict[str, int]:
        return {severity: self.count(severity) for severity in SEVERITIES}

    def to_dict(self) -> Dict[str, Any]:
        return {"ok": self.ok, "events": self.events,
                "checkers": list(self.checkers),
                "counts": self.by_severity(),
                "violations": [v.to_dict() for v in self.violations]}

    def copy(self) -> "CheckReport":
        """A copy that shares nothing mutable with this report."""
        return CheckReport(
            [replace(v, details=dict(v.details)) for v in self.violations],
            self.events, list(self.checkers))

    def render(self) -> str:
        """Human-readable verdict summary (the ``repro check`` view)."""
        counts = self.by_severity()
        lines = [f"checked {self.events} events with "
                 f"{len(self.checkers)} checkers: "
                 f"{counts[ERROR]} error(s), {counts[WARNING]} warning(s), "
                 f"{counts[INFO]} info"]
        for violation in self.violations:
            events = ",".join(str(i) for i in violation.events)
            lines.append(f"  [{violation.severity.upper():7s}] "
                         f"t={violation.time:10.3f}s {violation.checker}: "
                         f"{violation.message}"
                         + (f" (events {events})" if events else ""))
        if not self.violations:
            lines.append("  all invariants hold")
        return "\n".join(lines)


class InvariantMonitor:
    """Fans the bus stream out to checkers and collects their verdicts.

    One wildcard subscription tracks the stream index; per-event-class
    handler lists keep dispatch to one dict lookup, so unmonitored event
    types cost nothing beyond the index bump.  ``finish`` fires
    automatically at :class:`~repro.obs.events.SessionClosed` (after the
    checkers' own handlers) and is idempotent, so truncated traces can
    call it explicitly.
    """

    def __init__(self, checkers: Optional[Iterable[Checker]] = None,
                 bus: Optional[EventBus] = None):
        self.checkers: List[Checker] = (list(checkers) if checkers is not None
                                        else stock_checkers())
        self.reset()
        self._handlers: Dict[Type[TraceEvent],
                             List[Callable[[TraceEvent], None]]] = {}
        self._wildcard: List[Callable[[TraceEvent], None]] = []
        #: Per-class merged typed+wildcard handler list, built lazily —
        #: ``observe`` runs once per event per session across entire
        #: fleets, so the merge must not happen per event.
        self._dispatch: Dict[Type[TraceEvent],
                             List[Callable[[TraceEvent], None]]] = {}
        for checker in self.checkers:
            checker.bind(self)
            for event_type, handler in checker.subscriptions().items():
                if event_type is None:
                    self._wildcard.append(handler)
                else:
                    self._handlers.setdefault(event_type, []).append(handler)
        if bus is not None:
            self.attach(bus)

    def attach(self, bus: EventBus) -> "InvariantMonitor":
        bus.subscribe_all(self.observe)
        return self

    def reset(self) -> None:
        """Clear the verdicts and every checker's state for a new stream.
        The checkers, their bound handlers and the dispatch table stay."""
        self.violations: List[Violation] = []
        #: Stream index of the event currently being dispatched.
        self.index = -1
        self._last_time = 0.0
        self._finished = False
        for checker in self.checkers:
            checker.reset()

    # ------------------------------------------------------------------
    def observe(self, event: TraceEvent) -> None:
        """Dispatch one event to every interested checker."""
        self.index += 1
        cls = event.__class__
        if event.time > self._last_time:
            self._last_time = event.time
        handlers = self._dispatch.get(cls)
        if handlers is None:
            handlers = self._handlers.get(cls, []) + self._wildcard
            self._dispatch[cls] = handlers
        for handler in handlers:
            handler(event)
        if cls is SessionClosed:
            self.finish(event.time)

    def record(self, violation: Violation) -> None:
        self.violations.append(violation)

    def finish(self, time: Optional[float] = None) -> None:
        """Run every checker's end-of-stream verdicts exactly once."""
        if self._finished:
            return
        self._finished = True
        end = self._last_time if time is None else time
        for checker in self.checkers:
            checker.finish(end)

    def report(self) -> CheckReport:
        return CheckReport(violations=list(self.violations),
                           events=self.index + 1,
                           checkers=[c.name for c in self.checkers])

    def close(self) -> None:
        """Unbind the checkers once the verdicts are in: each points back
        at this monitor, which holds them, and that cycle must not outlive
        the stream.  A closed monitor's checkers record nothing more."""
        for checker in self.checkers:
            checker.bind(None)


def check_trace(trace, checkers: Optional[Iterable[Checker]] = None
                ) -> CheckReport:
    """Judge a loaded JSONL trace offline: identical verdicts to live.

    Feeds the stream straight into a monitor — with the monitor as sole
    subscriber this is exactly a bus replay minus the dispatch overhead,
    which matters to the flight recorder's per-session check — and runs
    ``finish`` at the stream's ``SessionClosed`` (or the last event time
    for truncated traces), exactly as the live monitor would.  The stock
    verdicts are computed once per trace; calls get a copy.
    """
    if checkers is not None:
        return _judge(trace, checkers)
    return _verdicts(trace).copy()


def _verdicts(trace) -> CheckReport:
    """The trace's stock verdicts, judged once and shared read-only."""
    return trace.view(_judge)


#: The stock battery every offline judge reuses, reset per trace (building
#: thirteen checkers per fleet session cost a sixth of the judge).  A judge
#: pops it (atomically), so a re-entered or concurrent one builds its own.
_spare: List[InvariantMonitor] = []


def _judge(trace, checkers: Optional[Iterable[Checker]] = None
           ) -> CheckReport:
    if checkers is not None:
        monitor = InvariantMonitor(checkers)
    else:
        try:
            monitor = _spare.pop()
        except IndexError:
            monitor = InvariantMonitor()
    observe = monitor.observe
    for event in trace.events:
        observe(event)
    monitor.finish()
    report = monitor.report()
    if checkers is None and not _spare:
        monitor.reset()
        _spare.append(monitor)
    else:
        monitor.close()
    return report


# ======================================================================
# Stock checkers: the paper's semantics, one invariant each
# ======================================================================
class MonotonicTimeChecker(Checker):
    """Simulated time never runs backwards.

    The stream as a whole is publication-ordered; every event's timestamp
    must be finite, non-negative, and non-decreasing — except
    :class:`~repro.obs.events.PacketSent` (bin-aggregated, documented as
    time-sorted per path only, flushed late at connection close) and
    :class:`~repro.obs.events.RadioStateChange` (derived per interface),
    which are held to per-path monotonicity instead.
    """

    name = "monotonic-time"

    def reset(self) -> None:
        self._watermark = 0.0
        #: Per-path watermarks by exact class (events are never subclassed).
        self._per_path: Dict[Type[TraceEvent], Dict[str, float]] = {
            PacketSent: {}, RadioStateChange: {}}

    def subscriptions(self):
        return {None: self._on_event}

    def _on_event(self, event: TraceEvent) -> None:
        # Hot paths first: this handler sees every event of every checked
        # session, and almost all of them just advance a watermark.
        time = event.time
        marks = self._per_path.get(event.__class__)
        if marks is None:
            if self._watermark <= time < _INF:
                self._watermark = time
                return
        elif marks.get(event.path, 0.0) <= time < _INF:
            marks[event.path] = time
            return
        name = type(event).__name__
        if not math.isfinite(time) or time < 0.0:
            self.violation(0.0, f"{name} has illegal timestamp {time!r}",
                           value=time)
            return
        if marks is not None:
            previous = marks.get(event.path, 0.0)
            if time < previous - 1e-9:
                self.violation(
                    time, f"{name} on path {event.path!r} went backwards: "
                    f"{time:.6f} < {previous:.6f}",
                    path=event.path, previous=previous)
            else:
                marks[event.path] = time
            return
        if time < self._watermark - 1e-9:
            self.violation(
                time, f"{name} went backwards: "
                f"{time:.6f} < {self._watermark:.6f}",
                previous=self._watermark)
        else:
            self._watermark = time


class DeadlineLifecycleChecker(Checker):
    """The MP-DASH control plane's legal state machine.

    Mirrors :class:`~repro.core.scheduler.DeadlineAwareScheduler`: an
    ``MP_DASH_ENABLE`` (DeadlineArmed) makes a deadline *pending*; the
    next transfer start binds it (SchedulerActivated → *active*); the
    activation ends by transfer completion, deadline miss, or explicit
    disarm.  Activations without an armed deadline and misses for
    transfers that are not the bound one are illegal.
    """

    name = "deadline-lifecycle"

    def reset(self) -> None:
        self._pending = False
        self._pending_event = -1
        self._active: Optional[int] = None  # bound transfer id

    def subscriptions(self):
        return {DeadlineArmed: self._on_armed,
                DeadlineDisarmed: self._on_disarmed,
                SchedulerActivated: self._on_activated,
                DeadlineMissed: self._on_missed,
                TransferCompleted: self._on_transfer_completed}

    def _on_armed(self, event: DeadlineArmed) -> None:
        if self._pending:
            self.violation(
                event.time, "deadline re-armed before the pending one "
                "activated (the earlier window is silently overwritten)",
                events=(self._pending_event, self._monitor.index),
                severity=WARNING)
        if self._active is not None:
            self.violation(
                event.time, f"deadline armed while transfer "
                f"{self._active} still carries an active deadline",
                severity=WARNING, active_transfer=self._active)
        if event.size <= 0 or event.window <= 0:
            self.violation(event.time, f"deadline armed with illegal "
                           f"size={event.size!r} window={event.window!r}")
        self._pending = True
        self._pending_event = self._monitor.index

    def _on_disarmed(self, event: DeadlineDisarmed) -> None:
        # MP_DASH_DISABLE is legal in any state (the adapter disarms
        # defensively on every skipped chunk).
        self._pending = False
        self._active = None

    def _on_activated(self, event: SchedulerActivated) -> None:
        if not self._pending:
            self.violation(
                event.time, f"scheduler activated for transfer "
                f"{event.transfer} with no armed deadline",
                transfer=event.transfer)
        if self._active is not None:
            self.violation(
                event.time, f"scheduler activated for transfer "
                f"{event.transfer} while transfer {self._active} is still "
                f"active", transfer=event.transfer,
                active_transfer=self._active)
        self._pending = False
        self._active = event.transfer

    def _on_missed(self, event: DeadlineMissed) -> None:
        if self._active != event.transfer:
            self.violation(
                event.time, f"deadline miss reported for transfer "
                f"{event.transfer} but the active deadline is "
                f"{self._active}", transfer=event.transfer,
                active_transfer=self._active)
        if self._active == event.transfer:
            self._active = None

    def _on_transfer_completed(self, event: TransferCompleted) -> None:
        if self._active == event.transfer:
            self._active = None  # deactivation condition (1): S bytes done


class PathControlChecker(Checker):
    """§3.1 / Algorithm 1: never every path disabled while a deadline is
    armed.

    MP-DASH always drives the preferred path; a scheduler that requests
    *all* paths off while a deadline is pending or active has wedged the
    transfer it is supposed to expedite.  Path states are tracked from
    :class:`~repro.obs.events.PathStateRequested` (the client's intent —
    the violation exists the moment it is requested, before signaling
    delay).  The check fires only once at least two paths are known, so a
    legitimately single-path stream cannot trip it.
    """

    name = "path-control"

    def reset(self) -> None:
        self._armed = False
        self._active: Optional[int] = None
        self._requested: Dict[str, bool] = {}
        self._known: Set[str] = set()

    def subscriptions(self):
        return {DeadlineArmed: self._on_armed,
                DeadlineDisarmed: self._on_disarmed,
                SchedulerActivated: self._on_activated,
                DeadlineMissed: self._on_missed,
                TransferCompleted: self._on_transfer_completed,
                PathStateRequested: self._on_path_state,
                PacketSent: self._learn_path,
                PathSampled: self._learn_path,
                SubflowStateChange: self._learn_path,
                SubflowReconnected: self._learn_path,
                CwndRestarted: self._learn_path}

    # -- armed-window tracking -----------------------------------------
    def _on_armed(self, event: DeadlineArmed) -> None:
        self._armed = True
        self._check(event.time)

    def _on_disarmed(self, event: DeadlineDisarmed) -> None:
        self._armed = False
        self._active = None

    def _on_activated(self, event: SchedulerActivated) -> None:
        self._armed = True
        self._active = event.transfer

    def _on_missed(self, event: DeadlineMissed) -> None:
        if self._active == event.transfer or self._active is None:
            self._armed = False
            self._active = None

    def _on_transfer_completed(self, event: TransferCompleted) -> None:
        if self._active == event.transfer:
            self._armed = False
            self._active = None

    # -- path-state tracking -------------------------------------------
    def _learn_path(self, event) -> None:
        path = event.path
        if path not in self._known:
            self._known.add(path)
            self._requested.setdefault(path, True)

    def _on_path_state(self, event: PathStateRequested) -> None:
        self._known.add(event.path)
        self._requested[event.path] = event.enabled
        if not event.enabled:
            self._check(event.time)

    def _check(self, time: float) -> None:
        if (self._armed and len(self._known) >= 2
                and not any(self._requested.get(p, True)
                            for p in self._known)):
            self.violation(
                time, f"all {len(self._known)} paths requested disabled "
                f"while a deadline is armed (Algorithm 1 always keeps the "
                f"preferred path on)", paths=sorted(self._known))


class ByteConservationChecker(Checker):
    """Bytes are conserved from transport deliveries to player chunks.

    Per chunk: the per-path byte breakdown must sum to the chunk's size.
    Per session: the bytes the transport delivered (PacketSent) must
    cover the bytes the transfers claim completed, and — when no transfer
    was cut off by session end — match them.
    """

    name = "byte-conservation"

    #: Relative tolerance of the fluid model's float accumulation.
    REL = 1e-3
    ABS = 1.0  # bytes

    def reset(self) -> None:
        self._delivered = 0.0     # sum of PacketSent bytes
        self._completed = 0.0     # sum of TransferCompleted sizes
        self._open: Set[Tuple[int, int]] = set()  # (conn, transfer)

    def subscriptions(self):
        return {PacketSent: self._on_packet,
                TransferStarted: self._on_started,
                TransferCompleted: self._on_completed,
                ChunkDownloaded: self._on_chunk}

    def _on_packet(self, event: PacketSent) -> None:
        if event.num_bytes < 0:
            self.violation(event.time, f"negative PacketSent on "
                           f"{event.path!r}: {event.num_bytes!r}",
                           path=event.path)
            return
        self._delivered += event.num_bytes

    def _on_started(self, event: TransferStarted) -> None:
        self._open.add((event.conn, event.transfer))

    def _on_completed(self, event: TransferCompleted) -> None:
        self._open.discard((event.conn, event.transfer))
        self._completed += event.size

    def _on_chunk(self, event: ChunkDownloaded) -> None:
        per_path = sum(event.bytes_per_path.values())
        if abs(per_path - event.size) > max(self.REL * event.size, self.ABS):
            self.violation(
                event.time, f"chunk {event.index} per-path bytes "
                f"{per_path:.0f} != size {event.size:.0f}",
                index=event.index, per_path=per_path, size=event.size)

    def finish(self, time: float) -> None:
        tolerance = max(self.REL * max(self._completed, self._delivered),
                        self.ABS)
        if self._completed - self._delivered > tolerance:
            self.violation(
                time, f"transfers completed {self._completed:.0f} bytes but "
                f"the transport only delivered {self._delivered:.0f}",
                completed=self._completed, delivered=self._delivered)
        elif not self._open and self._completed > 0 and \
                self._delivered - self._completed > tolerance:
            self.violation(
                time, f"transport delivered {self._delivered:.0f} bytes but "
                f"transfers only account for {self._completed:.0f}",
                completed=self._completed, delivered=self._delivered)


class StallPairingChecker(Checker):
    """StallStart / StallEnd strictly alternate, start first.

    A stall still open at session close is legal (the session may end
    mid-rebuffer); an end without a start, a nested start, or a stall of
    negative length is not.
    """

    name = "stall-pairing"

    def reset(self) -> None:
        self._open: Optional[float] = None
        self._open_event = -1

    def subscriptions(self):
        return {StallStart: self._on_start, StallEnd: self._on_end}

    def _on_start(self, event: StallStart) -> None:
        if self._open is not None:
            self.violation(
                event.time, "stall started while another stall is open",
                events=(self._open_event, self._monitor.index))
        self._open = event.time
        self._open_event = self._monitor.index

    def _on_end(self, event: StallEnd) -> None:
        if self._open is None:
            self.violation(event.time, "stall ended with no open stall")
            return
        if event.time < self._open - 1e-9:
            self.violation(
                event.time, f"stall ends at {event.time:.3f}s before it "
                f"started at {self._open:.3f}s",
                events=(self._open_event, self._monitor.index))
        self._open = None


class HttpPairingChecker(Checker):
    """Every HttpResponseReceived answers exactly one outstanding
    HttpRequestSent, with matching request id and URL, never before the
    request was sent.  Requests still outstanding at session close are
    legal truncation."""

    name = "http-pairing"

    def reset(self) -> None:
        self._outstanding: Dict[int, Tuple[str, float, int]] = {}

    def subscriptions(self):
        return {HttpRequestSent: self._on_request,
                HttpResponseReceived: self._on_response}

    def _on_request(self, event: HttpRequestSent) -> None:
        if event.request in self._outstanding:
            self.violation(
                event.time, f"request id {event.request} reused while "
                f"still outstanding", request=event.request, url=event.url,
                events=(self._outstanding[event.request][2],
                        self._monitor.index))
        self._outstanding[event.request] = (event.url, event.time,
                                            self._monitor.index)

    def _on_response(self, event: HttpResponseReceived) -> None:
        entry = self._outstanding.pop(event.request, None)
        if entry is None:
            self.violation(
                event.time, f"response for unknown request id "
                f"{event.request} ({event.url})", request=event.request,
                url=event.url)
            return
        url, sent_at, sent_index = entry
        if url != event.url:
            self.violation(
                event.time, f"response URL {event.url!r} != request URL "
                f"{url!r} for id {event.request}",
                events=(sent_index, self._monitor.index),
                request=event.request)
        if event.time < sent_at - 1e-9:
            self.violation(
                event.time, f"response at {event.time:.3f}s precedes its "
                f"request at {sent_at:.3f}s",
                events=(sent_index, self._monitor.index),
                request=event.request)


class BufferOccupancyChecker(Checker):
    """The playback buffer can never hold a negative amount of content."""

    name = "buffer-occupancy"

    def subscriptions(self):
        return {ChunkRequested: self._on_requested,
                ChunkDownloaded: self._on_downloaded,
                DeadlineExtended: self._on_extended}

    def _check(self, time: float, value: float, source: str) -> None:
        if value < -1e-9:
            self.violation(time, f"negative buffer occupancy "
                           f"{value:.6f}s reported by {source}",
                           value=value, source=source)

    def _on_requested(self, event: ChunkRequested) -> None:
        self._check(event.time, event.buffer_level, "ChunkRequested")

    def _on_downloaded(self, event: ChunkDownloaded) -> None:
        self._check(event.time, event.buffer_at_request, "ChunkDownloaded")

    def _on_extended(self, event: DeadlineExtended) -> None:
        self._check(event.time, event.buffer_level, "DeadlineExtended")


class RadioStateChecker(Checker):
    """Radio power states move ACTIVE→TAIL→IDLE (with TAIL→ACTIVE and
    IDLE→ACTIVE promotions) and nothing else — the §2.3 / Table 4 energy
    model's state machine.  Each interface starts idle."""

    name = "radio-state"

    _LEGAL = {(RADIO_IDLE, RADIO_ACTIVE), (RADIO_ACTIVE, RADIO_TAIL),
              (RADIO_TAIL, RADIO_IDLE), (RADIO_TAIL, RADIO_ACTIVE)}
    _STATES = (RADIO_ACTIVE, RADIO_TAIL, RADIO_IDLE)

    def reset(self) -> None:
        self._state: Dict[str, str] = {}

    def subscriptions(self):
        return {RadioStateChange: self._on_change}

    def _on_change(self, event: RadioStateChange) -> None:
        if event.state not in self._STATES:
            self.violation(event.time, f"unknown radio state "
                           f"{event.state!r} on {event.path!r}",
                           path=event.path, state=event.state)
            return
        previous = self._state.get(event.path, RADIO_IDLE)
        if (previous, event.state) not in self._LEGAL:
            self.violation(
                event.time, f"illegal radio transition {previous} -> "
                f"{event.state} on {event.path!r}",
                path=event.path, from_state=previous, to_state=event.state)
        self._state[event.path] = event.state


class TransferLifecycleChecker(Checker):
    """Transfers start once, complete once, one at a time per connection,
    with a self-consistent size and duration."""

    name = "transfer-lifecycle"

    def reset(self) -> None:
        # (conn, transfer) -> (start time, size, stream index)
        self._open: Dict[Tuple[int, int], Tuple[float, float, int]] = {}
        self._active_per_conn: Dict[int, int] = {}
        self._seen: Set[Tuple[int, int]] = set()

    def subscriptions(self):
        return {TransferStarted: self._on_started,
                TransferCompleted: self._on_completed}

    def _on_started(self, event: TransferStarted) -> None:
        key = (event.conn, event.transfer)
        if key in self._seen:
            self.violation(event.time, f"transfer {event.transfer} started "
                           f"twice on connection {event.conn}",
                           transfer=event.transfer)
        self._seen.add(key)
        active = self._active_per_conn.get(event.conn)
        if active is not None:
            self.violation(
                event.time, f"transfer {event.transfer} started while "
                f"transfer {active} is still active on connection "
                f"{event.conn}", transfer=event.transfer, active=active)
        self._active_per_conn[event.conn] = event.transfer
        self._open[key] = (event.time, event.size, self._monitor.index)

    def _on_completed(self, event: TransferCompleted) -> None:
        key = (event.conn, event.transfer)
        entry = self._open.pop(key, None)
        if self._active_per_conn.get(event.conn) == event.transfer:
            del self._active_per_conn[event.conn]
        if entry is None:
            self.violation(event.time, f"transfer {event.transfer} "
                           f"completed without starting",
                           transfer=event.transfer)
            return
        started_at, size, start_index = entry
        linked = (start_index, self._monitor.index)
        if abs(event.size - size) > max(1e-6 * size, 1e-6):
            self.violation(
                event.time, f"transfer {event.transfer} completed with size "
                f"{event.size!r} != started size {size!r}", events=linked,
                transfer=event.transfer)
        # duration is request-to-last-byte; TransferStarted fires one
        # request RTT later, so duration must *cover* the started ->
        # completed window but may legitimately exceed it.
        elapsed = event.time - started_at
        if event.duration < elapsed - 1e-6:
            self.violation(
                event.time, f"transfer {event.transfer} duration "
                f"{event.duration:.6f}s shorter than its observed "
                f"start-to-completion window {elapsed:.6f}s",
                events=linked, transfer=event.transfer)


class SubflowStateChecker(Checker):
    """Effective subflow state changes are real flips: a path that is
    already (server-side) enabled cannot 'change' to enabled again.
    Paths start enabled."""

    name = "subflow-state"

    def reset(self) -> None:
        self._effective: Dict[Tuple[int, str], bool] = {}

    def subscriptions(self):
        return {SubflowStateChange: self._on_change}

    def _on_change(self, event: SubflowStateChange) -> None:
        key = (event.conn, event.path)
        current = self._effective.get(key, True)
        if event.enabled == current:
            self.violation(
                event.time, f"redundant subflow state change on "
                f"{event.path!r}: already "
                f"{'enabled' if current else 'disabled'}",
                path=event.path, enabled=event.enabled)
        self._effective[key] = event.enabled


class ChunkSanityChecker(Checker):
    """Per-chunk fields are physically sensible: positive sizes,
    non-negative durations and throughputs, causal request times, and
    real quality switches."""

    name = "chunk-sanity"

    def reset(self) -> None:
        self._last_index: Optional[int] = None

    def subscriptions(self):
        return {ChunkRequested: self._on_requested,
                ChunkDownloaded: self._on_downloaded,
                QualitySwitched: self._on_switched}

    def _on_requested(self, event: ChunkRequested) -> None:
        if event.index < 0 or event.level < 0:
            self.violation(event.time, f"chunk request with illegal "
                           f"index={event.index} level={event.level}")
        if self._last_index is not None and event.index <= self._last_index:
            self.violation(
                event.time, f"chunk {event.index} requested after chunk "
                f"{self._last_index} (playback is sequential)",
                severity=WARNING, index=event.index)
        self._last_index = event.index

    def _on_downloaded(self, event: ChunkDownloaded) -> None:
        if event.size <= 0:
            self.violation(event.time, f"chunk {event.index} downloaded "
                           f"with size {event.size!r}", index=event.index)
        if event.duration < 0 or event.throughput < 0:
            self.violation(
                event.time, f"chunk {event.index} has negative "
                f"duration/throughput ({event.duration!r}, "
                f"{event.throughput!r})", index=event.index)
        if event.requested_at > event.time + 1e-9:
            self.violation(
                event.time, f"chunk {event.index} downloaded at "
                f"{event.time:.3f}s before its request at "
                f"{event.requested_at:.3f}s", index=event.index)
        if event.deadline is not None and event.deadline <= 0:
            self.violation(event.time, f"chunk {event.index} carries a "
                           f"non-positive deadline {event.deadline!r}",
                           index=event.index)

    def _on_switched(self, event: QualitySwitched) -> None:
        if event.from_level == event.to_level:
            self.violation(event.time, f"quality 'switch' to the same "
                           f"level {event.to_level}", level=event.to_level)
        if event.from_level < 0 or event.to_level < 0:
            self.violation(event.time, f"quality switch with negative "
                           f"level ({event.from_level} -> "
                           f"{event.to_level})")


class DeadlineBudgetChecker(Checker):
    """SLO: the deadline-miss rate stays under a configurable budget.

    A WARNING, not an ERROR — a breached budget is a quality regression,
    not a broken invariant.
    """

    name = "deadline-budget"
    severity = WARNING

    def __init__(self, max_miss_rate: float = 0.25):
        super().__init__()
        if not 0 <= max_miss_rate <= 1:
            raise ValueError(
                f"max_miss_rate must be in [0, 1]: {max_miss_rate!r}")
        self.max_miss_rate = max_miss_rate

    def reset(self) -> None:
        self._activations = 0
        self._misses = 0

    def subscriptions(self):
        return {SchedulerActivated: self._on_activated,
                DeadlineMissed: self._on_missed}

    def _on_activated(self, event: SchedulerActivated) -> None:
        self._activations += 1

    def _on_missed(self, event: DeadlineMissed) -> None:
        self._misses += 1

    def finish(self, time: float) -> None:
        if self._activations == 0:
            return
        rate = self._misses / self._activations
        if rate > self.max_miss_rate:
            self.violation(
                time, f"deadline-miss rate {rate:.1%} "
                f"({self._misses}/{self._activations}) exceeds budget "
                f"{self.max_miss_rate:.1%}", rate=rate,
                misses=self._misses, activations=self._activations,
                budget=self.max_miss_rate)


class StallBudgetChecker(Checker):
    """SLO: the fraction of session time spent rebuffering stays under a
    configurable budget (WARNING severity, like every budget)."""

    name = "stall-budget"
    severity = WARNING

    def __init__(self, max_stall_ratio: float = 0.10):
        super().__init__()
        if not 0 <= max_stall_ratio <= 1:
            raise ValueError(
                f"max_stall_ratio must be in [0, 1]: {max_stall_ratio!r}")
        self.max_stall_ratio = max_stall_ratio

    def reset(self) -> None:
        self._stall_time = 0.0
        self._open: Optional[float] = None

    def subscriptions(self):
        return {StallStart: self._on_start, StallEnd: self._on_end}

    def _on_start(self, event: StallStart) -> None:
        self._open = event.time

    def _on_end(self, event: StallEnd) -> None:
        if self._open is not None:
            self._stall_time += max(0.0, event.time - self._open)
            self._open = None

    def finish(self, time: float) -> None:
        if self._open is not None:
            self._stall_time += max(0.0, time - self._open)
            self._open = None
        if time <= 0:
            return
        ratio = self._stall_time / time
        if ratio > self.max_stall_ratio:
            self.violation(
                time, f"stall ratio {ratio:.1%} "
                f"({self._stall_time:.2f}s of {time:.2f}s) exceeds budget "
                f"{self.max_stall_ratio:.1%}", ratio=ratio,
                stall_time=self._stall_time, budget=self.max_stall_ratio)


def stock_checkers(max_miss_rate: float = 0.25,
                   max_stall_ratio: float = 0.10) -> List[Checker]:
    """The standard battery: every stock invariant across every layer.

    The two budget thresholds are the only knobs; everything else is a
    hard contract of the simulation's semantics.
    """
    return [
        MonotonicTimeChecker(),
        DeadlineLifecycleChecker(),
        PathControlChecker(),
        ByteConservationChecker(),
        TransferLifecycleChecker(),
        SubflowStateChecker(),
        StallPairingChecker(),
        HttpPairingChecker(),
        BufferOccupancyChecker(),
        RadioStateChecker(),
        ChunkSanityChecker(),
        DeadlineBudgetChecker(max_miss_rate=max_miss_rate),
        StallBudgetChecker(max_stall_ratio=max_stall_ratio),
    ]
