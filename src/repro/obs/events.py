"""The event taxonomy: one frozen dataclass per observable occurrence.

Events are immutable values ordered only by publication: the bus never
reorders, so a recorded stream is exactly the simulation's causal order.
Field values are restricted to JSON-representable types (numbers, strings,
bools, ``None``, and string-keyed dicts of numbers) so every event can be
exported to a JSONL trace and reloaded without loss —
:func:`event_to_dict` / :func:`event_from_dict` are exact inverses.

Layer map:

=============  ======================================================
kernel/net     :class:`CwndRestarted`
transport      :class:`PacketSent`, :class:`PathSampled`,
               :class:`TransferStarted`,
               :class:`TransferCompleted`, :class:`SubflowStateChange`,
               :class:`SubflowReconnected`, :class:`PathStateRequested`
MP-DASH core   :class:`DeadlineArmed`, :class:`DeadlineDisarmed`,
               :class:`DeadlineExtended`, :class:`SchedulerActivated`,
               :class:`DeadlineMissed`
HTTP           :class:`HttpRequestSent`, :class:`HttpResponseReceived`
DASH player    :class:`ChunkRequested`, :class:`MpDashArmed`,
               :class:`MpDashSkipped`, :class:`ChunkDownloaded`,
               :class:`QualitySwitched`, :class:`PlaybackStarted`,
               :class:`StallStart`, :class:`StallEnd`,
               :class:`PlaybackEnded`, :class:`SessionClosed`
energy         :class:`RadioStateChange`
=============  ======================================================
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Tuple)


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """Base of every bus event: a simulated-clock timestamp."""

    time: float


# ----------------------------------------------------------------------
# Transport layer (repro.mptcp, repro.net)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class PacketSent(TraceEvent):
    """``num_bytes`` delivered on ``path`` during one activity bin.

    The fluid transport model has no literal packets; its finest delivery
    record is the activity bin (see
    :class:`~repro.mptcp.activity.ActivityLog`), so the connection
    aggregates each path's deliveries and publishes one event per
    (path, bin) — finer events would be pure bus overhead that every
    subscriber immediately re-bins.  ``time`` is the bin's first delivery
    instant (strictly increasing per path).  An event is published when
    the path's next delivery lands in a later bin, and any open bins are
    flushed by :meth:`~repro.mptcp.connection.MptcpConnection.close` — so
    the stream as a whole is *not* time-sorted, only per-path.
    """

    path: str
    num_bytes: float
    conn: int = 0


@dataclass(frozen=True, slots=True)
class PathSampled(TraceEvent):
    """Periodic read-only snapshot of one subflow's transport state.

    Published by the metrics :class:`~repro.obs.metrics.PathSampler` (not
    by the transport itself) so cwnd/RTT/throughput timeseries exist
    without a per-delivery event flood.  Sampling never mutates the subflow,
    so attaching a sampler cannot perturb simulation physics.
    """

    path: str
    cwnd: float
    rtt: float
    throughput: float
    conn: int = 0


@dataclass(frozen=True, slots=True)
class TransferStarted(TraceEvent):
    """A transfer's first response byte is about to flow."""

    transfer: int
    tag: str
    size: float
    conn: int = 0


@dataclass(frozen=True, slots=True)
class TransferCompleted(TraceEvent):
    """The transfer's last byte arrived."""

    transfer: int
    tag: str
    size: float
    duration: float
    conn: int = 0


@dataclass(frozen=True, slots=True)
class PathStateRequested(TraceEvent):
    """Client-side enable/disable decision entered the signaling channel."""

    path: str
    enabled: bool
    conn: int = 0


@dataclass(frozen=True, slots=True)
class SubflowStateChange(TraceEvent):
    """Server-side *effective* path state flipped (post signaling delay)."""

    path: str
    enabled: bool
    conn: int = 0


@dataclass(frozen=True, slots=True)
class SubflowReconnected(TraceEvent):
    """A torn-down subflow finished its re-establishment handshake."""

    path: str
    count: int
    conn: int = 0


@dataclass(frozen=True, slots=True)
class CwndRestarted(TraceEvent):
    """RFC 2861 congestion-window validation collapsed the window."""

    path: str
    conn: int = 0


# ----------------------------------------------------------------------
# MP-DASH control plane (repro.core)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class DeadlineArmed(TraceEvent):
    """MP_DASH_ENABLE: the next ``size`` bytes carry a deadline window."""

    size: float
    window: float


@dataclass(frozen=True, slots=True)
class DeadlineDisarmed(TraceEvent):
    """MP_DASH_DISABLE: scheduler explicitly deactivated."""


@dataclass(frozen=True, slots=True)
class DeadlineExtended(TraceEvent):
    """The §5 deadline-extension relaxed a chunk's window above Φ."""

    base: float
    extended: float
    buffer_level: float


@dataclass(frozen=True, slots=True)
class SchedulerActivated(TraceEvent):
    """An armed deadline bound to a concrete transfer."""

    transfer: int
    size: float
    window: float


@dataclass(frozen=True, slots=True)
class DeadlineMissed(TraceEvent):
    """The deadline passed mid-transfer; every path re-enabled."""

    transfer: int


# ----------------------------------------------------------------------
# HTTP (repro.dash.http)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class HttpRequestSent(TraceEvent):
    url: str
    #: Client-scoped request id correlating request with response (spans
    #: join on it).  Defaults to 0 so pre-PR-3 traces still load.
    request: int = 0


@dataclass(frozen=True, slots=True)
class HttpResponseReceived(TraceEvent):
    url: str
    status: int
    content_length: int
    request: int = 0


# ----------------------------------------------------------------------
# DASH player (repro.dash)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ChunkRequested(TraceEvent):
    index: int
    level: int
    buffer_level: float


@dataclass(frozen=True, slots=True)
class MpDashArmed(TraceEvent):
    """The adapter armed the scheduler for this chunk."""

    index: int
    deadline: float


@dataclass(frozen=True, slots=True)
class MpDashSkipped(TraceEvent):
    """The adapter left MP-DASH off for this chunk (Ω guard / startup)."""

    index: int


@dataclass(frozen=True, slots=True)
class ChunkDownloaded(TraceEvent):
    """A chunk landed; carries everything the per-chunk record needs."""

    index: int
    level: int
    size: float
    duration: float
    requested_at: float
    throughput: float
    bytes_per_path: Mapping[str, float]
    deadline: Optional[float]
    buffer_at_request: float


@dataclass(frozen=True, slots=True)
class QualitySwitched(TraceEvent):
    from_level: int
    to_level: int


@dataclass(frozen=True, slots=True)
class PlaybackStarted(TraceEvent):
    """Startup threshold reached; the playout clock starts draining."""


@dataclass(frozen=True, slots=True)
class StallStart(TraceEvent):
    """Playback buffer ran dry mid-session."""


@dataclass(frozen=True, slots=True)
class StallEnd(TraceEvent):
    """Playback resumed after a rebuffering interval."""


@dataclass(frozen=True, slots=True)
class PlaybackEnded(TraceEvent):
    """The last chunk played out."""


@dataclass(frozen=True, slots=True)
class SessionClosed(TraceEvent):
    """Terminal event: the session's simulation stopped at this time."""


# ----------------------------------------------------------------------
# Energy (repro.energy)
# ----------------------------------------------------------------------
#: Radio power states for :class:`RadioStateChange`.
RADIO_ACTIVE = "active"
RADIO_TAIL = "tail"
RADIO_IDLE = "idle"


@dataclass(frozen=True, slots=True)
class RadioStateChange(TraceEvent):
    """One interface's radio moved between idle/active/tail."""

    path: str
    state: str


#: Name → class registry used by the JSONL loader.
EVENT_TYPES: Dict[str, type] = {
    cls.__name__: cls for cls in (
        PacketSent, PathSampled, TransferStarted, TransferCompleted,
        PathStateRequested,
        SubflowStateChange, SubflowReconnected, CwndRestarted, DeadlineArmed,
        DeadlineDisarmed, DeadlineExtended, SchedulerActivated,
        DeadlineMissed, HttpRequestSent, HttpResponseReceived,
        ChunkRequested, MpDashArmed, MpDashSkipped, ChunkDownloaded,
        QualitySwitched, PlaybackStarted, StallStart, StallEnd,
        PlaybackEnded, SessionClosed, RadioStateChange,
    )
}


#: Per event class: its field names and those of its ``Mapping``-typed
#: fields, read once per class (``fields()`` per event dominated encoding).
_ENCODE_PLANS: Dict[type, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {}


def _encode_plan(cls: type) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    specs = fields(cls)
    plan = (tuple(spec.name for spec in specs),
            tuple(spec.name for spec in specs
                  if "Mapping[" in str(spec.type)))
    _ENCODE_PLANS[cls] = plan
    return plan


def event_to_dict(event: TraceEvent) -> Dict[str, Any]:
    """Flat JSON-ready dict with a ``type`` discriminator."""
    cls = event.__class__
    names, mappings = _ENCODE_PLANS.get(cls) or _encode_plan(cls)
    record: Dict[str, Any] = {"type": cls.__name__}
    for name in names:
        record[name] = getattr(event, name)
    for name in mappings:
        value = record[name]
        if isinstance(value, Mapping):
            record[name] = dict(value)
    return record


def event_from_dict(record: Mapping[str, Any]) -> TraceEvent:
    """Inverse of :func:`event_to_dict`."""
    payload = dict(record)
    name = payload.pop("type", None)
    cls = EVENT_TYPES.get(name)
    if cls is None:
        raise ValueError(f"unknown trace event type {name!r}")
    try:
        return cls(**payload)
    except TypeError as exc:
        raise ValueError(f"malformed {name} record: {exc}") from None


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: What each declared field type accepts from a loaded trace.
_FIELD_TYPES: Dict[str, Any] = {
    "float": _is_number,
    "int": _is_int,
    "bool": lambda value: isinstance(value, bool),
    "str": lambda value: isinstance(value, str),
    "Optional[float]": lambda value: value is None or _is_number(value),
    "Mapping[str, float]": lambda value: isinstance(value, Mapping) and all(
        isinstance(key, str) and _is_number(item)
        for key, item in value.items()),
}


#: ``(name, declared type, checker)`` for each field of one event class.
_CheckPlan = Tuple[Tuple[str, str, Callable[[Any], bool]], ...]
#: Per event class, resolved once (``fields()`` per event dominated the
#: check).
_CHECK_PLANS: Dict[type, _CheckPlan] = {}


def _check_plan(cls: type) -> _CheckPlan:
    plan = tuple((spec.name, spec.type, _FIELD_TYPES[spec.type])
                 for spec in fields(cls))
    _CHECK_PLANS[cls] = plan
    return plan


def mistyped_field(events: Iterable[TraceEvent]) -> Optional[str]:
    """The first event field whose value its declared type rejects, as
    ``"record <n> (<type>) field <name>: ..."`` (records numbered from 1,
    after the header); ``None`` when every field is well-typed.

    The loader builds events without checking field types (checking
    would cost every load), so a hand-edited trace can carry, say, a
    string byte count; the CLI runs this once on every trace it loads
    and refuses one that fails it.
    """
    plans = _CHECK_PLANS
    for number, event in enumerate(events, 1):
        cls = event.__class__
        for name, declared, accepts in plans.get(cls) or _check_plan(cls):
            value = getattr(event, name)
            if not accepts(value):
                return (f"record {number} ({cls.__name__}) field "
                        f"{name}: expected {declared}, got "
                        f"{type(value).__name__} {value!r}")
    return None


def _slot_namespace(cls: type) -> Dict[str, Any]:
    """Globals for code generated over ``cls``: ``_set_<field>`` (each
    field's slot setter), ``_new`` and ``_cls``."""
    namespace: Dict[str, Any] = {
        f"_set_{spec.name}": getattr(cls, spec.name).__set__
        for spec in fields(cls)}
    namespace.update(_new=cls.__new__, _cls=cls)
    return namespace


def fast_ctor(cls: type) -> Any:
    """Constructor for a frozen slots event class, without the frozen guard.

    Frozen dataclasses route every ``__init__`` field assignment through
    ``object.__setattr__``, roughly tripling construction cost.  That
    dominates wherever events are built in bulk, such as the
    per-subflow-per-bin transport events (thousands per simulated
    session).  Assigning through the slot descriptors directly skips the
    frozen guard during construction only — instances are as immutable as
    ones built normally.  Parameters are the fields in declaration order,
    with their defaults, so positional and keyword calls bind exactly as
    ``cls(...)`` does.
    """
    specs = fields(cls)
    namespace = _slot_namespace(cls)
    params = []
    for spec in specs:
        if spec.default is MISSING:
            params.append(spec.name)
        else:
            namespace[f"_default_{spec.name}"] = spec.default
            params.append(f"{spec.name}=_default_{spec.name}")
    body = "".join(f"    _set_{spec.name}(self, {spec.name})\n"
                   for spec in specs)
    source = (f"def ctor({', '.join(params)}):\n"
              f"    self = _new(_cls)\n{body}    return self\n")
    exec(source, namespace)
    return namespace["ctor"]


def _record_reader(cls: type) -> Callable[[Dict[str, Any]], TraceEvent]:
    """Reader of a parsed record holding exactly ``cls``'s fields plus
    ``type``: reads each key and sets the slots directly, past the frozen
    guard (see :func:`fast_ctor`).  Any other record raises ``KeyError``.
    """
    specs = fields(cls)
    namespace = _slot_namespace(cls)
    body = "".join(f"    _set_{spec.name}(self, record[{spec.name!r}])\n"
                   for spec in specs)
    source = (f"def read(record):\n"
              f"    if len(record) != {len(specs) + 1}:\n"
              f"        raise KeyError('type')\n"
              f"    self = _new(_cls)\n{body}    return self\n")
    exec(source, namespace)
    return namespace["read"]


class _Readers(dict):
    """Type name → record reader, each generated when its type is first
    loaded; an unknown name raises ``KeyError``."""

    def __missing__(self, name: str) -> Callable[[Dict[str, Any]],
                                                   TraceEvent]:
        reader = self[name] = _record_reader(EVENT_TYPES[name])
        return reader


_READERS = _Readers()


def events_from_dicts(records: Iterable[Any]) -> List[TraceEvent]:
    """Bulk :func:`event_from_dict` for freshly parsed records.

    Equal events and the same ``ValueError`` messages: a record holding
    exactly its type's fields goes through that type's generated reader,
    any other (an older trace without a defaulted field, a missing or
    extra key, an unknown type) through :func:`event_from_dict`; a record
    that is not an object raises ``ValueError`` too.
    """
    readers = _READERS
    events: List[TraceEvent] = []
    append = events.append
    for record in records:
        try:
            append(readers[record["type"]](record))
        except (KeyError, TypeError):
            append(_event_from_record(record))
    return events


def _event_from_record(record: Any) -> TraceEvent:
    try:
        return event_from_dict(record)
    except TypeError as exc:
        if isinstance(record, dict) and "type" in record:
            # Quoted with the type key last, as these messages always were.
            record = dict(record)
            record["type"] = record.pop("type")
        raise ValueError(f"malformed trace record {record!r}: "
                         f"{exc}") from None


#: Fast constructor for the hottest event on the bus (one per subflow per
#: activity bin while a transfer is active).
new_packet_sent = fast_ctor(PacketSent)

#: Fast constructors for the per-chunk events (a few per transfer each).
new_transfer_started = fast_ctor(TransferStarted)
new_transfer_completed = fast_ctor(TransferCompleted)
new_deadline_armed = fast_ctor(DeadlineArmed)
new_http_request_sent = fast_ctor(HttpRequestSent)
new_http_response_received = fast_ctor(HttpResponseReceived)
new_chunk_requested = fast_ctor(ChunkRequested)
new_mp_dash_armed = fast_ctor(MpDashArmed)
new_mp_dash_skipped = fast_ctor(MpDashSkipped)
new_chunk_downloaded = fast_ctor(ChunkDownloaded)
