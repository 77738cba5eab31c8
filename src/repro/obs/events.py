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

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Tuple)

#: Registers an event class's fields and slots; its methods come from
#: :func:`_generate`, one code-generation pass over every class.
_event = dataclass(slots=True, init=False, repr=False, eq=False)


@_event
class TraceEvent:
    """Base of every bus event: a simulated-clock timestamp."""

    time: float

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getstate__(self) -> List[Any]:
        return [getattr(self, name) for name in self.__match_args__]

    def __setstate__(self, state: List[Any]) -> None:
        for name, value in zip(self.__match_args__, state):
            object.__setattr__(self, name, value)


# ----------------------------------------------------------------------
# Transport layer (repro.mptcp, repro.net)
# ----------------------------------------------------------------------
@_event
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


@_event
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


@_event
class TransferStarted(TraceEvent):
    """A transfer's first response byte is about to flow."""

    transfer: int
    tag: str
    size: float
    conn: int = 0


@_event
class TransferCompleted(TraceEvent):
    """The transfer's last byte arrived."""

    transfer: int
    tag: str
    size: float
    duration: float
    conn: int = 0


@_event
class PathStateRequested(TraceEvent):
    """Client-side enable/disable decision entered the signaling channel."""

    path: str
    enabled: bool
    conn: int = 0


@_event
class SubflowStateChange(TraceEvent):
    """Server-side *effective* path state flipped (post signaling delay)."""

    path: str
    enabled: bool
    conn: int = 0


@_event
class SubflowReconnected(TraceEvent):
    """A torn-down subflow finished its re-establishment handshake."""

    path: str
    count: int
    conn: int = 0


@_event
class CwndRestarted(TraceEvent):
    """RFC 2861 congestion-window validation collapsed the window."""

    path: str
    conn: int = 0


# ----------------------------------------------------------------------
# MP-DASH control plane (repro.core)
# ----------------------------------------------------------------------
@_event
class DeadlineArmed(TraceEvent):
    """MP_DASH_ENABLE: the next ``size`` bytes carry a deadline window."""

    size: float
    window: float


@_event
class DeadlineDisarmed(TraceEvent):
    """MP_DASH_DISABLE: scheduler explicitly deactivated."""


@_event
class DeadlineExtended(TraceEvent):
    """The §5 deadline-extension relaxed a chunk's window above Φ."""

    base: float
    extended: float
    buffer_level: float


@_event
class SchedulerActivated(TraceEvent):
    """An armed deadline bound to a concrete transfer."""

    transfer: int
    size: float
    window: float


@_event
class DeadlineMissed(TraceEvent):
    """The deadline passed mid-transfer; every path re-enabled."""

    transfer: int


# ----------------------------------------------------------------------
# HTTP (repro.dash.http)
# ----------------------------------------------------------------------
@_event
class HttpRequestSent(TraceEvent):
    """A GET left the client; ``request`` ids it."""

    url: str
    #: Client-scoped request id correlating request with response (spans
    #: join on it).  Defaults to 0 so older traces still load.
    request: int = 0


@_event
class HttpResponseReceived(TraceEvent):
    """The response for ``request`` fully arrived."""

    url: str
    status: int
    content_length: int
    request: int = 0


# ----------------------------------------------------------------------
# DASH player (repro.dash)
# ----------------------------------------------------------------------
@_event
class ChunkRequested(TraceEvent):
    """The player asked for chunk ``index`` at ``level``."""

    index: int
    level: int
    buffer_level: float


@_event
class MpDashArmed(TraceEvent):
    """The adapter armed the scheduler for this chunk."""

    index: int
    deadline: float


@_event
class MpDashSkipped(TraceEvent):
    """The adapter left MP-DASH off for this chunk (Ω guard / startup)."""

    index: int


@_event
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


@_event
class QualitySwitched(TraceEvent):
    """The next chunk's level differs from the last one's."""

    from_level: int
    to_level: int


@_event
class PlaybackStarted(TraceEvent):
    """Startup threshold reached; the playout clock starts draining."""


@_event
class StallStart(TraceEvent):
    """Playback buffer ran dry mid-session."""


@_event
class StallEnd(TraceEvent):
    """Playback resumed after a rebuffering interval."""


@_event
class PlaybackEnded(TraceEvent):
    """The last chunk played out."""


@_event
class SessionClosed(TraceEvent):
    """Terminal event: the session's simulation stopped at this time."""


# ----------------------------------------------------------------------
# Energy (repro.energy)
# ----------------------------------------------------------------------
#: Radio power states for :class:`RadioStateChange`.
RADIO_ACTIVE = "active"
RADIO_TAIL = "tail"
RADIO_IDLE = "idle"


@_event
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


#: Globals of the generated code: ``_new``, the classes by name and each
#: field's slot setter as ``_set_<class>_<field>``.
_GENERATED: Dict[str, Any] = {"_new": object.__new__}


def _generate(classes: Tuple[type, ...]) -> Dict[type, Callable[..., Any]]:
    """Give each class the ``__init__``, ``__repr__``, ``__eq__`` and
    ``__hash__`` that ``@dataclass(frozen=True)`` would, from one
    ``exec``; return each class's fast constructor, which skips
    ``type.__call__`` (one event per subflow per activity bin is built).
    Fields are set through the slot descriptors, past the frozen guard:
    ``object.__setattr__`` per field tripled construction cost.
    """
    source = []
    for cls in classes:
        name, names = cls.__name__, cls.__match_args__
        _GENERATED[name] = cls
        for field in names:
            _GENERATED[f"_set_{name}_{field}"] = getattr(cls, field).__set__
        # Defaults are JSON-representable values, so their repr is source.
        params = [spec.name if spec.default is MISSING
                  else f"{spec.name}={spec.default!r}" for spec in fields(cls)]
        own = "".join(f"self.{field}," for field in names)
        other = own.replace("self.", "other.")
        shown = ", ".join(f"{field}={{self.{field}!r}}" for field in names)
        sets = "".join(f"    _set_{name}_{field}(self, {field})\n"
                       for field in names)
        signature = ", ".join(params)
        source += [
            f"def {name}__init__(self, {signature}):\n{sets}",
            f"def {name}_new({signature}):\n"
            f"    self = _new({name})\n{sets}    return self\n",
            f"def {name}__repr__(self):\n"
            f"    return self.__class__.__qualname__ + f'({shown})'\n",
            f"def {name}__eq__(self, other):\n"
            f"    if other.__class__ is self.__class__:\n"
            f"        return ({own}) == ({other})\n"
            f"    return NotImplemented\n",
            f"def {name}__hash__(self):\n    return hash(({own}))\n"]
    exec("".join(source), _GENERATED)
    ctors = {}
    for cls in classes:
        for method in ("__init__", "__repr__", "__eq__", "__hash__"):
            function = _GENERATED.pop(cls.__name__ + method)
            function.__name__ = method
            function.__qualname__ = f"{cls.__qualname__}.{method}"
            setattr(cls, method, function)
        ctors[cls] = _GENERATED.pop(cls.__name__ + "_new")
    return ctors


#: ``fast_ctor(cls)``: an event class's fast constructor, which binds
#: positional and keyword arguments exactly as ``cls(...)`` does.
fast_ctor = _generate((TraceEvent, *EVENT_TYPES.values())).__getitem__


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


def _record_reader(cls: type) -> Callable[[Dict[str, Any]], TraceEvent]:
    """Reader of a parsed record holding exactly ``cls``'s fields plus
    ``type``: reads each key and sets the slots directly, past the frozen
    guard (see :func:`_generate`).  Any other record raises ``KeyError``.
    """
    name = cls.__name__
    names = cls.__match_args__
    body = "".join(f"    _set_{name}_{field}(self, record[{field!r}])\n"
                   for field in names)
    exec(f"def {name}_read(record):\n"
         f"    if len(record) != {len(names) + 1}:\n"
         f"        raise KeyError('type')\n"
         f"    self = _new({name})\n{body}    return self\n", _GENERATED)
    return _GENERATED.pop(f"{name}_read")


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
