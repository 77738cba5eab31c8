"""The generated event classes against frozen slots dataclasses.

``repro.obs.events`` registers its fields with a plain slots dataclass
and generates ``__init__``, ``__repr__``, ``__eq__``, ``__hash__`` and
the fast constructors in one pass.  The definitions below are the
``@dataclass(frozen=True, slots=True)`` classes they replaced (docstrings
dropped); every class must behave exactly as its oracle does.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import sys
from dataclasses import FrozenInstanceError, dataclass
from typing import Mapping, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import events
from repro.obs.events import EVENT_TYPES, fast_ctor

frozen = dataclass(frozen=True, slots=True)


@frozen
class TraceEvent:
    time: float


@frozen
class PacketSent(TraceEvent):
    path: str
    num_bytes: float
    conn: int = 0


@frozen
class PathSampled(TraceEvent):
    path: str
    cwnd: float
    rtt: float
    throughput: float
    conn: int = 0


@frozen
class TransferStarted(TraceEvent):
    transfer: int
    tag: str
    size: float
    conn: int = 0


@frozen
class TransferCompleted(TraceEvent):
    transfer: int
    tag: str
    size: float
    duration: float
    conn: int = 0


@frozen
class PathStateRequested(TraceEvent):
    path: str
    enabled: bool
    conn: int = 0


@frozen
class SubflowStateChange(TraceEvent):
    path: str
    enabled: bool
    conn: int = 0


@frozen
class SubflowReconnected(TraceEvent):
    path: str
    count: int
    conn: int = 0


@frozen
class CwndRestarted(TraceEvent):
    path: str
    conn: int = 0


@frozen
class DeadlineArmed(TraceEvent):
    size: float
    window: float


@frozen
class DeadlineDisarmed(TraceEvent):
    pass


@frozen
class DeadlineExtended(TraceEvent):
    base: float
    extended: float
    buffer_level: float


@frozen
class SchedulerActivated(TraceEvent):
    transfer: int
    size: float
    window: float


@frozen
class DeadlineMissed(TraceEvent):
    transfer: int


@frozen
class HttpRequestSent(TraceEvent):
    url: str
    request: int = 0


@frozen
class HttpResponseReceived(TraceEvent):
    url: str
    status: int
    content_length: int
    request: int = 0


@frozen
class ChunkRequested(TraceEvent):
    index: int
    level: int
    buffer_level: float


@frozen
class MpDashArmed(TraceEvent):
    index: int
    deadline: float


@frozen
class MpDashSkipped(TraceEvent):
    index: int


@frozen
class ChunkDownloaded(TraceEvent):
    index: int
    level: int
    size: float
    duration: float
    requested_at: float
    throughput: float
    bytes_per_path: Mapping[str, float]
    deadline: Optional[float]
    buffer_at_request: float


@frozen
class QualitySwitched(TraceEvent):
    from_level: int
    to_level: int


@frozen
class PlaybackStarted(TraceEvent):
    pass


@frozen
class StallStart(TraceEvent):
    pass


@frozen
class StallEnd(TraceEvent):
    pass


@frozen
class PlaybackEnded(TraceEvent):
    pass


@frozen
class SessionClosed(TraceEvent):
    pass


@frozen
class RadioStateChange(TraceEvent):
    path: str
    state: str


ORACLE = sys.modules[__name__]
NAMES = ["TraceEvent", *sorted(EVENT_TYPES)]

_floats = st.floats(allow_nan=False) | st.integers(-2**40, 2**40)
#: What a field of each declared type is drawn from.
VALUES = {
    "float": _floats,
    "int": st.integers(-2**63, 2**63),
    "bool": st.booleans(),
    "str": st.text(max_size=12),
    "Optional[float]": st.none() | _floats,
    "Mapping[str, float]": st.dictionaries(st.text(max_size=6), _floats,
                                           max_size=3),
}


def pair(name):
    return getattr(events, name), getattr(ORACLE, name)


def spec(field):
    return (field.name, field.type, field.default, field.default_factory,
            field.init, field.repr, field.compare, field.hash,
            field.kw_only)


def outcome(call):
    """``("ok", repr(value))`` or ``("raised", type, message)``."""
    try:
        return ("ok", repr(call()))
    except Exception as exc:
        return ("raised", type(exc), str(exc))


@pytest.mark.parametrize("name", NAMES)
def test_fields_slots_and_match_args_match(name):
    cls, oracle = pair(name)
    assert [spec(f) for f in dataclasses.fields(cls)] == \
        [spec(f) for f in dataclasses.fields(oracle)]
    assert cls.__slots__ == oracle.__slots__
    assert cls.__match_args__ == oracle.__match_args__
    assert dataclasses.is_dataclass(cls)
    assert EVENT_TYPES.get(name, events.TraceEvent) is cls


def draw(data, oracle):
    return [data.draw(VALUES[f.type], label=f.name)
            for f in dataclasses.fields(oracle)]


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_instances_behave_as_the_oracle(name, data):
    cls, oracle = pair(name)
    values, others = draw(data, oracle), draw(data, oracle)
    event, twin, other = cls(*values), cls(*values), cls(*others)
    expected, expected_twin, expected_other = \
        oracle(*values), oracle(*values), oracle(*others)
    assert repr(event) == repr(expected)
    assert (event == twin) == (expected == expected_twin)
    assert (event == other) == (expected == expected_other)
    assert (event != other) == (expected != expected_other)
    assert event.__eq__(expected) is NotImplemented
    assert outcome(lambda: hash(event) == hash(twin)) == \
        outcome(lambda: hash(expected) == hash(expected_twin))
    assert outcome(lambda: hash(event)) == outcome(lambda: hash(expected))
    keywords = dict(zip(cls.__match_args__, values))
    assert cls(**keywords) == event
    assert fast_ctor(cls)(*values) == event
    assert fast_ctor(cls)(**keywords) == event
    # Copies, pickles and replace() round-trip to equal values.
    for clone in (copy.copy(event), copy.deepcopy(event),
                  pickle.loads(pickle.dumps(event))):
        assert type(clone) is cls and clone == event
        assert repr(clone) == repr(event)
    assert event.__reduce_ex__(4)[2] == expected.__reduce_ex__(4)[2]
    changed = dataclasses.replace(event, time=others[0])
    assert repr(changed) == repr(dataclasses.replace(expected,
                                                     time=others[0]))
    assert dataclasses.astuple(event) == dataclasses.astuple(expected)


@pytest.mark.parametrize("name", NAMES)
def test_frozen_guard_and_argument_errors_match(name):
    cls, oracle = pair(name)
    values = [0 for _ in dataclasses.fields(oracle)]
    event, expected = cls(*values), oracle(*values)
    for field in ("time", cls.__match_args__[-1]):
        assert outcome(lambda: setattr(event, field, 1)) == \
            outcome(lambda: setattr(expected, field, 1))
        assert outcome(lambda: delattr(event, field)) == \
            outcome(lambda: delattr(expected, field))
    # A frozen slots dataclass refuses other names with a TypeError from
    # its stale class cell; the guard refuses them as frozen.
    with pytest.raises(FrozenInstanceError):
        event.not_a_field = 1.0
    with pytest.raises(FrozenInstanceError):
        del event.time
    assert event.time == 0
    calls = [lambda c: c(), lambda c: c(*values[:-1]),
             lambda c: c(*values, 1), lambda c: c(*values, extra=1),
             lambda c: c(*values, time=2)]
    for call in calls:
        assert outcome(lambda: call(cls)) == outcome(lambda: call(oracle))
    for args, kwargs in (((), {}), (values, {"extra": 1})):
        with pytest.raises(TypeError):
            fast_ctor(cls)(*args, **kwargs)
