"""The JSONL loader's generated record readers.

A parsed record holding exactly its type's fields plus ``type`` goes
through that type's reader; every other record falls back to
``event_from_dict``.  The oracle below is the earlier loader copied
verbatim (renamed ``old_events_from_dicts``): it popped ``type`` and
called a generated constructor with ``**record``.  Every record must
load to the same event, or fail with the same ``ValueError`` text.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.obs import loads_jsonl
from repro.obs.events import (_READERS, EVENT_TYPES, ChunkDownloaded,
                              HttpRequestSent, HttpResponseReceived,
                              PacketSent, PathSampled, event_from_dict,
                              event_to_dict, events_from_dicts, fast_ctor)


# ----------------------------------------------------------------------
# Oracle: the previous loader, verbatim
# ----------------------------------------------------------------------
_LOAD_CTORS = {name: fast_ctor(cls) for name, cls in EVENT_TYPES.items()}
_NO_TYPE = object()


def old_events_from_dicts(records):
    ctors = _LOAD_CTORS
    events = []
    append = events.append
    for record in records:
        name = _NO_TYPE
        try:
            name = record.pop("type")
            append(ctors[name](**record))
        except (AttributeError, KeyError, TypeError):
            # Off the fast path (unknown type, bad fields, not an
            # object): event_from_dict decides, with its own messages.
            if name is not _NO_TYPE:
                record["type"] = name
            try:
                append(event_from_dict(record))
            except TypeError as exc:
                raise ValueError(f"malformed trace record {record!r}: "
                                 f"{exc}") from None
    return events


def _outcome(load, text):
    """``load`` over the parsed records of ``text``: the events, or the
    ``ValueError`` text."""
    try:
        return load(json.loads(text))
    except ValueError as exc:
        return f"ValueError: {exc}"


# ----------------------------------------------------------------------
# Canonical records
# ----------------------------------------------------------------------
#: A value per declared field type, distinct from every default.
_SAMPLES = {
    "float": 2.5,
    "int": 7,
    "str": "wifi",
    "bool": True,
    "Mapping[str, float]": {"cellular": 1.5, "wifi": 3.0},
    "Optional[float]": 4.25,
}


def _canonical(cls):
    return cls(**{spec.name: _SAMPLES[spec.type]
                  for spec in dataclasses.fields(cls)})


def test_the_taxonomy_has_twenty_six_kinds():
    assert len(EVENT_TYPES) == 26


@pytest.mark.parametrize("name", sorted(EVENT_TYPES))
def test_a_canonical_record_reads_to_the_dataclass(name):
    event = _canonical(EVENT_TYPES[name])
    record = event_to_dict(event)
    read = _READERS[name](record)
    assert type(read) is EVENT_TYPES[name]
    assert read == event
    assert dataclasses.astuple(read) == dataclasses.astuple(event)
    assert record == event_to_dict(event)  # the reader leaves it intact
    (loaded,) = events_from_dicts([record])
    assert loaded == event == event_from_dict(record)
    with pytest.raises(dataclasses.FrozenInstanceError):
        read.time = 0.0


@pytest.mark.parametrize("name", sorted(EVENT_TYPES))
def test_a_reader_takes_only_its_exact_field_set(name):
    record = event_to_dict(_canonical(EVENT_TYPES[name]))
    with pytest.raises(KeyError):
        _READERS[name](dict(record, extra=1))
    for key in [key for key in record if key != "type"]:
        short = {k: v for k, v in record.items() if k != key}
        with pytest.raises(KeyError):
            _READERS[name](short)
        with pytest.raises(KeyError):
            _READERS[name](dict(short, extra=1))


def test_an_unknown_type_has_no_reader():
    with pytest.raises(KeyError):
        _READERS["NoSuchEvent"]
    assert "NoSuchEvent" not in _READERS


def test_readers_are_built_when_their_type_is_first_loaded():
    code = ("import repro.obs.events as e\n"
            "assert not e._READERS, list(e._READERS)\n"
            "e.events_from_dicts([{'type': 'SessionClosed', 'time': 1.0}])\n"
            "assert list(e._READERS) == ['SessionClosed'], list(e._READERS)\n")
    root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [root, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


# ----------------------------------------------------------------------
# Every other record: the same event or the same message as before
# ----------------------------------------------------------------------
#: An older trace: records without their defaulted field.
_OLDER_TRACE = (
    '[{"type": "PacketSent", "time": 1.0, "path": "wifi", "num_bytes": 5},'
    ' {"type": "HttpRequestSent", "time": 1.0, "url": "/v/1.m4s"},'
    ' {"type": "HttpResponseReceived", "time": 1.0, "url": "/v/1.m4s",'
    ' "status": 200, "content_length": 10}]')

_EDGE_RECORDS = [
    _OLDER_TRACE,
    # An extra key, with and without the defaulted field.
    '[{"type": "PacketSent", "time": 1.0, "path": "wifi", "num_bytes": 5,'
    ' "conn": 0, "bogus": 1}]',
    '[{"type": "PacketSent", "time": 1.0, "path": "wifi", "num_bytes": 5,'
    ' "bogus": 1}]',
    '[{"type": "SessionClosed", "time": 0.0, "self": 1}]',
    # A missing required field, alone and beside an extra key.
    '[{"type": "PacketSent", "time": 1.0, "path": "wifi", "conn": 0}]',
    '[{"type": "PacketSent", "time": 1.0, "path": "wifi", "conn": 0,'
    ' "bogus": 1}]',
    '[{"type": "ChunkDownloaded", "time": 1.0}]',
    # An unknown, missing, null or unhashable type.
    '[{"type": "NoSuchEvent", "time": 0.0}]',
    '[{"time": 0.0}]',
    '[{"type": null, "time": 0.0}]',
    '[{"type": 5, "time": 0.0}]',
    '[{"type": ["PacketSent"]}]',
    '[{"time": 0.0, "type": {"a": 1}}]',
    # Records that are not objects.
    '[5]', '[null]', '[[1, 2]]', '["text"]', '["ab"]', '[["ty"]]',
    '[true]', '[1.5]',
    # A good record before a bad one.
    '[{"type": "SessionClosed", "time": 1.0}, {"type": "Bad", "time": 2}]',
]


@pytest.mark.parametrize("text", _EDGE_RECORDS)
def test_other_records_load_or_fail_as_before(text):
    outcome = _outcome(events_from_dicts, text)
    assert outcome == _outcome(old_events_from_dicts, text)
    body = "\n".join(json.dumps(record) for record in json.loads(text))
    try:
        loaded = loads_jsonl('{"meta":{"session_duration":1.0}}\n'
                             + body + "\n").events
    except ValueError as exc:
        loaded = f"ValueError: {exc}"
    assert loaded == outcome


def test_an_older_trace_takes_the_declared_defaults():
    packet, request, response = _outcome(events_from_dicts, _OLDER_TRACE)
    assert packet == PacketSent(1.0, "wifi", 5) and packet.conn == 0
    assert request == HttpRequestSent(1.0, "/v/1.m4s") and \
        request.request == 0
    assert response == HttpResponseReceived(1.0, "/v/1.m4s", 200, 10)


def test_messages_name_the_record_as_before():
    assert _outcome(events_from_dicts, '[{"type": "X", "time": 0}]') == \
        "ValueError: unknown trace event type 'X'"
    assert _outcome(events_from_dicts, '[{"type": ["P"], "time": 0}]') == (
        "ValueError: malformed trace record {'time': 0, 'type': ['P']}: "
        "unhashable type: 'list'")
    assert _outcome(events_from_dicts, "[5]").startswith(
        "ValueError: malformed trace record 5: ")
    missing = _outcome(events_from_dicts,
                       '[{"type": "ChunkDownloaded", "time": 1.0}]')
    assert missing.startswith("ValueError: malformed ChunkDownloaded "
                              "record: ")


def test_records_are_not_consumed():
    records = [event_to_dict(PathSampled(1.0, "wifi", 3.0, 0.05, 2.0)),
               event_to_dict(ChunkDownloaded(
                   2.0, 1, 2, 3.0, 0.5, 1.5, 6.0, {"wifi": 3.0}, None,
                   4.0))]
    before = json.dumps(records)
    events_from_dicts(records)
    assert json.dumps(records) == before
