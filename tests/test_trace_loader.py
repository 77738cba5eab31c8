"""The JSONL loader: generated constructors, unchanged errors, and clean
failures on truncated or corrupted traces."""

import dataclasses
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.obs import (Trace, dumps_jsonl, load_jsonl, loads_jsonl,
                       triage_captures)
from repro.obs.events import (EVENT_TYPES, PacketSent, SessionClosed,
                              event_from_dict, events_from_dicts, fast_ctor,
                              mistyped_field)
from repro.obs.recorder import load_capture
from repro.obs.trace_export import TraceMeta, gzip_bytes

#: A hypothesis strategy per field annotation used by the taxonomy.
_VALUES = {
    "float": st.floats(allow_nan=False),
    "int": st.integers(-2**40, 2**40),
    "str": st.text(max_size=8),
    "bool": st.booleans(),
    "Mapping[str, float]": st.dictionaries(st.text(max_size=4),
                                           st.floats(allow_nan=False),
                                           max_size=3),
    "Optional[float]": st.none() | st.floats(allow_nan=False),
}


def _payloads(cls):
    """Every field of ``cls``; defaulted fields may be left out."""
    specs = dataclasses.fields(cls)
    required = {spec.name: _VALUES[spec.type] for spec in specs
                if spec.default is dataclasses.MISSING}
    optional = {spec.name: _VALUES[spec.type] for spec in specs
                if spec.default is not dataclasses.MISSING}
    return st.fixed_dictionaries(required, optional=optional)


@pytest.mark.parametrize("name", sorted(EVENT_TYPES))
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_generated_constructor_equals_the_dataclass(name, data):
    cls = EVENT_TYPES[name]
    payload = data.draw(_payloads(cls))
    (event,) = events_from_dicts([dict(payload, type=name)])
    assert type(event) is cls
    assert event == cls(**payload) == event_from_dict(
        dict(payload, type=name))
    assert dataclasses.astuple(event) == dataclasses.astuple(cls(**payload))
    with pytest.raises(dataclasses.FrozenInstanceError):
        event.time = 0.0


def test_omitted_defaults_take_the_declared_value():
    (event,) = events_from_dicts([{"type": "PacketSent", "time": 1.0,
                                   "path": "wifi", "num_bytes": 5.0}])
    assert event == PacketSent(1.0, "wifi", 5.0) and event.conn == 0
    assert fast_ctor(PacketSent)(1.0, "wifi", 5.0) == event
    assert fast_ctor(PacketSent)(time=1.0, path="wifi", num_bytes=5.0,
                                 conn=2) == PacketSent(1.0, "wifi", 5.0, 2)


def test_round_trip_through_the_text_format():
    events = [PacketSent(0.5, "wifi", 10.0, 1), SessionClosed(2.0)]
    meta = TraceMeta(session_duration=2.0)
    assert loads_jsonl(dumps_jsonl(events, meta)).events == events


@pytest.mark.parametrize("record", [
    {"type": "NoSuchEvent", "time": 0.0},
    {"time": 0.0},
    {"type": None, "time": 0.0},
    {"type": "PacketSent", "time": 0.0, "path": "wifi"},
    {"type": "PacketSent", "time": 0.0, "path": "wifi", "num_bytes": 1.0,
     "bogus_field": 1},
    {"type": "SessionClosed", "time": 0.0, "self": 1},
])
def test_bad_records_raise_the_same_errors(record):
    with pytest.raises(ValueError) as canonical:
        event_from_dict(record)
    with pytest.raises(ValueError) as bulk:
        events_from_dicts([dict(record)])
    assert str(bulk.value) == str(canonical.value)
    text = '{"meta":{"session_duration":1.0}}\n' + json.dumps(record) + "\n"
    with pytest.raises(ValueError) as loaded:
        loads_jsonl(text)
    assert str(loaded.value) == str(canonical.value)


@pytest.mark.parametrize("record", ["5", "null", "[1, 2]", '"text"',
                                    '{"type": ["PacketSent"]}'])
def test_records_that_are_not_events_raise_value_error(record):
    text = '{"meta":{"session_duration":1.0}}\n' + record + "\n"
    with pytest.raises(ValueError):
        loads_jsonl(text)


def test_bad_json_names_its_line():
    text = ('{"meta":{"session_duration":1.0}}\n\n'
            '{"type":"SessionClosed","time":1.0}\n'
            '{"type":"SessionClosed",\n')
    with pytest.raises(ValueError, match="^line 4: "):
        loads_jsonl(text)
    with pytest.raises(ValueError, match="^line 1: "):
        loads_jsonl("{meta}\n")


def test_slow_path_skips_blank_lines_and_keeps_results():
    events = [SessionClosed(1.0)]
    text = dumps_jsonl(events, TraceMeta(session_duration=1.0))
    spaced = "\n\n" + text.replace("\n", "\n\n") + "  \n"
    assert loads_jsonl(spaced) == loads_jsonl(text)
    assert loads_jsonl(text.replace("\n", "\r\n")) == loads_jsonl(text)


def test_two_records_on_one_line_are_rejected():
    text = ('{"meta":{"session_duration":1.0}}\n'
            '{"type":"StallStart","time":1.0},'
            '{"type":"StallEnd","time":2.0}\n')
    with pytest.raises(ValueError, match="^line 2: "):
        loads_jsonl(text)


@pytest.mark.parametrize("header", [
    "5", '{"meta": 5}', '{"meta": {"session_duration": 1.0, "bogus": 1}}',
    '{"meta": {"session_duration": 1.0, "version": 9}}',
    '{"meta": {"session_duration": 1.0, "activity_bin": 0}}',
    '{"meta": {"session_duration": 1.0, "activity_bin": "0.1"}}'])
def test_bad_headers_raise_value_error(header):
    with pytest.raises(ValueError):
        loads_jsonl(header + "\n")


# ----------------------------------------------------------------------
# Truncated and corrupted files
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def clean_text():
    from repro.experiments import SessionConfig, run_session

    result = run_session(SessionConfig(
        video="big_buck_bunny", abr="festive", mpdash=True,
        wifi_mbps=3.8, lte_mbps=3.0, video_duration=20.0,
        record_trace=True))
    return dumps_jsonl(result.events, result.trace_meta)


#: The damaged traces every loader entry point is run on.
NAMES = ("truncated.jsonl", "flipped.jsonl", "not-utf8.jsonl",
         "truncated.jsonl.gz", "flipped.jsonl.gz", "empty.jsonl.gz",
         "not-gzip.jsonl.gz")


def _corruptions(text):
    """File name -> bytes of every damaged trace the tests load."""
    plain = text.encode("utf-8")
    packed = gzip_bytes(plain)
    second = plain.index(b"\n") + 1  # first byte of the first record
    flipped = bytearray(plain)
    flipped[second] ^= 0x01  # '{' -> 'z'
    packed_flipped = bytearray(packed)
    packed_flipped[len(packed) // 2] ^= 0x10
    return {
        "truncated.jsonl": plain[:len(plain) // 2 + 3],
        "flipped.jsonl": bytes(flipped),
        "not-utf8.jsonl": plain[:second] + b"\xff" + plain[second:],
        "truncated.jsonl.gz": packed[:len(packed) // 2],
        "flipped.jsonl.gz": bytes(packed_flipped),
        "empty.jsonl.gz": b"",
        "not-gzip.jsonl.gz": plain,
    }


@pytest.fixture(scope="module")
def damaged(clean_text, tmp_path_factory):
    root = tmp_path_factory.mktemp("damaged")
    paths = {}
    corruptions = _corruptions(clean_text)
    assert sorted(corruptions) == sorted(NAMES)
    for name, data in corruptions.items():
        path = root / name
        path.write_bytes(data)
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("name", NAMES)
def test_load_jsonl_raises_value_or_os_error(damaged, name):
    with pytest.raises((ValueError, OSError)):
        load_jsonl(damaged[name])


@pytest.mark.parametrize("name", ["truncated.jsonl.gz", "not-utf8.jsonl"])
def test_decoding_errors_leave_the_path_to_the_caller(damaged, name):
    with pytest.raises(ValueError, match=r"^corrupt trace \(") as error:
        load_jsonl(damaged[name])
    assert damaged[name] not in str(error.value)
    root, artifact = os.path.split(damaged[name])
    with pytest.raises(ValueError) as error:
        load_capture(root, artifact)
    assert str(error.value).startswith(f"{damaged[name]}: corrupt trace (")
    assert str(error.value).count(damaged[name]) == 1


def test_file_objects_and_text_raise_too(damaged):
    with open(damaged["truncated.jsonl"], encoding="utf-8") as handle:
        with pytest.raises(ValueError, match="^line "):
            load_jsonl(handle)
    with open(damaged["flipped.jsonl"], encoding="utf-8") as handle:
        with pytest.raises(ValueError, match="^line 2: "):
            loads_jsonl(handle.read())


@pytest.mark.parametrize("name", NAMES)
def test_capture_readers_report_instead_of_raising(damaged, name, tmp_path):
    root, artifact = os.path.split(damaged[name])
    record = {"index": 7, "artifact": artifact, "violations": None}
    triaged = triage_captures(root, [record], str(tmp_path / "out"))[7]
    assert triaged["replay"]["replayed"] is False
    assert triaged["why"]["attributed"] is False
    for error in (triaged["replay"]["error"], triaged["why"]["error"]):
        assert artifact in error
    assert triaged["report"] is None
    assert not (tmp_path / "out").exists()


#: ``repro`` commands that take ``--load FILE``, with their exit status
#: for a trace they cannot load.
LOAD_COMMANDS = [(["trace"], 1), (["stats"], 1), (["spans"], 1),
                 (["check"], 2), (["report", "--out", "{out}"], 1),
                 (["why"], 2)]


@pytest.mark.parametrize("command,status", LOAD_COMMANDS)
@pytest.mark.parametrize("name", NAMES)
def test_cli_load_says_cannot_load(damaged, name, command, status,
                                   tmp_path, capsys):
    argv = [arg.format(out=tmp_path / "out.html") for arg in command]
    assert main(argv + ["--load", damaged[name]]) == status
    captured = capsys.readouterr()
    assert "cannot load" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("name", NAMES)
def test_cli_diff_says_cannot_load(damaged, name, clean_text, tmp_path,
                                   capsys):
    good, copy = tmp_path / "good.jsonl", tmp_path / "copy.jsonl"
    bad = damaged[name]
    good.write_text(clean_text)
    assert main(["trace", "--load", str(good), "--out", str(copy),
                 "--diff", bad]) == 1
    assert not copy.exists()
    assert main(["why", "--diff", str(good), bad]) == 2
    assert main(["why", "--diff", bad, str(good)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 3
    for command, line in zip(("trace", "why", "why"), lines):
        assert line.startswith(f"repro {command}: cannot load {bad}: ")
    assert captured.out == ""


def test_trace_diff_writes_the_copy_and_says_so(clean_text, tmp_path,
                                                capsys):
    good, copy = tmp_path / "good.jsonl", tmp_path / "copy.jsonl"
    good.write_text(clean_text)
    assert main(["trace", "--load", str(good), "--out", str(copy),
                 "--diff", str(good), "--json"]) == 0
    captured = capsys.readouterr()
    assert set(json.loads(captured.out)["delta"].values()) == {0}
    assert captured.err == f"trace written to {copy}\n"
    assert copy.read_text() == clean_text


# ----------------------------------------------------------------------
# Fields of the wrong type
# ----------------------------------------------------------------------
#: A hand-written three-event trace whose cellular byte count is a string.
MISTYPED = (
    '{"meta":{"activity_bin":0.1,"device":"galaxy_note",'
    '"session_duration":5.0,"version":1}}\n'
    '{"num_bytes":1500.0,"path":"wifi","time":0.5,"type":"PacketSent"}\n'
    '{"num_bytes":"600","path":"cellular","time":0.6,"type":"PacketSent"}\n'
    '{"time":5.0,"type":"SessionClosed"}\n')
MISTYPED_FIELD = ("record 2 (PacketSent) field num_bytes: expected float, "
                  "got str '600'")

#: Mistyped fields no view trips over: only the CLI's type check on
#: load refuses a trace holding one of them.
SILENT = [
    ("MpDashArmed.deadline",
     '{"deadline":"x","index":0,"time":0.6,"type":"MpDashArmed"}',
     "record 2 (MpDashArmed) field deadline: expected float, got str 'x'"),
    ("SubflowStateChange.enabled",
     '{"enabled":"x","path":"cellular","time":0.6,'
     '"type":"SubflowStateChange"}',
     "record 2 (SubflowStateChange) field enabled: expected bool, "
     "got str 'x'"),
    ("PathStateRequested.path",
     '{"enabled":true,"path":1.5,"time":0.6,"type":"PathStateRequested"}',
     "record 2 (PathStateRequested) field path: expected str, "
     "got float 1.5"),
]
_HEAD, _WIFI, _, _CLOSED = MISTYPED.splitlines(keepends=True)
#: (trace text, expected field message) for every mistyped trace above.
MISTYPED_TRACES = [pytest.param(MISTYPED, MISTYPED_FIELD,
                                id="PacketSent.num_bytes")] + [
    pytest.param(_HEAD + _WIFI + record + "\n" + _CLOSED, field, id=name)
    for name, record, field in SILENT]


def test_the_loader_accepts_a_field_of_the_wrong_type():
    """Checking types would cost every load; the CLI checks the traces
    it loads instead."""
    trace = loads_jsonl(MISTYPED)
    assert trace.events[1].num_bytes == "600"
    assert mistyped_field(trace.events) == MISTYPED_FIELD


def test_recorded_sessions_are_well_typed(clean_text):
    assert mistyped_field(loads_jsonl(clean_text).events) is None


@pytest.mark.parametrize("name", sorted(EVENT_TYPES))
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_mistyped_field_names_the_first_wrong_field(name, data):
    cls = EVENT_TYPES[name]
    payload = data.draw(_payloads(cls))
    (event,) = events_from_dicts([dict(payload, type=name)])
    assert mistyped_field([event]) is None
    spec = data.draw(st.sampled_from(dataclasses.fields(cls)))
    wrong = 1.5 if spec.type == "str" else "x"
    (bad,) = events_from_dicts([dict(payload, type=name,
                                     **{spec.name: wrong})])
    assert mistyped_field([event, bad]) == (
        f"record 2 ({name}) field {spec.name}: expected {spec.type}, "
        f"got {type(wrong).__name__} {wrong!r}")


@pytest.mark.parametrize("command,_status", LOAD_COMMANDS)
@pytest.mark.parametrize("text,field", MISTYPED_TRACES)
def test_cli_load_names_a_field_of_the_wrong_type(text, field, command,
                                                  _status, tmp_path, capsys):
    path = tmp_path / "mistyped.jsonl"
    path.write_text(text)
    argv = [arg.format(out=tmp_path / "out.html") for arg in command]
    assert main(argv + ["--load", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"repro {command[0]}: cannot load {path}: "
                            f"{field}\n")
    assert captured.out == ""


#: A well-typed value per field annotation, for hand-built records.
_WELL_TYPED = {"float": 1.0, "int": 1, "str": "wifi", "bool": True,
               "Mapping[str, float]": {"wifi": 1.0},
               "Optional[float]": None}


@pytest.mark.parametrize("name", sorted(EVENT_TYPES))
def test_cli_load_refuses_every_mistyped_field(name, tmp_path, capsys):
    """Each field of each event type, alone of the wrong type, makes
    ``stats --load`` exit 2 with the one line naming it, whether or not
    a view would have tripped over it."""
    specs = dataclasses.fields(EVENT_TYPES[name])
    payload = {spec.name: _WELL_TYPED[spec.type] for spec in specs}
    path = tmp_path / "mistyped.jsonl"
    for spec in specs:
        wrong = 1.5 if spec.type == "str" else "x"
        record = dict(payload, type=name, **{spec.name: wrong})
        path.write_text(_HEAD + _WIFI + json.dumps(record) + "\n" + _CLOSED)
        assert main(["stats", "--load", str(path)]) == 2, spec.name
        captured = capsys.readouterr()
        assert captured.err == (
            f"repro stats: cannot load {path}: record 2 ({name}) field "
            f"{spec.name}: expected {spec.type}, got "
            f"{type(wrong).__name__} {wrong!r}\n")
        assert captured.out == ""


def test_trace_out_writes_no_copy_of_a_mistyped_trace(tmp_path):
    path, copy = tmp_path / "mistyped.jsonl", tmp_path / "copy.jsonl"
    path.write_text(MISTYPED)
    assert main(["trace", "--load", str(path), "--out", str(copy)]) == 2
    assert not copy.exists()


def test_cli_diff_names_the_mistyped_trace(clean_text, tmp_path, capsys):
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    good.write_text(clean_text)
    bad.write_text(MISTYPED)
    assert main(["trace", "--load", str(good), "--diff", str(bad)]) == 2
    assert main(["why", "--diff", str(good), str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"repro trace: cannot load {bad}: {MISTYPED_FIELD}\n"
        f"repro why: cannot load {bad}: {MISTYPED_FIELD}\n")


@pytest.mark.parametrize("text,field", MISTYPED_TRACES[1:])
def test_cli_diff_names_a_silently_mistyped_trace(text, field, clean_text,
                                                  tmp_path, capsys):
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    good.write_text(clean_text)
    bad.write_text(text)
    assert main(["trace", "--load", str(good), "--diff", str(bad)]) == 2
    assert main(["why", "--diff", str(good), str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"repro trace: cannot load {bad}: {field}\n"
                            f"repro why: cannot load {bad}: {field}\n")
    assert captured.out == ""


def test_cli_reraises_what_a_well_typed_trace_does_not_explain(
        clean_text, tmp_path, monkeypatch):
    path = tmp_path / "good.jsonl"
    path.write_text(clean_text)

    def broken(trace):
        raise TypeError("a bug in the view")

    monkeypatch.setattr("repro.obs.registry_from_trace", broken)
    with pytest.raises(TypeError, match="a bug in the view"):
        main(["stats", "--load", str(path)])


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_any_bit_flip_loads_or_raises_value_or_os_error(clean_text, data,
                                                        tmp_path_factory):
    head = clean_text.encode("utf-8")[:4000]
    head = head[:head.rindex(b"\n") + 1]
    packed = data.draw(st.booleans())
    blob = bytearray(gzip_bytes(head) if packed else head)
    position = data.draw(st.integers(0, len(blob) - 1))
    blob[position] ^= 1 << data.draw(st.integers(0, 7))
    path = tmp_path_factory.mktemp("flip") / (
        "trace.jsonl.gz" if packed else "trace.jsonl")
    path.write_bytes(bytes(blob))
    try:
        assert isinstance(load_jsonl(str(path)), Trace)
    except (ValueError, OSError):
        pass

