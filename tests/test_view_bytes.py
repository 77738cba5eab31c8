"""Byte pins for the offline read side.

The session report, the invariant verdicts, the ``why`` verdicts and the
offline registry are pure functions of a trace.  These digests hold
their exact bytes for two recorded sessions (a clean 60 s MP-DASH
session and one with a seeded scheduler fault) and for an empty trace,
so a refactor of the views, the report panels or the SVG emitter cannot
move a single byte unnoticed.  Each view is computed on its own freshly
loaded copy, so the pins do not depend on view order or sharing.

To print the current digests::

    PYTHONPATH=src python tests/test_view_bytes.py
"""

import hashlib
import json

import pytest

from repro.experiments import SessionConfig, run_session
from repro.experiments.fleet import _scheduler_fault
from repro.obs import (Trace, attributions_from_trace, check_trace,
                       dumps_jsonl, loads_jsonl, registry_from_trace,
                       session_report_html)
from repro.obs.trace_export import TraceMeta


def _clean_session() -> str:
    """The 60 s session ``tests/test_obs_report.py`` renders."""
    result = run_session(SessionConfig(
        video="big_buck_bunny", abr="festive", mpdash=True,
        deadline_mode="rate", wifi_mbps=3.8, lte_mbps=3.0,
        video_duration=60.0, record_trace=True, collect_metrics=True,
        collect_spans=True))
    return dumps_jsonl(result.events, result.trace_meta)


def _faulted_session() -> str:
    """A 40 s session with the fleet's seeded path-control fault."""
    with _scheduler_fault():
        result = run_session(SessionConfig(
            video="big_buck_bunny", abr="festive", mpdash=True,
            deadline_mode="rate", wifi_mbps=3.8, lte_mbps=3.0,
            video_duration=40.0, record_trace=True, collect_metrics=True))
    return dumps_jsonl(result.events, result.trace_meta)


def _empty_session() -> str:
    return dumps_jsonl([], TraceMeta(session_duration=0.0))


SESSIONS = {"clean": _clean_session, "faulted": _faulted_session,
            "empty": _empty_session}


def _json_digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()
                          ).hexdigest()


VIEWS = {
    "report": lambda trace: hashlib.sha256(
        session_report_html(trace).encode()).hexdigest(),
    "check": lambda trace: _json_digest(check_trace(trace).to_dict()),
    "why": lambda trace: _json_digest(
        [a.to_dict() for a in attributions_from_trace(trace)]),
    "registry": lambda trace: _json_digest(
        registry_from_trace(trace).to_dict()),
}

#: sha256 of each (session, view), computed before the read side was
#: restructured; they must never move.
PINNED = {
    ("clean", "check"):
        "9e0ac1678b2368973e0e0e48f237ecb834a7c963f04d21e8e1e403060ecb81d7",
    ("clean", "registry"):
        "03049333b8e6dbcdc273d045703b90da804313da48863fd6c7aaf612c901b556",
    ("clean", "report"):
        "ccab193e5a285776b85ca84fa734c48409da963dcf875d02f39e8d77ca51fb15",
    ("clean", "why"):
        "b93bbd83c6398c2c813f9802b8289d1ab1f3fd2aa8e146c2fee0b007f63708c4",
    ("empty", "check"):
        "64b520fb6cf825659d7169e365b0d3a8db717679ffdedd7a03908d27198b836c",
    ("empty", "registry"):
        "34c88a863d3e939ea28381abff4e04607313ede48b33492df0b0daab5775eefb",
    ("empty", "report"):
        "6ee54aac70c8e7d7cac32e2a68d6f1771f37301120691c44c6b8cb3f551f97d8",
    ("empty", "why"):
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("faulted", "check"):
        "f753cba934ea9fc518d67e90c4c3425366d34e9ed76e1d2004bbfc621d8314e9",
    ("faulted", "registry"):
        "c3b2e6e3ae21e79c5c04ae6e2873313089ce0fe63711f7ddaaa52b6bed75eadf",
    ("faulted", "report"):
        "a2cdd447291896d83b23d1058a3000ffb986f66d49503033c4274a076aab9ea9",
    ("faulted", "why"):
        "3fee1ca02130901ea4bb08d6fe525a6fdb0f7574f0f2a052537f85521d164276",
}


@pytest.fixture(scope="module", params=sorted(SESSIONS))
def session(request):
    return request.param, SESSIONS[request.param]()


@pytest.mark.parametrize("view", sorted(VIEWS))
def test_view_bytes_are_pinned(session, view):
    name, text = session
    trace = loads_jsonl(text)
    assert isinstance(trace, Trace)
    assert VIEWS[view](trace) == PINNED[(name, view)]


def test_faulted_session_has_verdicts_to_pin():
    trace = loads_jsonl(_faulted_session())
    assert not check_trace(trace).ok
    assert attributions_from_trace(trace)


if __name__ == "__main__":
    for session_name, make in sorted(SESSIONS.items()):
        text = make()
        for view_name, view in sorted(VIEWS.items()):
            print(f'    ("{session_name}", "{view_name}"):\n'
                  f'        "{view(loads_jsonl(text))}",')
