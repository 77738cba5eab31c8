"""The read side never imports numpy; the simulation imports it at its
first random draw; no path imports a standard-library stack it does not
use, and the simulator imports no view, sweep, ledger or drift module.

Every ``--load`` command and every derived view of a recorded trace must
run in a process where ``import numpy`` fails, and give the bytes they
give with numpy present.  Only the code that draws random numbers, the
offline DP and ``percentile`` may import it, inside those functions.
Nothing a ``jobs=1`` fleet campaign or its views run loads the network,
TLS, XML, multiprocessing or ``statistics`` stacks (docs/architecture.md,
"Import boundary").
"""

import json
import os
import statistics
import subprocess
import sys
from xml.sax.saxutils import escape as sax_escape

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.experiments import SessionConfig, run_session
from repro.obs.svg import escape
from repro.obs.why import _mean, _median

#: Standard-library modules no ``repro`` path on a ``jobs=1`` run uses;
#: ``xml.sax.saxutils`` alone would pull in the first four, and
#: ``concurrent.futures`` brings ``logging``.
UNUSED_STDLIB = ("ssl", "http.client", "email", "urllib.request", "xml.sax",
                 "multiprocessing", "concurrent.futures", "logging",
                 "statistics", "platform")

#: What ``import repro.experiments.runner`` must not load: views, the
#: sweep and table harness, the offline solvers and every ABR algorithm
#: (``make_abr`` imports one when it is first named).
OFF_THE_SIMULATOR = (
    ["repro.obs." + name for name in
     ("report", "why", "svg", "recorder", "drift", "ledger", "check",
      "spans")]
    + ["repro.experiments." + name for name in
       ("sweep", "compare", "tables", "fleet", "pool")]
    + ["repro.core.offline", "repro.core.tracesim", "repro.analysis.report",
       "repro.analysis.visualize"]
    + ["repro.abr." + name for name in
       ("bba", "bba_c", "festive", "gpac", "mpc")])

#: Every package with lazy exports.
PACKAGES = ("repro", "repro.abr", "repro.analysis", "repro.apps",
            "repro.core", "repro.dash", "repro.energy", "repro.estimators",
            "repro.experiments", "repro.mptcp", "repro.net", "repro.obs",
            "repro.workloads")

#: Shared by the test process and the numpy-less child: every
#: ``trace_views`` view of one trace, then every ``--load`` command's
#: status, stdout, stderr (and the report it writes).
READ_SIDE = '''
import contextlib
import io
import json
import os


def read_side(path, out_dir):
    from repro.cli import main
    from repro.obs.check import check_trace
    from repro.obs.metrics import registry_from_trace
    from repro.obs.report import session_report_html
    from repro.obs.spans import spans_from_trace, spans_to_dicts
    from repro.obs.trace_export import dumps_jsonl, load_jsonl
    from repro.obs.why import attributions_from_trace

    trace = load_jsonl(path)
    report = check_trace(trace)
    why = attributions_from_trace(trace, report=report)
    outputs = {
        "load": dumps_jsonl(trace.events, trace.meta),
        "check": json.dumps(report.to_dict(), sort_keys=True),
        "spans": json.dumps(spans_to_dicts(spans_from_trace(trace)),
                            sort_keys=True),
        "why": json.dumps([a.to_dict() for a in why], sort_keys=True),
        "registry": json.dumps(registry_from_trace(trace).to_dict(),
                               sort_keys=True),
        "report": session_report_html(trace),
    }
    for command in ("check", "stats", "spans", "why", "report", "trace"):
        html = os.path.join(out_dir, command + ".html")
        argv = [command, "--load", path]
        if command == "report":
            argv += ["--out", html]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \\
                contextlib.redirect_stderr(stderr):
            status = main(argv)
        result = [status, stdout.getvalue(), stderr.getvalue()]
        if command == "report":
            with open(html, encoding="utf-8") as handle:
                result.append(handle.read())
        outputs["cli " + command] = result
    return outputs
'''

BLOCKED = READ_SIDE + '''
import sys

sys.modules["numpy"] = None  # any "import numpy" now raises ImportError
import repro
import repro.cli
import repro.experiments.fleet

outputs = read_side(sys.argv[1], sys.argv[2])
assert sys.modules["numpy"] is None
print(json.dumps(outputs))
'''

FRESH = '''
import sys

import repro

assert "numpy" not in sys.modules, "import repro loaded numpy"
from repro.experiments import SessionConfig, run_session

assert "numpy" not in sys.modules, "importing the runner loaded numpy"
result = run_session(SessionConfig(video_duration=8.0, wifi_mbps=4.0,
                                   lte_mbps=3.0))
assert "numpy" in sys.modules, "the session drew without numpy"
print(result.metrics.chunk_count)
'''


LEAN = READ_SIDE + '''
import importlib
import pkgutil
import sys

out, unused = sys.argv[1], json.loads(sys.argv[2])


def loaded():
    return [name for name in unused if name in sys.modules]


import repro
import repro.cli
import repro.experiments.fleet
import repro.obs

for module in pkgutil.iter_modules(repro.obs.__path__):
    importlib.import_module("repro.obs." + module.name)
assert loaded() == [], f"importing repro loaded {loaded()}"

# The simulation draws with numpy, which imports platform itself.
import numpy

unused = [name for name in unused if name not in sys.modules]
from repro.experiments.fleet import FleetConfig, run_fleet
from repro.obs.recorder import RecorderConfig

result = run_fleet(FleetConfig(sessions=8, shard_size=3, video_duration=6.0,
                               seed=7, fault_session=3), jobs=1,
                   recorder=RecorderConfig(os.path.join(out, "records")))
result.export_report(os.path.join(out, "fleet.html"), triage_top=3)
capture = next(record for record in result.anomalies
               if record["reason"] == "violation")
outputs = read_side(os.path.join(result.record_dir, capture["artifact"]),
                    out)
print(json.dumps({"loaded": loaded(), "unused": unused,
                  "reports": sorted(os.listdir(out)),
                  "why": json.loads(outputs["why"])}))
'''


LOADED = '''
import importlib
import json
import sys

before = set(sys.modules)
for name in sys.argv[1:]:
    importlib.import_module(name)
print(json.dumps(sorted(set(sys.modules) - before)))
'''

EXPORTS = '''
import importlib
import json
import sys

resolved = {}
for package in sys.argv[1:]:
    module = importlib.import_module(package)
    names = list(module.__all__)
    assert len(set(names)) == len(names), package
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names), package
    resolved[package] = {name: getattr(module, name) is namespace[name]
                         for name in names}
print(json.dumps(resolved))
'''


def _python(source, *args):
    """Run ``source`` in a fresh interpreter that imports this ``repro``."""
    root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [root, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", source, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    result = run_session(SessionConfig(
        video="big_buck_bunny", abr="festive", mpdash=True,
        wifi_mbps=3.8, lte_mbps=3.0, video_duration=40.0,
        record_trace=True))
    path = tmp_path_factory.mktemp("boundary") / "session.jsonl"
    result.export_trace(str(path))
    return str(path)


def test_read_side_runs_without_numpy_and_gives_the_same_bytes(
        recorded, tmp_path):
    namespace = {}
    exec(READ_SIDE, namespace)
    expected = namespace["read_side"](recorded, str(tmp_path))
    assert [expected["cli " + command][0] for command in
            ("check", "stats", "spans", "why", "report", "trace")] == \
        [0] * 6
    blocked = json.loads(_python(BLOCKED, recorded, str(tmp_path)))
    assert blocked.keys() == expected.keys()
    for name in expected:
        assert blocked[name] == expected[name], name


def test_import_repro_leaves_numpy_to_the_first_draw():
    assert int(_python(FRESH)) > 0


def test_a_jobs1_fleet_and_its_views_load_no_unused_stdlib_stack(tmp_path):
    done = json.loads(_python(LEAN, str(tmp_path),
                              json.dumps(UNUSED_STDLIB)))
    assert done["loaded"] == []
    assert set(UNUSED_STDLIB) - set(done["unused"]) <= {"platform"}
    assert "fleet.html" in done["reports"]
    assert any(name.startswith("anomaly-") for name in done["reports"])
    assert done["why"], "the capture's views explained nothing"


def _loaded(*modules):
    """The modules importing ``modules`` loads in a fresh interpreter."""
    return json.loads(_python(LOADED, *modules))


def test_import_repro_loads_no_subpackage():
    loaded = [name for name in _loaded("repro") if name.startswith("repro")]
    assert loaded == ["repro", "repro._lazy"]


def test_the_runner_imports_no_view_sweep_solver_or_algorithm():
    loaded = set(_loaded("repro.experiments.runner"))
    assert "repro.abr.base" in loaded
    assert sorted(loaded & set(OFF_THE_SIMULATOR)) == []
    assert {"signal", "threading", "concurrent.futures"} & loaded == set()


def test_the_fleet_loads_no_sweep():
    loaded = set(_loaded("repro.experiments.fleet"))
    assert {"repro.experiments.sweep", "signal", "threading",
            "concurrent.futures"} & loaded == set()


#: What ``import repro.cli`` must not load: each command imports its own
#: layers when it runs, so no command compiles another's views.
OFF_THE_CLI = (["repro.obs." + name for name in
                ("report", "why", "svg", "drift", "ledger", "recorder")]
               + ["repro.experiments.sweep"])


def test_import_cli_loads_no_view_ledger_recorder_or_sweep():
    loaded = set(_loaded("repro.cli"))
    assert "repro.cli" in loaded
    assert sorted(loaded & set(OFF_THE_CLI)) == []


CHECK_LOAD = '''
import contextlib
import io
import json
import sys

from repro.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    status = main(["check", "--load", sys.argv[1], "--json"])
print(json.dumps([status, sorted(sys.modules)]))
'''


def test_check_load_loads_no_view_ledger_recorder_or_sweep(recorded):
    status, loaded = json.loads(_python(CHECK_LOAD, recorded))
    assert status == 0
    assert "repro.obs.check" in loaded
    assert sorted(set(loaded) & set(OFF_THE_CLI)) == []


def test_make_abr_imports_an_algorithm_when_first_named():
    loaded = _python('''
import sys
from repro.abr import abr_names, make_abr

assert "repro.abr.mpc" not in sys.modules
first = make_abr("robust-mpc")
assert "repro.abr.mpc" in sys.modules and first.robust
assert [name for name in sys.modules if name.startswith("repro.abr.")] \\
    == ["repro.abr.base", "repro.abr.mpc"], sys.modules
assert type(make_abr("mpc")) is type(first)
assert len(abr_names()) == 6
print("ok")
''')
    assert loaded.strip() == "ok"


def test_every_export_resolves_and_star_imports():
    resolved = json.loads(_python(EXPORTS, *PACKAGES))
    assert list(resolved) == list(PACKAGES)
    for package, names in resolved.items():
        assert names and all(names.values()), package
    assert "SessionConfig" in resolved["repro"]
    assert "run_session" in resolved["repro"]


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_escape_matches_the_stdlib_escape(text):
    assert escape(text) == sax_escape(text)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e100, max_value=1e100)
                | st.integers(-2**60, 2**60), min_size=1))
def test_mean_and_median_match_statistics(values):
    assert repr(_mean(values)) == repr(statistics.fmean(values))
    assert repr(_median(values)) == repr(statistics.median(values))
