"""Tests of the benchmark's own machinery.

From the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import run
import tracer as tracer_module
import worker
import workloads
from stats import percentile, samples_needed
from tracer import LAYER_NAMES, Tracer, expected_but_idle, leftovers

from conftest import BENCH, ROOT


class Clock:
    """A clock the wrapped test functions advance by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def totals(tracer, index):
    entry = tracer.totals()[LAYER_NAMES[index]]
    return entry["self_s"], entry["calls"]


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def test_nested_spans_subtract_children():
    clock = Clock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        wrapped_inner()
        clock.now += 3.0
        wrapped_inner()

    wrapped_inner = tracer.wrap(inner, 1)
    tracer.wrap(outer, 0)()
    assert totals(tracer, 0) == (4.0, 1)
    assert totals(tracer, 1) == (4.0, 2)
    assert tracer.covered == 8.0
    assert tracer.folded().splitlines() == [
        f"{LAYER_NAMES[0]} 4000000 1",
        f"{LAYER_NAMES[0]};{LAYER_NAMES[1]} 4000000 2"]


def test_recursive_and_reentrant_spans():
    clock = Clock()
    tracer = Tracer(clock=clock)

    def recurse(depth):
        clock.now += 1.0
        if depth:
            wrapped_recurse(depth - 1)
        clock.now += 1.0

    def a():
        clock.now += 5.0
        wrapped_b()

    reentries = [1]

    def b():
        clock.now += 1.0
        if reentries:
            reentries.pop()
            wrapped_a()

    wrapped_recurse = tracer.wrap(recurse, 0)
    wrapped_a = tracer.wrap(a, 1)
    wrapped_b = tracer.wrap(b, 2)
    wrapped_recurse(2)
    # Each of the three calls spends 2 s itself; their nesting does not
    # count twice.
    assert totals(tracer, 0) == (6.0, 3)
    assert tracer.covered == 6.0
    wrapped_a()   # a -> b -> a -> b: 5 + 1 + 5 + 1 seconds
    assert totals(tracer, 1) == (10.0, 2)
    assert totals(tracer, 2) == (2.0, 2)
    assert tracer.covered == 18.0
    assert sum(tracer.totals()[n]["self_s"] for n in LAYER_NAMES) == 18.0


def test_span_closes_when_the_call_raises():
    clock = Clock()
    tracer = Tracer(clock=clock)

    def fails():
        clock.now += 1.5
        raise KeyError("x")

    def caller():
        clock.now += 1.0
        with pytest.raises(KeyError):
            wrapped_fails()

    wrapped_fails = tracer.wrap(fails, 1)
    tracer.wrap(caller, 0)()
    assert totals(tracer, 0) == (1.0, 1)
    assert totals(tracer, 1) == (1.5, 1)
    assert tracer.covered == 2.5


def test_excluded_drops_spans():
    clock = Clock()
    tracer = Tracer(clock=clock)

    def step():
        clock.now += 1.0

    wrapped = tracer.wrap(step, 0)
    wrapped()
    with tracer.excluded():
        wrapped()
        tracer.wrap(step, 1)()
    assert totals(tracer, 0) == (1.0, 1)
    assert totals(tracer, 1) == (0.0, 0)
    assert tracer.covered == 1.0


# ----------------------------------------------------------------------
# Percentile support
# ----------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond_it():
    assert samples_needed(0.5) == 20
    assert samples_needed(0.99) == 1000
    assert percentile(list(range(19)), 0.5) is None
    assert percentile(list(range(20)), 0.5) == 9
    assert percentile(list(range(999)), 0.99) is None
    assert percentile(list(range(1000, 0, -1)), 0.99) == 990
    with pytest.raises(ValueError):
        percentile([1.0], 1.0)


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def _warm_up(name, workdir):
    workload = workloads.make(name)
    items = workload.warmup_items(
        workload.inputs(workloads.DEFAULT_SEED, str(workdir)))
    return worker.run_items(workload, items, str(workdir),
                            count=len(items))


def test_pinned_digests_pass_on_unmodified_code(tmp_path):
    outcomes = _warm_up("fleet", tmp_path)
    assert worker.golden_problems("fleet", outcomes,
                                  worker.load_golden()) == []
    assert worker.summary(outcomes)["failed"] == 0


def test_perturbed_output_trips_the_digest_check(tmp_path, monkeypatch):
    from repro.experiments.fleet import FleetResult

    original = FleetResult.registry_json
    monkeypatch.setattr(FleetResult, "registry_json",
                        lambda self: original(self) + " ")
    outcomes = _warm_up("fleet", tmp_path)
    problems = worker.golden_problems("fleet", outcomes,
                                      worker.load_golden())
    assert problems and "differ from the pinned" in problems[0]
    assert worker.summary(outcomes)["failed"] == \
        worker.summary(outcomes)["attempted"] > 0


def test_missing_pins_fail(tmp_path):
    with pytest.raises(FileNotFoundError):
        worker.load_golden(str(tmp_path / "golden.json"))
    outcomes = [workloads.Outcome(attempted=3, completed=3, sim_seconds=1.0,
                                  samples_ms=[], digest="d")]
    assert worker.golden_problems("fleet", outcomes, {}) == \
        ["golden.json pins no digests for fleet"]
    assert outcomes[0].completed == 0


def test_changed_repeat_fails_its_item():
    outcomes = [workloads.Outcome(attempted=1, completed=1, sim_seconds=1.0,
                                  samples_ms=[], digest=d)
                for d in ("a", "b", "a", "c")]
    assert worker.repeat_problems(["x", "y"], outcomes) == \
        ["item 1 digest changed on repeat 1"]
    assert [o.completed for o in outcomes] == [1, 1, 1, 0]


def test_raising_item_is_a_failed_outcome(tmp_path):
    class Broken(workloads.Workload):
        def run(self, item, workdir):
            raise RuntimeError("boom")

    outcomes = worker.run_items(Broken(), ["only"], str(tmp_path), count=2)
    assert [(o.attempted, o.completed) for o in outcomes] == [(1, 0)] * 2
    assert "boom" in outcomes[0].problems[0]


# ----------------------------------------------------------------------
# Patching
# ----------------------------------------------------------------------
def test_wrappers_patch_every_lookup_and_are_removed(tmp_path):
    workloads.import_program()
    import repro.mptcp.connection as connection
    import repro.net.tcp as tcp
    import repro.obs.check as check
    import repro.obs.recorder as recorder
    from repro.net.simulator import Simulator

    originals = (tcp.integrate_window, connection.integrate_window,
                 check.check_trace, recorder.check_trace,
                 Simulator.__dict__["run"])
    assert leftovers() == []
    tracer = Tracer()
    tracer.install()
    try:
        assert connection.integrate_window is tcp.integrate_window
        assert connection.integrate_window is not originals[0]
        assert recorder.check_trace is not originals[2]
        found = leftovers()
        assert "repro.mptcp.connection.integrate_window" in found
        assert "repro.obs.recorder.check_trace" in found
        workload = workloads.make("fleet_rec")
        items = workload.inputs(3, str(tmp_path))[:1]
        outcomes = worker.run_items(workload, items, str(tmp_path), count=1,
                                    tracer=tracer)
    finally:
        tracer.uninstall()
    assert outcomes[0].problems == []
    calls = {n: e["calls"] for n, e in tracer.totals().items()}
    assert expected_but_idle("fleet_rec", calls) == []
    assert calls["net.tcp.integrate_window"] > 0
    assert (tcp.integrate_window, connection.integrate_window,
            check.check_trace, recorder.check_trace,
            Simulator.__dict__["run"]) == originals
    assert leftovers() == []


def test_every_listed_callable_is_expected_somewhere():
    for label, module, qualname, expected in tracer_module.LAYERS:
        assert set(expected) <= set(workloads.WORKLOADS), qualname
        assert expected, qualname


# ----------------------------------------------------------------------
# Seeds
# ----------------------------------------------------------------------
def test_seed_changes_session_inputs(tmp_path):
    for name in ("fleet", "fleet_rec"):
        workload = workloads.make(name)
        one = workload.inputs(1, str(tmp_path))
        assert one == workload.inputs(1, str(tmp_path))
        assert one != workload.inputs(2, str(tmp_path))


def test_seed_changes_recorded_corpus(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.TraceViews, "TRACES", 2)
    monkeypatch.setattr(workloads.TraceViews, "VIDEO_DURATION", 30.0)
    views = workloads.TraceViews()

    def corpus(seed):
        items = views.inputs(seed, str(tmp_path))
        assert [item.faulted for item in items].count(True) == 1
        return [open(item.path, "rb").read() for item in items]

    one = corpus(1)
    two = corpus(2)
    assert one != two
    # The second seed in the same work directory did not overwrite or
    # reuse the first one's corpus.
    assert corpus(1) == one
    assert sorted(os.listdir(tmp_path)) == ["corpus-1", "corpus-2"]


# ----------------------------------------------------------------------
# The command and its declared metrics
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_checked_metrics(trace):
    done = _run("--workload", "fleet", "--seed", "5", "--seconds", "0.5",
                "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    units = run.per_layer_units() if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace == "1":
        covered = sum(v for k, v in values.items() if k.endswith(".self_s"))
        assert covered + values["uncovered_s"] == \
            pytest.approx(values["traced_wall_s"])
        assert values["tracing_overhead"] > 0
    else:
        assert all(v > 0 for v in values.values())
        assert "failed_frac      0 ratio" in done.stdout


def test_command_fails_without_the_program(tmp_path):
    done = _run("--workload", "fleet", "--seed", "1", "--seconds", "1",
                cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
