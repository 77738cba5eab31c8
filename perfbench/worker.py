"""One benchmark process: set up, optionally measure, print one JSON line.

Started by ``run.py`` from the root of a checkout with ``src`` on
``PYTHONPATH``; never imported by the program.

Every time is reported together with a :func:`reference.measure` taken
next to it, so that ``run.py`` can scale it to the nominal machine.
Set-up is import plus warm-up: the workload's warm-up items, taken from
the inputs of :data:`workloads.DEFAULT_SEED`, are run and checked, and
their digests compared with the ones pinned in ``golden.json``.
Both modes then make the measured seed's inputs, untimed;
``--mode setup`` stops there.  ``--mode measure`` then runs the measured
seed's items in order, cycling, until ``--seconds`` of program time
have passed and the ops give a supported median (or exactly ``--items``
items), and checks every output.  With ``--trace`` the measured items
run under a :class:`tracer.Tracer` installed after warm-up and removed
before the report is written; ``--spans-out`` then receives the spans.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from contextlib import nullcontext
from statistics import median
from time import perf_counter

import reference
import workloads
from stats import samples_needed
from tracer import Tracer, leftovers

GOLDEN_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")
#: Ops a measured run makes at least, so the median has support.
MIN_OPS = samples_needed(0.5)
#: Gauge time after an item, as a share of the item's time.
GAUGE_SHARE = 0.1


def load_golden(path: str = GOLDEN_FILE) -> dict:
    """The pinned warm-up digests; a missing file is an error."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _failed(workload, item, reason: str):
    return workloads.Outcome(attempted=workload.size(item), completed=0,
                             sim_seconds=0.0, samples_ms=[], digest="",
                             problems=[reason])


def run_items(workload, items, workdir, seconds=None, count=None,
              tracer=None):
    """Run ``items`` in order, cycling, and return one Outcome per run.

    With ``count`` exactly that many items run; otherwise items run
    until ``seconds`` of :meth:`Workload.run` time have passed and at
    least :data:`MIN_OPS` ops were attempted.  Only ``run`` is timed;
    checks run between items, and under ``tracer`` their calls into the
    program are dropped from the spans.  An exception from an item is
    recorded as a failed outcome, and the next item runs.
    """
    outcomes = []
    elapsed = ops = 0.0
    before = reference.measure()
    while (len(outcomes) < count if count is not None
           else elapsed < seconds or ops < MIN_OPS):
        item = items[len(outcomes) % len(items)]
        outcome = None
        started = perf_counter()
        try:
            raw = workload.run(item, workdir)
        except Exception:
            outcome = _failed(workload, item, traceback.format_exc(limit=-3))
        spent = perf_counter() - started
        # The machine's speed drifts within one item too: gauge it on
        # both sides.  One gauge serves the items on either side of it.
        after = reference.measure(GAUGE_SHARE * spent)
        if outcome is None:
            try:
                with tracer.excluded() if tracer is not None \
                        else nullcontext():
                    outcome = workload.check(item, raw, workdir)
            except Exception:
                outcome = _failed(workload, item,
                                  traceback.format_exc(limit=-3))
            del raw
        outcome.elapsed_s = spent
        outcome.ref_s = (before + after) / 2.0
        before = after
        outcomes.append(outcome)
        elapsed += spent
        ops += outcome.attempted
    return outcomes


def repeat_problems(inputs, outcomes) -> list:
    """Items seen more than once must give identical digests; a repeat
    that differs fails.  Returns the problems found."""
    first = {}
    problems = []
    for index, outcome in enumerate(outcomes):
        key = index % len(inputs)
        if key not in first:
            first[key] = outcome.digest
        elif first[key] != outcome.digest:
            problems.append(f"item {key} digest changed on repeat "
                            f"{index // len(inputs)}")
            outcome.completed = 0
    return problems


def golden_problems(name, outcomes, golden) -> list:
    """Warm-up digests must equal the pinned ones; an item that differs
    fails.  A workload with no pinned digests fails every item."""
    pinned = golden.get(name)
    digests = [outcome.digest for outcome in outcomes]
    if pinned == digests:
        return []
    for outcome in outcomes:
        outcome.completed = 0
    if pinned is None:
        return [f"golden.json pins no digests for {name}"]
    return [f"warm-up digests {digests} differ from the pinned {pinned}"]


def summary(outcomes) -> dict:
    return {"attempted": sum(o.attempted for o in outcomes),
            "failed": sum(o.attempted - o.completed for o in outcomes)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--mode", choices=("setup", "measure"),
                        required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--items", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)
    if args.mode == "measure" and (args.seconds is None) == \
            (args.items is None):
        parser.error("measure takes exactly one of --seconds and --items")

    workload = workloads.make(args.workload)
    golden = load_golden()
    os.makedirs(args.workdir, exist_ok=True)
    refs = [reference.measure(0.02) for _ in range(3)]
    started = perf_counter()
    workloads.import_program()
    imported = perf_counter() - started
    warm_items = workload.warmup_items(
        workload.inputs(workloads.DEFAULT_SEED, args.workdir))
    warm = run_items(workload, warm_items, args.workdir,
                     count=len(warm_items))
    setup_s = imported + sum(outcome.elapsed_s for outcome in warm)
    refs += [reference.measure(0.02) for _ in range(3)]
    problems = [p for outcome in warm for p in outcome.problems]
    problems += golden_problems(args.workload, warm, golden)
    report = {"setup_s": setup_s, "setup_ref_s": median(refs),
              "warmup_digests": [outcome.digest for outcome in warm]}
    # Made in set-up processes too, so that a recorded corpus is written
    # before, not inside, the process whose memory peak is reported.
    inputs = workload.inputs(args.seed, args.workdir)
    if args.mode == "setup":
        report.update(summary(warm), problems=problems)
        print(json.dumps(report))
        return 0

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        outcomes = run_items(workload, inputs, args.workdir,
                             seconds=args.seconds, count=args.items,
                             tracer=tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    problems += [p for outcome in outcomes for p in outcome.problems]
    problems += repeat_problems(inputs, outcomes)
    report.update(summary(warm + outcomes), problems=problems)
    report.update({
        "elapsed_s": [o.elapsed_s for o in outcomes],
        "ops": [o.attempted for o in outcomes],
        "completed": [o.completed for o in outcomes],
        "sim_seconds": [o.sim_seconds for o in outcomes],
        "ref_s": [o.ref_s for o in outcomes],
        "samples_ms": [o.samples_ms for o in outcomes],
        "digests": [o.digest for o in outcomes],
        # The process's lifetime peak: import, inputs and warm-up too.
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tracer is not None:
        report["layers"] = tracer.totals()
        report["covered_s"] = tracer.covered
        report["leftovers"] = leftovers()
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as handle:
                handle.write(tracer.folded())
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
