"""Run one benchmark workload and print its metrics.

From the root of a checkout (the directory holding ``src/repro``)::

    python3 perfbench/run.py --workload fleet --seed 7 --seconds 15 --trace 0

Every process this starts runs ``worker.py`` with ``src`` on
``PYTHONPATH`` and is waited for.  With ``--trace 0`` it starts
:data:`SETUP_RUNS` fresh processes that each set up (import plus
warm-up); the last of them goes on to measure the workload untraced.
With ``--trace 1`` one fresh process measures untraced and a second
runs the same items under the tracer, so wrappers never reach an
untraced measurement.  Text lines name every metric with its unit; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch files
go to ``.perfbench/`` in the checkout; the traced run leaves its
collapsed spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median
from typing import Dict, List, Optional

import workloads
from reference import NOMINAL_S
from stats import MIN_BEYOND, percentile, samples_needed
from tracer import LAYERS, RATIOS, expected_but_idle, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SCRATCH = ".perfbench"
#: Fresh set-up processes per untraced run; ``setup_s`` is their median.
SETUP_RUNS = 5
#: Wall-clock budget for a whole run, seconds.
TIME_LIMIT = 170.0

#: The end-to-end metrics in the JSON result: name -> unit.
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "sim_per_wall": "ratio",
              "op_ms.p50": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """A run that cannot produce a result."""


def per_layer_units() -> Dict[str, str]:
    """The per-layer metrics in the JSON result: name -> unit."""
    units = {}
    for label, _, qualname, _ in LAYERS:
        units[f"{label}.{qualname}.self_s"] = "s"
        units[f"{label}.{qualname}.calls"] = "count"
    for ratio in RATIOS:
        units[ratio] = "calls/" + ratio.rsplit("per_", 1)[1]
    units.update(tracing_overhead="ratio", traced_wall_s="s",
                 uncovered_s="s")
    return units


def op_noun(workload: str) -> str:
    return "trace" if workload == "trace_views" else "session"


class Runner:
    def __init__(self, args, root: str):
        self.args = args
        self.root = root
        self.deadline = time.monotonic() + TIME_LIMIT
        self.workdir = os.path.join(root, SCRATCH,
                                    f"run-{os.getpid()}-{args.seed}")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def worker(self, *extra: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"out of time ({TIME_LIMIT:.0f} s)")
        command = [sys.executable, WORKER, "--workload", self.args.workload,
                   "--seed", str(self.args.seed), "--workdir", self.workdir,
                   *extra]
        try:
            done = subprocess.run(command, cwd=self.root, env=self.env,
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker passed the {TIME_LIMIT:.0f} s "
                             f"budget") from None
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise BenchError(f"worker exited with {done.returncode}")
        return json.loads(lines[-1])


def scales(report: dict) -> List[float]:
    """Per item, the factor that takes its wall times to the nominal
    machine (see :mod:`reference`)."""
    return [NOMINAL_S / ref for ref in report["ref_s"]]


def scaled_samples(report: dict) -> List[float]:
    return [sample * scale for samples, scale in
            zip(report["samples_ms"], scales(report)) for sample in samples]


def scaled_wall(report: dict) -> float:
    return sum(e * scale for e, scale in
               zip(report["elapsed_s"], scales(report)))


def item_medians(report: dict) -> Dict[str, float]:
    """Median per-item rates: completed ops and simulated seconds per
    scaled second of the timed calls."""
    walls = [e * scale for e, scale in
             zip(report["elapsed_s"], scales(report))]
    return {"ops_per_s": median([c / w for c, w in
                                 zip(report["completed"], walls)]),
            "sim_per_wall": median([s / w for s, w in
                                    zip(report["sim_seconds"], walls)])}


def untraced(runner: Runner) -> tuple:
    args = runner.args
    setups = [runner.worker("--mode", "setup")
              for _ in range(SETUP_RUNS - 1)]
    measured = runner.worker("--mode", "measure",
                             "--seconds", str(args.seconds))
    reports = setups + [measured]
    samples = scaled_samples(measured)
    p50 = percentile(samples, 0.5)
    if p50 is None:
        raise BenchError(f"only {len(samples)} ops timed; the median "
                         f"needs {samples_needed(0.5)}")
    metrics = {"setup_s": median([r["setup_s"] * NOMINAL_S / r["setup_ref_s"]
                                  for r in reports]),
               **item_medians(measured), "op_ms.p50": p50,
               "peak_rss_mb": measured["peak_rss_mb"]}
    return reports, metrics, END_TO_END


def traced(runner: Runner) -> tuple:
    plain = runner.worker("--mode", "measure",
                          "--seconds", str(runner.args.seconds))
    spans = os.path.join(runner.root, SCRATCH,
                         f"spans-{runner.args.workload}-"
                         f"{runner.args.seed}.folded")
    wrapped = runner.worker("--mode", "measure", "--trace",
                            "--items", str(len(plain["digests"])),
                            "--spans-out", spans)
    problems = []
    if wrapped["digests"] != plain["digests"]:
        problems.append("traced and untraced runs gave different outputs")
        wrapped["failed"] += sum(
            ops for ops, a, b in zip(wrapped["ops"], wrapped["digests"],
                                     plain["digests"]) if a != b)
    if wrapped["leftovers"]:
        problems.append(f"wrappers left installed: {wrapped['leftovers']}")
    wrapped["problems"] += problems
    traced_wall = sum(wrapped["elapsed_s"])
    metrics = layer_metrics(wrapped["layers"])
    metrics.update(tracing_overhead=scaled_wall(wrapped) / scaled_wall(plain),
                   traced_wall_s=traced_wall,
                   uncovered_s=traced_wall - wrapped["covered_s"])
    calls = {name: entry["calls"] for name, entry in
             wrapped["layers"].items()}
    for name in expected_but_idle(runner.args.workload, calls):
        print(f"warning: {name} recorded 0 calls on "
              f"{runner.args.workload}", file=sys.stderr)
    return [plain, wrapped], metrics, per_layer_units()


def describe(workload: str, reports: List[dict], metrics: dict,
             attempted: int, failed: int) -> List[str]:
    """Every end-to-end metric the benchmark defines, by its own name,
    with its unit; ``n/a`` with a reason where it has no value."""
    measured = reports[-1]
    samples = scaled_samples(measured)
    noun = op_noun(workload)
    lines = [f"{workload}: {len(measured['digests'])} items, "
             f"{len(samples)} {noun}s timed in "
             f"{sum(measured['elapsed_s']):.2f} s of wall clock; the "
             f"machine ran at {median(scales(measured)):.2f}x the "
             f"nominal speed, and times are scaled to it"]

    def row(name: str, value: Optional[float], unit: str,
            reason: str = "") -> None:
        shown = f"{value:.6g} {unit}" if value is not None else \
            f"n/a ({reason})"
        lines.append(f"  {name:<16} {shown}")

    row("setup_s", metrics["setup_s"], "s")
    for kind in ("session", "trace"):
        other = "" if kind == noun else f"no {kind}s on this workload"
        row(f"{kind}s_per_s", metrics["ops_per_s"] if not other else None,
            "1/s", other)
        if kind == "session":
            row("sim_per_wall", metrics["sim_per_wall"], "ratio")
        for q, label in ((0.5, "p50"), (0.99, "p99")):
            value = percentile(samples, q) if not other else None
            reason = other or (f"{len(samples)} samples; needs "
                               f"{samples_needed(q)} for {MIN_BEYOND} "
                               f"beyond it")
            row(f"{kind}_ms.{label}", value, "ms", reason)
    row("peak_rss_mb", metrics["peak_rss_mb"], "MB")
    row("failed_frac", failed / attempted, "ratio")
    return lines


def describe_layers(metrics: dict) -> List[str]:
    wall = metrics["traced_wall_s"]
    lines = [f"traced wall {wall:.4f} s, tracing_overhead "
             f"{metrics['tracing_overhead']:.3f}x"]
    names = sorted({name.rsplit(".", 1)[0] for name in metrics
                    if name.endswith(".self_s")},
                   key=lambda n: -metrics[f"{n}.self_s"])
    for name in names:
        self_s = metrics[f"{name}.self_s"]
        lines.append(f"  {name:<52} {self_s:9.4f} s {self_s / wall:6.1%} "
                     f"{metrics[f'{name}.calls']:>9} calls")
    lines.append(f"  {'(not covered by any span)':<52} "
                 f"{metrics['uncovered_s']:9.4f} s "
                 f"{metrics['uncovered_s'] / wall:6.1%}")
    for ratio in RATIOS:
        lines.append(f"  {ratio:<52} {metrics[ratio]:9.2f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        print("run.py: no src/repro here; run from the root of a checkout",
              file=sys.stderr)
        return 2

    runner = Runner(args, root)
    try:
        reports, metrics, units = (traced if args.trace else untraced)(
            runner)
    except BenchError as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    problems = [p for r in reports for p in r["problems"]]
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    lines = describe_layers(metrics) if args.trace else \
        describe(args.workload, reports, metrics, attempted, failed)
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
