"""The three benchmark workloads, driven through the program's public API.

Each workload turns a seed into a list of *items* (:meth:`inputs`,
untimed), runs one item through the program (:meth:`run`, the only
timed call) and judges what came back (:meth:`check`, untimed).  An
item attempts :meth:`size` *ops*: one op is one ``run_session`` call on
the session workloads and one trace through every view on
``trace_views``.

* ``fleet`` — recorder-off ``run_fleet`` campaigns of short sessions,
  checkpointing on, ``jobs=1``.  One item is one campaign.
* ``trace_views`` — recorded 300 s session traces (one of them with the
  seeded scheduler fault) put through every derived ``repro.obs`` view.
  One item is one trace file.
* ``fleet_rec`` — the ``fleet`` shape with the flight recorder armed, a
  seeded fault session per campaign, and a triage report at the end.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any, Dict, List, Optional

from stats import digest, tree_digest

#: The seed whose warm-up outputs are pinned in ``golden.json``.
DEFAULT_SEED = 2016
#: The seeded fault's expected verdict: (blamed layer, cause).
FAULT_BLAME = ("scheduler", "path-control-violation")


@dataclass
class Outcome:
    """What :meth:`Workload.check` concluded about one item."""

    #: Ops the item attempted, and how many of them completed with every
    #: check passed (0 when an item-level check failed).
    attempted: int
    completed: int
    #: Simulated (or recorded) session seconds the item covered.
    sim_seconds: float
    #: Wall time of each op in the item, milliseconds.
    samples_ms: List[float]
    #: Canonical digest of the item's outputs.
    digest: str
    #: One line per failed op or failed check.
    problems: List[str] = field(default_factory=list)
    #: Wall time of :meth:`Workload.run` on the item, seconds.
    elapsed_s: float = 0.0
    #: The reference loop's time, gauged on both sides of the item.
    ref_s: float = 0.0


def import_program() -> None:
    """Import every public entry point the workloads call."""
    import repro.experiments.fleet  # noqa: F401
    import repro.experiments.runner  # noqa: F401
    import repro.obs.check  # noqa: F401
    import repro.obs.metrics  # noqa: F401
    import repro.obs.recorder  # noqa: F401
    import repro.obs.report  # noqa: F401
    import repro.obs.spans  # noqa: F401
    import repro.obs.trace_export  # noqa: F401
    import repro.obs.why  # noqa: F401


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _timed_runner(samples: List[float]):
    """A ``run_fleet`` runner timing each ``run_session`` call.

    ``run_session`` is looked up on every call, so a traced run sees the
    wrapped function.
    """
    from repro.experiments import runner as runner_module

    def run(config):
        started = perf_counter()
        result = runner_module.run_session(config)
        samples.append((perf_counter() - started) * 1e3)
        return result

    return run


class Workload:
    name = ""

    def inputs(self, seed: int, workdir: str) -> List[Any]:
        """The items made from ``seed``; the same seed gives the same."""
        raise NotImplementedError

    def warmup_items(self, inputs: List[Any]) -> List[Any]:
        """The items of the default seed's ``inputs`` run as warm-up,
        whose digests ``golden.json`` pins."""
        return inputs[:1]

    def size(self, item: Any) -> int:
        """Ops one item attempts."""
        return 1

    def run(self, item: Any, workdir: str) -> Any:
        raise NotImplementedError

    def check(self, item: Any, raw: Any, workdir: str) -> Outcome:
        raise NotImplementedError


class Fleet(Workload):
    """Closed-loop fleet campaigns, one session at a time."""

    CAMPAIGNS = 48
    SESSIONS = 64
    SHARD_SIZE = 16
    VIDEO_DURATION = 20.0
    TRIAGE_TOP = 3

    def __init__(self, recorder: bool = False):
        self.recorder = recorder
        self.name = "fleet_rec" if recorder else "fleet"

    def inputs(self, seed, workdir):
        from repro.experiments.fleet import FleetConfig

        rng = _rng(self.name, seed)
        configs = []
        for _ in range(self.CAMPAIGNS):
            config = FleetConfig(
                sessions=self.SESSIONS, shard_size=self.SHARD_SIZE,
                video_duration=self.VIDEO_DURATION,
                seed=rng.randrange(1, 2**31))
            if self.recorder:
                # A scheduler fault needs a second path to misuse.
                arrivals = config.workload()
                config = replace(config, fault_session=rng.choice(
                    [index for index in range(self.SESSIONS)
                     if not arrivals.draw(index).wifi_only]))
            configs.append(config)
        return configs

    def size(self, config):
        return config.sessions

    def run(self, config, workdir):
        from repro.experiments.fleet import run_fleet
        from repro.obs.recorder import RecorderConfig

        samples: List[float] = []
        recorder = None
        if self.recorder:
            recorder = RecorderConfig(
                artifact_dir=os.path.join(workdir, "records"))
        result = run_fleet(config, jobs=1,
                           checkpoint_dir=os.path.join(workdir, "checkpoint"),
                           checkpoint_every=2, runner=_timed_runner(samples),
                           recorder=recorder)
        if self.recorder:
            result.export_report(os.path.join(workdir, "report", "fleet.html"),
                                 triage_top=self.TRIAGE_TOP)
        return result, samples

    def check(self, config, raw, workdir):
        result, samples = raw
        problems = [f"campaign seed {config.seed}: {error}"
                    for error in result.errors]
        problems += [f"campaign seed {config.seed}: session failed"] * \
            result.errors_dropped
        completed = result.sessions
        if result.sessions + result.failures != config.sessions:
            problems.append(f"campaign seed {config.seed}: "
                            f"{result.sessions} sessions completed of "
                            f"{config.sessions}")
        outputs = {"registry": digest(result.registry_json())}
        if self.recorder:
            records = os.path.join(workdir, "records")
            outputs["captures"] = tree_digest(records)
            fault = self._fault_problems(config, result)
            if fault:
                problems.extend(fault)
                completed = 0
            shutil.rmtree(records)
            shutil.rmtree(os.path.join(workdir, "report"))
        return Outcome(attempted=config.sessions, completed=completed,
                       sim_seconds=result.sim_seconds, samples_ms=samples,
                       digest=digest(outputs), problems=problems)

    @staticmethod
    def _fault_problems(config, result) -> List[str]:
        for record in result.anomalies:
            if record["index"] != config.fault_session:
                continue
            summary = record.get("attribution") or {}
            blame = (summary.get("top_layer"), summary.get("top_cause"))
            if record["reason"] != "violation" or not record["artifact"]:
                return [f"fault session {config.fault_session} captured as "
                        f"{record['reason']!r} without a violation trace"]
            if blame != FAULT_BLAME:
                return [f"fault session {config.fault_session} blamed on "
                        f"{'/'.join(map(str, blame))}"]
            return []
        return [f"fault session {config.fault_session} was not captured"]


@dataclass(frozen=True)
class TraceItem:
    path: str
    faulted: bool
    #: ERROR/WARNING/INFO counts the flight recorder judged live.
    recorded_verdicts: Optional[Dict[str, int]]


class TraceViews(Workload):
    """Every derived ``repro.obs`` view over a corpus of recorded traces."""

    name = "trace_views"
    TRACES = 16
    VIDEO_DURATION = 300.0

    def _session(self, rng: random.Random):
        """A fixed operating point (MP-DASH rate mode near Figure 7's)
        with seeded channel fluctuation, so traces cost about the same."""
        from repro.experiments.configs import SessionConfig
        from repro.net.trace import BandwidthTrace
        from repro.net.units import mbps

        horizon = 2.0 * self.VIDEO_DURATION + 180.0
        return SessionConfig(
            video="big_buck_bunny", abr="festive",
            video_duration=self.VIDEO_DURATION,
            wifi_mbps=None, lte_mbps=None,
            wifi_trace=BandwidthTrace.random_walk(
                mbps(3.8), 0.2, horizon, interval=0.5,
                seed=rng.randrange(1, 2**31)),
            lte_trace=BandwidthTrace.random_walk(
                mbps(3.0), 0.15, horizon, interval=0.5,
                seed=rng.randrange(1, 2**31))).with_scheme("rate")

    def inputs(self, seed, workdir):
        """Record the seed's corpus once per work directory, through the
        fleet engine's flight recorder with every session head-sampled.

        The corpus directory is named after the seed, so runs of other
        seeds in the same work directory never read it.
        """
        corpus = os.path.join(workdir, f"corpus-{seed}")
        index = os.path.join(corpus, "index.json")
        if not os.path.isfile(index):
            self._record(_rng(self.name, seed), corpus, index)
        with open(index, encoding="utf-8") as handle:
            return [TraceItem(os.path.join(corpus, entry["artifact"]),
                              entry["faulted"], entry["verdicts"])
                    for entry in json.load(handle)]

    def _record(self, rng: random.Random, corpus: str, index: str) -> None:
        from repro.experiments.fleet import FleetConfig, run_fleet
        from repro.experiments.runner import run_session
        from repro.obs.recorder import RecorderConfig

        sessions = [self._session(rng) for _ in range(self.TRACES)]
        fault = rng.randrange(self.TRACES)
        pending = iter(sessions)

        def runner(config):
            # The fleet decides tracing and fault injection; the channel
            # and operating point come from this corpus.
            return run_session(replace(next(pending),
                                       record_trace=config.record_trace))

        result = run_fleet(
            FleetConfig(sessions=self.TRACES, shard_size=self.TRACES,
                        video_duration=self.VIDEO_DURATION,
                        seed=rng.randrange(1, 2**31), fault_session=fault),
            jobs=1, runner=runner,
            recorder=RecorderConfig(artifact_dir=corpus, head_every=1,
                                    bottom_k=0))
        entries = [{"artifact": record["artifact"],
                    "faulted": record["index"] == fault,
                    "verdicts": record["violations"]}
                   for record in sorted(result.anomalies,
                                        key=lambda r: r["index"])]
        if len(entries) != self.TRACES or result.failures:
            raise RuntimeError(f"corpus recording kept {len(entries)} of "
                               f"{self.TRACES} traces")
        # Written last: an interrupted recording leaves no index behind.
        with open(index, "w", encoding="utf-8") as handle:
            json.dump(entries, handle)

    def warmup_items(self, inputs):
        return inputs[:1] + [item for item in inputs if item.faulted]

    def run(self, item, workdir):
        from repro.obs.check import check_trace
        from repro.obs.metrics import registry_from_trace
        from repro.obs.report import session_report_html
        from repro.obs.spans import spans_from_trace
        from repro.obs.trace_export import load_jsonl
        from repro.obs.why import attributions_from_trace

        started = perf_counter()
        trace = load_jsonl(item.path)
        report = check_trace(trace)
        spans = spans_from_trace(trace)
        why = attributions_from_trace(trace, report=report)
        registry = registry_from_trace(trace)
        html = session_report_html(trace)
        elapsed_ms = (perf_counter() - started) * 1e3
        return trace, report, spans, why, registry, html, elapsed_ms

    def check(self, item, raw, workdir):
        trace, report, spans, why, registry, html, elapsed_ms = raw
        problems = []
        verdicts = report.by_severity()
        if item.recorded_verdicts is not None and \
                dict(item.recorded_verdicts) != dict(verdicts):
            problems.append(f"{item.path}: offline verdicts {verdicts} "
                            f"differ from recorded {item.recorded_verdicts}")
        blamed = {(a.layer, a.cause) for a in why}
        if item.faulted and (report.ok or FAULT_BLAME not in blamed):
            problems.append(f"{item.path}: seeded fault not blamed on "
                            f"{'/'.join(FAULT_BLAME)}")
        if not spans or not html or not registry.to_dict():
            problems.append(f"{item.path}: empty span tree, registry or "
                            f"report")
        outputs = {"verdicts": digest(report.to_dict()),
                   "why": digest([a.to_dict() for a in why]),
                   "report": digest(html)}
        return Outcome(attempted=1, completed=0 if problems else 1,
                       sim_seconds=trace.meta.session_duration,
                       samples_ms=[elapsed_ms], digest=digest(outputs),
                       problems=problems)


WORKLOADS = {"fleet": lambda: Fleet(),
             "trace_views": lambda: TraceViews(),
             "fleet_rec": lambda: Fleet(recorder=True)}


def make(name: str) -> Workload:
    try:
        return WORKLOADS[name]()
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; "
                         f"known: {', '.join(WORKLOADS)}") from None
