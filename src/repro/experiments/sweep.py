"""Parallel, cached, fault-tolerant experiment sweeps.

:func:`~repro.experiments.runner.run_session` executes one streaming
session in-process; every paper table and parameter study re-runs it dozens
of times.  This module turns those loops into *sweeps*: lists of configs
(usually built with :func:`expand_grid`) fanned out over a process pool by
:func:`run_sweep`, with three properties the serial loops lacked:

* **Deterministic result caching.**  Configs are plain dataclass values, so
  equal configs are byte-identical; :func:`config_key` hashes that canonical
  form, and a finished run becomes a JSON artifact under ``cache_dir`` that
  later sweeps load instead of re-simulating.
* **Per-run fault isolation.**  A run that raises, or outlives the per-run
  ``timeout``, is retried up to ``retries`` times and then recorded as a
  structured :class:`RunFailure` — the sweep always completes and reports
  every config.
* **Progress lines.**  Every settled run (done, cached or FAILED) is
  reported as one human-readable line to an optional ``progress``
  callback, which the CLI prints to stderr.

The unit of exchange across the process boundary is a
:class:`SessionSummary` — a picklable, JSON-round-trippable projection of
the live :class:`SessionResult`, which holds a connection, player, and
analyzer and therefore never crosses processes.  A custom ``runner=`` may
sweep any config type, as long as it returns such a summary.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import threading
import time
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence)

from ..analysis.metrics import SessionMetrics
from .configs import SessionConfig, config_key
from .pool import run_units
from .runner import SessionResult, run_session

#: Failure discriminators carried by :class:`RunFailure`.
FAILED_ERROR = "error"
FAILED_TIMEOUT = "timeout"


def expand_grid(base: Any, grid: Mapping[str, Sequence]) -> List[Any]:
    """Cartesian product of field overrides applied to ``base``.

    ``grid`` maps config field names to value lists; the special key
    ``"scheme"`` routes through
    :meth:`~repro.experiments.configs.SessionConfig.with_scheme` after the
    other overrides.  Order is deterministic: the grid's key order, values
    in the given order, last key varying fastest.
    """
    if not grid:
        return [base]
    names = list(grid)
    known = {spec.name for spec in fields(base)}
    for name in names:
        if name != "scheme" and name not in known:
            raise ValueError(
                f"unknown {type(base).__name__} field {name!r} "
                f"(known: {sorted(known)})")
    configs: List[Any] = []
    for combo in itertools.product(*(grid[name] for name in names)):
        overrides = dict(zip(names, combo))
        scheme = overrides.pop("scheme", None)
        config = replace(base, **overrides) if overrides else base
        if scheme is not None:
            config = config.with_scheme(scheme)
        configs.append(config)
    return configs


# ----------------------------------------------------------------------
# Picklable summaries (the process/caching boundary)
# ----------------------------------------------------------------------
@dataclass
class SessionSummary:
    """What survives of a :class:`SessionResult` across processes.

    Carries everything the comparisons and tables read — the metrics, the
    scheduler counters, completion — and none of the live objects
    (connection, player, analyzer, event stream).
    """

    config_key: str
    finished: bool
    session_duration: float
    metrics: SessionMetrics
    scheduler_stats: Dict[str, int] = field(default_factory=dict)
    #: Invariant-violation counts by severity (see
    #: :mod:`repro.obs.check`); ``None`` when the run was not checked,
    #: an empty dict when checked and clean.
    violations: Optional[Dict[str, int]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "session", "config_key": self.config_key,
                "finished": self.finished,
                "session_duration": self.session_duration,
                "metrics": asdict(self.metrics),
                "scheduler_stats": dict(self.scheduler_stats),
                "violations": (dict(self.violations)
                               if self.violations is not None else None)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SessionSummary":
        # Cached artifacts may lack "violations" or carry keys this
        # summary does not read ("histograms"); both must still load.
        violations = payload.get("violations")
        return cls(config_key=payload["config_key"],
                   finished=payload["finished"],
                   session_duration=payload["session_duration"],
                   metrics=SessionMetrics(**payload["metrics"]),
                   scheduler_stats=dict(payload["scheduler_stats"]),
                   violations=(dict(violations) if violations is not None
                               else None))


def summarize_session(result: SessionResult,
                      key: Optional[str] = None) -> SessionSummary:
    """Project a live :class:`SessionResult` onto the picklable boundary."""
    violations: Optional[Dict[str, int]] = None
    if result.check_report is not None:
        violations = {}
        for violation in result.check_report.violations:
            violations[violation.severity] = \
                violations.get(violation.severity, 0) + 1
    return SessionSummary(
        config_key=key if key is not None else config_key(result.config),
        finished=result.finished,
        session_duration=result.session_duration,
        metrics=result.metrics,
        scheduler_stats=dict(result.scheduler_stats),
        violations=violations)


def default_runner(config: Any) -> SessionSummary:
    """Run one :class:`SessionConfig` and summarize the result.

    Sessions run with the stock invariant checkers attached (see
    :mod:`repro.obs.check`), so every sweep doubles as a consistency
    audit: per-run violation counts ride the summary into
    :func:`~repro.experiments.tables.sweep_table`.
    """
    if isinstance(config, SessionConfig):
        return summarize_session(run_session(config, check=True))
    raise TypeError(
        f"no default runner for {type(config).__name__}; pass runner=")


# ----------------------------------------------------------------------
# Worker-side execution (fault + timeout isolation)
# ----------------------------------------------------------------------
class RunTimeout(Exception):
    """One run exceeded the sweep's per-run timeout."""


def _alarm_available() -> bool:
    return (hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread())


def _call_with_timeout(runner: Callable[[Any], SessionSummary], config: Any,
                       timeout: Optional[float]) -> SessionSummary:
    """Invoke ``runner`` under a SIGALRM deadline when one is enforceable.

    Workers are fresh processes whose main thread runs the simulation, so
    the alarm interrupts even a wedged pure-Python loop.  Where SIGALRM is
    unavailable (non-main thread, non-POSIX) the run proceeds unbounded.
    """
    if not timeout or not _alarm_available():
        return runner(config)

    def _expired(_signum, _frame):
        raise RunTimeout(f"run exceeded {timeout:g}s")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return runner(config)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _execute(runner: Optional[Callable[[Any], SessionSummary]],
             run: "SweepRun", timeout: Optional[float]) -> tuple:
    """Run one config and report ``(status, payload, elapsed)``.

    Never raises for run-level problems: exceptions become ``("error",
    message, elapsed)`` and timeouts ``("timeout", message, elapsed)``, so
    one bad config cannot take the pool (or a serial sweep) down with it.
    """
    start = time.perf_counter()
    try:
        summary = _call_with_timeout(runner or default_runner, run.config,
                                     timeout)
        return ("ok", summary, time.perf_counter() - start)
    except RunTimeout as exc:
        return (FAILED_TIMEOUT, str(exc), time.perf_counter() - start)
    except Exception as exc:
        return (FAILED_ERROR, f"{type(exc).__name__}: {exc}",
                time.perf_counter() - start)


# ----------------------------------------------------------------------
# The on-disk result cache
# ----------------------------------------------------------------------
class ResultCache:
    """One JSON artifact per config key under ``root``.

    Writes are atomic (temp file + rename), so a sweep killed mid-write
    never leaves a truncated artifact; unreadable or malformed entries
    (and artifacts that hold no session summary) are treated as misses,
    never as errors.
    """

    def __init__(self, root: str):
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)

    def path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def load(self, key: str) -> Optional[SessionSummary]:
        try:
            with open(self.path(key), "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            return SessionSummary.from_dict(payload)
        except (OSError, ValueError, TypeError, KeyError):
            return None

    def store(self, key: str, summary: SessionSummary) -> None:
        final = self.path(key)
        tmp = f"{final}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(summary.to_dict(), handle, sort_keys=True)
        os.replace(tmp, final)


# ----------------------------------------------------------------------
# Sweep bookkeeping
# ----------------------------------------------------------------------
@dataclass
class RunFailure:
    """A run that exhausted its retries, recorded instead of raised."""

    config_key: str
    index: int
    kind: str       # FAILED_ERROR or FAILED_TIMEOUT
    error: str
    attempts: int
    elapsed: float

    def to_dict(self) -> Dict[str, Any]:
        return {"config_key": self.config_key, "index": self.index,
                "kind": self.kind, "error": self.error,
                "attempts": self.attempts, "elapsed": self.elapsed}


@dataclass
class SweepRun:
    """One config's complete story within a sweep."""

    index: int
    config: Any
    config_key: str
    summary: Optional[SessionSummary] = None
    failure: Optional[RunFailure] = None
    cached: bool = False
    attempts: int = 0
    elapsed: float = 0.0
    #: True when this run's outcome was copied from an identical config
    #: earlier in the same sweep (deduplicated, never simulated itself).
    shared: bool = False
    #: Warning recorded when the on-disk cache write failed; the run
    #: itself still succeeded with its in-memory summary.
    cache_error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.summary is not None


@dataclass
class SweepResult:
    """Everything :func:`run_sweep` produced, successes and failures."""

    runs: List[SweepRun]
    jobs: int
    wall_clock: float
    cache_dir: Optional[str] = None

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self):
        return iter(self.runs)

    @property
    def summaries(self) -> List[SessionSummary]:
        return [run.summary for run in self.runs if run.summary is not None]

    @property
    def failures(self) -> List[RunFailure]:
        return [run.failure for run in self.runs if run.failure is not None]

    @property
    def cache_hits(self) -> int:
        return sum(1 for run in self.runs if run.cached)

    @property
    def ok(self) -> bool:
        """True when every run produced a summary."""
        return all(run.ok for run in self.runs)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
def run_sweep(configs: Iterable[Any], jobs: int = 1,
              cache_dir: Optional[str] = None,
              timeout: Optional[float] = None, retries: int = 0,
              progress: Optional[Callable[[str], None]] = None,
              runner: Optional[Callable[[Any], SessionSummary]] = None,
              ledger: Optional[str] = None) -> SweepResult:
    """Run every config, in parallel, reusing cached results.

    ``jobs=1`` runs in-process (no pickling); ``jobs>1`` fans out over a
    process pool (see :mod:`repro.experiments.pool` for the crash
    semantics).  Identical configs within one sweep are deduplicated by
    :func:`config_key` — simulated once, with the outcome (summary or
    failure) shared by every duplicate.  ``cache_dir`` enables the
    on-disk result cache; ``timeout`` bounds each run's wall-clock
    seconds; a run that fails (raises, times out, or loses its worker)
    is retried up to ``retries`` times, then recorded as a
    :class:`RunFailure`.  ``runner`` replaces :func:`default_runner` (it
    must be a picklable, module-level callable when ``jobs > 1``) — the
    hook the failure-injection tests and custom harnesses use.
    ``progress`` receives one line per settled run (done, cached or
    FAILED).  ``ledger`` appends the finished sweep's headline record to
    the run ledger at that path (see :mod:`repro.obs.ledger`).
    """
    configs = list(configs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1: {jobs!r}")
    if retries < 0:
        raise ValueError(f"retries cannot be negative: {retries!r}")
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive: {timeout!r}")
    start = time.perf_counter()
    runs = [SweepRun(index=i, config=config, config_key=config_key(config))
            for i, config in enumerate(configs)]

    def report(run: SweepRun, outcome: str) -> None:
        if progress is not None:
            progress(f"[{time.perf_counter() - start:8.2f}s] run "
                     f"{run.index + 1}/{len(runs)} {run.config_key[:12]} "
                     f"{outcome}")

    def failed(run: SweepRun) -> None:
        failure = run.failure
        report(run, f"FAILED ({failure.kind}, {failure.attempts} "
                    f"attempt(s)): {failure.error}")

    cache = ResultCache(cache_dir) if cache_dir is not None else None
    pending: List[SweepRun] = []
    primaries: Dict[str, SweepRun] = {}
    duplicates: List[SweepRun] = []
    for run in runs:
        if run.config_key in primaries:
            # Identical config already in this sweep: simulate once,
            # share the outcome after the primary settles.
            duplicates.append(run)
            continue
        primaries[run.config_key] = run
        hit = cache.load(run.config_key) if cache is not None else None
        if hit is not None:
            run.summary = hit
            run.cached = True
            report(run, "cached")
        else:
            pending.append(run)

    def started(run: SweepRun, attempt: int) -> None:
        run.attempts = attempt

    def done(run: SweepRun, outcome: tuple) -> Optional[tuple]:
        status, summary, elapsed = outcome
        run.elapsed += elapsed
        if status != "ok":
            return outcome  # a failed attempt: retried or given up
        run.summary = summary
        if cache is not None:
            try:
                cache.store(run.config_key, summary)
            except (OSError, TypeError, ValueError) as exc:
                # A full disk or read-only cache dir must not void a
                # finished simulation: keep the in-memory summary and
                # record the write failure as a warning on the run.
                run.cache_error = f"{type(exc).__name__}: {exc}"
        report(run, f"done in {elapsed:.2f}s")
        return None

    def give_up(run: SweepRun, attempts: int, failure: Any) -> None:
        # The last outcome tuple, or the executor's line for an attempt
        # that returned none (a dead worker, an unpicklable runner).
        kind, error = (failure[:2] if isinstance(failure, tuple)
                       else (FAILED_ERROR, failure))
        run.failure = RunFailure(config_key=run.config_key, index=run.index,
                                 kind=kind, error=error, attempts=attempts,
                                 elapsed=run.elapsed)
        failed(run)

    # Unordered: runs are indexed, and a slow head-of-line config must
    # not idle the pool on a heterogeneous grid.
    run_units(pending, partial(_execute, runner, timeout=timeout), jobs,
              retries, done, give_up, started)

    for run in duplicates:
        primary = primaries[run.config_key]
        run.shared = True
        run.attempts = primary.attempts
        if primary.summary is not None:
            run.summary = primary.summary
            run.cached = True  # served without a fresh simulation
            report(run, "cached")
        elif primary.failure is not None:
            run.failure = replace(primary.failure, index=run.index)
            failed(run)

    wall = time.perf_counter() - start
    result = SweepResult(runs=runs, jobs=jobs, wall_clock=wall,
                         cache_dir=cache_dir)
    if ledger is not None:
        from ..obs.ledger import RunLedger, sweep_entry

        RunLedger(ledger).append(sweep_entry(result))
    return result
