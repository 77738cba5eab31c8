"""Fleet-scale session campaigns: population distributions in bounded memory.

MP-DASH's headline results (§5-6) are *population* claims — QoE,
cellular-byte savings, and deadline-miss rates over many users at many
locations — while :func:`~repro.experiments.runner.run_session` simulates
one session and :func:`~repro.experiments.sweep.run_sweep` one config
grid.  This module closes that gap with three pieces:

* a **workload**: :class:`~repro.workloads.arrivals.SessionArrivals`
  describes the whole fleet (arrival process, location, device,
  path-capability mix) and materializes per-session
  :class:`~repro.experiments.configs.SessionConfig` values lazily;
* **sharded execution**: sessions are grouped into fixed-size shards,
  each shard simulated by :func:`_run_shard` (in-process or on a process
  pool, through :func:`~repro.experiments.pool.run_units` in ordered
  mode), which folds its sessions into one
  :class:`~repro.obs.metrics.MetricsRegistry` and ships *only the folded
  registry* back — the parent never holds per-session artifacts, so peak
  memory is a function of shard size and worker count, not fleet size;
* **streaming aggregation with checkpoints**: shard registries merge
  into the population registry strictly in shard order (float
  accumulation is order-dependent, and in-order merging is what makes
  ``--jobs 1`` and ``--jobs N`` byte-identical), and every
  ``checkpoint_every`` shards the population state is written atomically
  (temp file + rename, the :class:`~repro.experiments.sweep.ResultCache`
  pattern) so a killed campaign resumes from its last checkpoint instead
  of restarting.

Determinism contract: for a given :class:`FleetConfig`, the merged
population registry is byte-identical (as canonical JSON) across worker
counts, shardings of the index space, and kill/resume boundaries.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Optional

from ..analysis.metrics import SessionMetrics
from ..energy.devices import DEVICES
from ..obs.bus import EventBus
from ..obs.events import (FleetCheckpointSaved, FleetCompleted,
                          FleetSessionCaptured, FleetShardCompleted,
                          FleetStarted, FleetWorkerHeartbeat)
from ..obs.ledger import peak_rss_kb
from ..obs.metrics import (Histogram, MetricsRegistry, exponential_buckets,
                           linear_buckets)
from ..obs.recorder import (RecorderConfig, ShardRecorder, empty_stats,
                            merge_stats, rank_anomalies, save_manifest)
from ..obs.why import fold_attributions
from ..workloads.arrivals import (ARRIVAL_MODELS, DEFAULT_DEVICE_MIX,
                                  SessionArrivals, SessionDraw)
from ..workloads.locations import Location, field_study_locations
from .configs import SCHEMES, SessionConfig
from .pool import run_units
from .runner import run_session
from .sweep import config_key

#: Scenario id -> exposition label (see repro.workloads.locations).
SCENARIO_NAMES = {1: "never", 2: "sometimes", 3: "always"}

#: Bucket layouts for the population distributions.  Pinned here — not
#: derived from the data — so registries from any shard always merge.
BITRATE_BOUNDS = linear_buckets(0.25, 0.25, 24)           # Mbps
STALL_TIME_BOUNDS = exponential_buckets(0.1, 1.6, 16)     # seconds
STALL_COUNT_BOUNDS = linear_buckets(1.0, 1.0, 20)         # stalls/session
STARTUP_BOUNDS = exponential_buckets(0.1, 1.5, 14)        # seconds
CELLULAR_MB_BOUNDS = exponential_buckets(0.1, 1.6, 18)    # MB/session
CELLULAR_FRACTION_BOUNDS = linear_buckets(0.05, 0.05, 20)
ENERGY_BOUNDS = exponential_buckets(1.0, 1.5, 18)         # joules
MISS_BOUNDS = linear_buckets(1.0, 1.0, 16)                # misses/session
ARRIVAL_HOUR_BOUNDS = linear_buckets(1.0, 1.0, 24)        # hour of day

CHECKPOINT_FILE = "fleet-checkpoint.json"
CHECKPOINT_VERSION = 1
#: Cap on per-session error samples carried by results and checkpoints.
MAX_ERROR_SAMPLES = 20
#: Cap on error samples each shard ships back; ``error_total`` carries
#: the true count so the drop is never silent.
SHARD_ERROR_SAMPLES = 5


@dataclass
class FleetConfig:
    """One fleet campaign, as plain data (hashable via ``fleet_key``)."""

    sessions: int = 1000
    #: Arrival model: ``"poisson"`` or ``"diurnal"``.
    arrival: str = "poisson"
    #: Campaign window in seconds (arrivals land in ``[0, horizon)``).
    horizon: float = 86400.0
    seed: int = 0
    video: str = "big_buck_bunny"
    abr: str = "festive"
    #: Evaluation scheme per session: baseline / duration / rate.
    scheme: str = "rate"
    #: Video length per session, seconds (fleets favour short sessions).
    video_duration: float = 60.0
    wifi_only_fraction: float = 0.05
    device_mix: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_DEVICE_MIX))
    #: Sessions per shard: the memory/progress granularity.
    shard_size: int = 50
    #: Inject the seeded §3.1 scheduler fault into this session index —
    #: the deterministic anomaly used by capture tests and CI smokes.
    #: Part of the campaign identity (it changes the simulation), so it
    #: changes ``fleet_key``.
    fault_session: Optional[int] = None

    def __post_init__(self) -> None:
        if self.sessions < 0:
            raise ValueError(f"sessions cannot be negative: "
                             f"{self.sessions!r}")
        if self.fault_session is not None and self.fault_session < 0:
            raise ValueError(f"fault_session cannot be negative: "
                             f"{self.fault_session!r}")
        if self.arrival not in ARRIVAL_MODELS:
            raise ValueError(f"unknown arrival model {self.arrival!r}; "
                             f"known: {', '.join(ARRIVAL_MODELS)}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive: {self.horizon!r}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r} "
                             f"(known: {SCHEMES})")
        if self.video_duration <= 0:
            raise ValueError(f"video_duration must be positive: "
                             f"{self.video_duration!r}")
        if self.shard_size < 1:
            raise ValueError(f"shard_size must be >= 1: "
                             f"{self.shard_size!r}")
        for device in self.device_mix:
            if device not in DEVICES:
                raise ValueError(f"unknown device {device!r} "
                                 f"(known: {sorted(DEVICES)})")

    @property
    def total_shards(self) -> int:
        return math.ceil(self.sessions / self.shard_size)

    def shard_range(self, shard: int) -> range:
        if not 0 <= shard < max(self.total_shards, 1):
            raise IndexError(f"shard {shard} outside "
                             f"[0, {self.total_shards})")
        start = shard * self.shard_size
        return range(start, min(self.sessions, start + self.shard_size))

    def workload(self) -> SessionArrivals:
        return SessionArrivals(
            sessions=self.sessions, arrival=self.arrival,
            horizon=self.horizon, seed=self.seed,
            wifi_only_fraction=self.wifi_only_fraction,
            device_mix=self.device_mix)


def fleet_key(config: FleetConfig) -> str:
    """Deterministic hash naming one campaign (checkpoint identity)."""
    return config_key(config)


_LOCATION_CACHE: Dict[str, Location] = {}


def _location(name: str) -> Location:
    if not _LOCATION_CACHE:
        _LOCATION_CACHE.update(
            (loc.name, loc) for loc in field_study_locations())
    return _LOCATION_CACHE[name]


def session_config(config: FleetConfig, draw: SessionDraw) -> SessionConfig:
    """Materialize one drawn session as a runnable :class:`SessionConfig`.

    The channel is the drawn :class:`~repro.workloads.locations.Location`'s
    own traces (same means, sigmas, and dropout windows), reseeded by the
    draw's private ``trace_seed``, so co-located sessions see different
    realizations of the same measured conditions.
    """
    site = replace(_location(draw.location), seed=draw.trace_seed)
    # Long enough for the sim_deadline cap plus startup slack.
    horizon = 2.0 * config.video_duration + 180.0
    wifi = site.wifi_trace(horizon)
    lte = None if draw.wifi_only else site.lte_trace(horizon)
    base = SessionConfig(
        video=config.video, abr=config.abr,
        wifi_mbps=None, lte_mbps=None,
        wifi_trace=wifi, lte_trace=lte,
        wifi_rtt_ms=site.wifi_rtt_ms, lte_rtt_ms=site.lte_rtt_ms,
        wifi_only=draw.wifi_only,
        video_duration=config.video_duration, device=draw.device)
    return base.with_scheme(config.scheme)


def fold_session(registry: MetricsRegistry, draw: SessionDraw,
                 metrics: SessionMetrics, scheduler_stats: Dict[str, int],
                 finished: bool, session_duration: float) -> None:
    """Fold one finished session into the population registry.

    Pure accumulation into pinned-bound metrics: the same fold applied
    in any shard of any worker produces mergeable, order-stable state.
    """
    scenario = SCENARIO_NAMES.get(draw.scenario, str(draw.scenario))
    registry.counter("repro_fleet_sessions_total").inc()
    registry.counter("repro_fleet_sessions_total",
                     {"scenario": scenario}).inc()
    registry.counter("repro_fleet_sessions_by_device_total",
                     {"device": draw.device}).inc()
    if draw.wifi_only:
        registry.counter("repro_fleet_wifi_only_sessions_total").inc()
    if not finished:
        registry.counter("repro_fleet_sessions_unfinished_total").inc()
    registry.gauge("repro_fleet_sim_seconds_total").add(session_duration)

    bitrate = metrics.mean_bitrate_mbps
    registry.histogram("repro_fleet_bitrate_mbps",
                       BITRATE_BOUNDS).observe(bitrate)
    registry.histogram("repro_fleet_bitrate_mbps", BITRATE_BOUNDS,
                       {"scenario": scenario}).observe(bitrate)
    registry.histogram("repro_fleet_stall_seconds",
                       STALL_TIME_BOUNDS).observe(metrics.total_stall_time)
    registry.histogram("repro_fleet_stall_count",
                       STALL_COUNT_BOUNDS).observe(metrics.stall_count)
    if metrics.stall_count > 0:
        registry.counter("repro_fleet_stalled_sessions_total").inc()
    if metrics.startup_delay is not None:
        registry.histogram(
            "repro_fleet_startup_delay_seconds",
            STARTUP_BOUNDS).observe(metrics.startup_delay)
    if not draw.wifi_only:
        registry.histogram(
            "repro_fleet_cellular_mbytes",
            CELLULAR_MB_BOUNDS).observe(metrics.cellular_bytes / 1e6)
        registry.histogram(
            "repro_fleet_cellular_fraction",
            CELLULAR_FRACTION_BOUNDS).observe(metrics.cellular_fraction)
        registry.histogram(
            "repro_fleet_cellular_fraction", CELLULAR_FRACTION_BOUNDS,
            {"scenario": scenario}).observe(metrics.cellular_fraction)
    registry.histogram("repro_fleet_radio_energy_joules",
                       ENERGY_BOUNDS).observe(metrics.radio_energy)
    misses = int(scheduler_stats.get("deadline_misses", 0))
    registry.counter("repro_fleet_deadline_misses_total").inc(misses)
    registry.histogram("repro_fleet_deadline_misses",
                       MISS_BOUNDS).observe(misses)
    registry.histogram("repro_fleet_arrival_hour",
                       ARRIVAL_HOUR_BOUNDS).observe(draw.arrival_hour)


@contextmanager
def _scheduler_fault() -> Iterator[None]:
    """Break Algorithm 1 for the duration: every transfer start arms the
    deadline scheduler (tight window) and then disables *all* paths —
    the seeded §3.1 invariant violation the ``path-control`` checker
    exists to catch.  Forcing the arm makes the fault independent of
    whether the session's own deadlines would have activated MP-DASH,
    so a faulted session always yields ERROR verdicts.
    """
    from ..core.scheduler import DeadlineAwareScheduler

    orig = DeadlineAwareScheduler.on_transfer_start

    def faulty(scheduler, now, transfer, conn):
        if scheduler._pending is None:
            scheduler._pending = (transfer.total_bytes, 1.0)
        orig(scheduler, now, transfer, conn)
        if scheduler.active:  # Algorithm 1 broken: everything off
            for name in conn.path_names():
                conn.request_path_state(name, False)

    DeadlineAwareScheduler.on_transfer_start = faulty
    try:
        yield
    finally:
        DeadlineAwareScheduler.on_transfer_start = orig


def _run_shard(config: FleetConfig, shard: int,
               runner: Optional[Callable[[SessionConfig], Any]] = None,
               recorder: Optional[RecorderConfig] = None
               ) -> Dict[str, Any]:
    """Simulate one shard and return only its folded state.

    The worker-side entry point (module-level, picklable).  Per-session
    faults are isolated: a session that raises is counted as a failure
    (with a bounded error sample) and the shard continues, so one bad
    draw cannot void its 49 neighbours.  The return value is a plain
    JSON-ready dict — never result objects — which is what keeps parent
    memory independent of fleet size; with a ``recorder``, captured
    traces go straight from here to disk and only their summary records
    ride the wire.
    """
    workload = config.workload()
    run = runner if runner is not None else run_session
    rec = (ShardRecorder(recorder, fleet_key(config), shard)
           if recorder is not None else None)
    registry = MetricsRegistry()
    failures = 0
    completed = 0
    sim_seconds = 0.0
    errors: List[str] = []
    last_index = -1
    began = time.perf_counter()
    for index in config.shard_range(shard):
        draw = workload.draw(index)
        last_index = index
        cfg = session_config(config, draw)
        if rec is not None:
            cfg = replace(cfg, record_trace=True)
        try:
            if config.fault_session == index:
                with _scheduler_fault():
                    result = run(cfg)
            else:
                result = run(cfg)
        except Exception as exc:
            failures += 1
            registry.counter("repro_fleet_session_failures_total").inc()
            if len(errors) < SHARD_ERROR_SAMPLES:
                errors.append(f"session {index}: "
                              f"{type(exc).__name__}: {exc}")
            if rec is not None:
                rec.record_failure(index,
                                   f"{type(exc).__name__}: {exc}")
            continue
        fold_session(registry, draw, result.metrics,
                     dict(result.scheduler_stats), result.finished,
                     result.session_duration)
        completed += 1
        sim_seconds += result.session_duration
        if rec is not None:
            # The recorder judges every traced session; whatever its
            # attribution walker explained folds straight into the shard
            # registry, so root-cause histograms merge and resume exactly
            # like every other fleet metric.
            fold_attributions(registry, rec.observe(index, result))
    if rec is not None:
        rec.flush()
    return {"shard": shard, "sessions": completed, "failures": failures,
            "errors": errors, "error_total": failures,
            "sim_seconds": sim_seconds,
            "registry": registry.to_dict(),
            "elapsed": time.perf_counter() - began,
            "worker": os.getpid(), "peak_rss_kb": peak_rss_kb() or 0,
            "last_index": last_index,
            "recorder": rec.payload() if rec is not None else None}


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------
def checkpoint_path(checkpoint_dir: str) -> str:
    return os.path.join(checkpoint_dir, CHECKPOINT_FILE)


def save_checkpoint(path: str, key: str, shards_done: int, sessions: int,
                    failures: int, sim_seconds: float, errors: List[str],
                    registry: MetricsRegistry, error_total: int = 0,
                    recorder_state: Optional[Dict[str, Any]] = None
                    ) -> None:
    """Atomically persist the population state through ``shards_done``.

    Temp file + rename (the ResultCache pattern): a campaign killed
    mid-write leaves the previous checkpoint intact, never a truncated
    one, so ``--resume`` always finds a loadable prefix.  The optional
    ``recorder_state`` (merged stats + anomaly records) rides along so a
    resumed campaign's triage view still covers the pre-kill prefix.
    """
    payload = {"version": CHECKPOINT_VERSION, "fleet_key": key,
               "shards_done": shards_done, "sessions": sessions,
               "failures": failures, "sim_seconds": sim_seconds,
               "errors": list(errors), "error_total": error_total,
               "registry": registry.to_dict()}
    if recorder_state is not None:
        payload["recorder"] = recorder_state
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
    os.replace(tmp, path)


def load_checkpoint(path: str, key: str) -> Optional[Dict[str, Any]]:
    """Load a checkpoint for the campaign ``key``; None = start fresh.

    A missing or unreadable file is a clean start; a checkpoint written
    by a *different* campaign is a hard error — silently resuming someone
    else's population would corrupt both.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    found = payload.get("fleet_key")
    if found != key:
        raise ValueError(
            f"checkpoint at {path} belongs to fleet {found!r}, "
            f"not {key!r}; pick an empty --checkpoint-dir or drop --resume")
    return payload


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class FleetResult:
    """Everything one (possibly partial) campaign produced."""

    config: FleetConfig
    registry: MetricsRegistry
    sessions: int
    failures: int
    shards_done: int
    total_shards: int
    jobs: int
    wall_clock: float
    sim_seconds: float
    errors: List[str] = field(default_factory=list)
    checkpoint: Optional[str] = None
    #: Shards restored from a checkpoint rather than simulated this run.
    resumed_shards: int = 0
    #: True per-session failure count (``errors`` is a bounded sample).
    error_total: int = 0
    #: Merged flight-recorder stats (None when the recorder was off).
    recorder: Optional[Dict[str, Any]] = None
    #: Capture records from the flight recorder, in session order.
    anomalies: List[Dict[str, Any]] = field(default_factory=list)
    #: Recorder artifact root (anomaly ``artifact`` paths are relative
    #: to this).
    record_dir: Optional[str] = None

    @property
    def completed(self) -> bool:
        return self.shards_done >= self.total_shards

    @property
    def errors_dropped(self) -> int:
        """Failures beyond the bounded ``errors`` sample."""
        return max(0, self.error_total - len(self.errors))

    def triage(self, top: Optional[int] = None) -> List[Dict[str, Any]]:
        """Captured anomalies ranked worst-first (see
        :func:`~repro.obs.recorder.rank_anomalies`)."""
        return rank_anomalies(self.anomalies, top)

    def registry_json(self) -> str:
        """Canonical JSON of the population registry.

        The determinism contract's unit of comparison: byte-identical
        across worker counts and kill/resume boundaries for one config.
        """
        return json.dumps(self.registry.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def _quantile(self, name: str, q: float) -> Optional[float]:
        metric = self.registry.get(name)
        if isinstance(metric, Histogram) and metric.count:
            return metric.quantile(q)
        return None

    def _counter(self, name: str) -> float:
        metric = self.registry.get(name)
        return metric.value if metric is not None else 0.0

    def population(self) -> Dict[str, Any]:
        """Headline population statistics (None = no data folded yet)."""
        folded = self._counter("repro_fleet_sessions_total")
        stalled = self._counter("repro_fleet_stalled_sessions_total")
        return {
            "sessions": self.sessions,
            "failures": self.failures,
            "shards_done": self.shards_done,
            "total_shards": self.total_shards,
            "completed": self.completed,
            "sim_seconds": self.sim_seconds,
            "bitrate_p50_mbps": self._quantile(
                "repro_fleet_bitrate_mbps", 0.5),
            "bitrate_p95_mbps": self._quantile(
                "repro_fleet_bitrate_mbps", 0.95),
            "stalled_session_fraction": (stalled / folded if folded
                                         else None),
            "stall_seconds_p95": self._quantile(
                "repro_fleet_stall_seconds", 0.95),
            "startup_p50_seconds": self._quantile(
                "repro_fleet_startup_delay_seconds", 0.5),
            "cellular_fraction_p50": self._quantile(
                "repro_fleet_cellular_fraction", 0.5),
            "cellular_mbytes_p50": self._quantile(
                "repro_fleet_cellular_mbytes", 0.5),
            "radio_energy_p50_joules": self._quantile(
                "repro_fleet_radio_energy_joules", 0.5),
            "deadline_misses_total": int(self._counter(
                "repro_fleet_deadline_misses_total")),
            "unfinished_sessions": int(self._counter(
                "repro_fleet_sessions_unfinished_total")),
            "wifi_only_sessions": int(self._counter(
                "repro_fleet_wifi_only_sessions_total")),
        }

    def to_dict(self) -> Dict[str, Any]:
        return {"fleet_key": fleet_key(self.config),
                "sessions": self.sessions, "failures": self.failures,
                "shards_done": self.shards_done,
                "total_shards": self.total_shards,
                "completed": self.completed, "jobs": self.jobs,
                "wall_clock": self.wall_clock,
                "sim_seconds": self.sim_seconds,
                "resumed_shards": self.resumed_shards,
                "checkpoint": self.checkpoint, "errors": list(self.errors),
                "error_total": self.error_total,
                "errors_dropped": self.errors_dropped,
                "recorder": self.recorder,
                "anomalies": list(self.anomalies),
                "population": self.population(),
                "registry": self.registry.to_dict()}

    def export_report(self, path: str, triage_top: int = 0) -> None:
        """Write the self-contained HTML population report to ``path``.

        With ``triage_top > 0``, the worst ``triage_top`` captured
        anomalies that have trace artifacts are additionally rendered as
        mini session reports (``anomaly-<index>.html`` beside ``path``,
        via the offline :func:`~repro.obs.report.session_report_html`
        pipeline) and linked from the fleet report's anomalies panel.
        """
        from ..obs.recorder import render_anomaly_reports
        from ..obs.report import fleet_report_html, write_report

        links: Dict[int, str] = {}
        if triage_top > 0 and self.anomalies and self.record_dir:
            links = render_anomaly_reports(
                self.record_dir, self.triage(triage_top),
                os.path.dirname(os.path.abspath(path)))
        write_report(path, fleet_report_html(self, anomaly_links=links))


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
def run_fleet(config: FleetConfig, jobs: int = 1,
              checkpoint_dir: Optional[str] = None,
              checkpoint_every: int = 10, resume: bool = False,
              stop_after: Optional[int] = None, retries: int = 1,
              bus: Optional[EventBus] = None,
              runner: Optional[Callable[[SessionConfig], Any]] = None,
              recorder: Optional[RecorderConfig] = None,
              ledger: Optional[str] = None) -> FleetResult:
    """Run (or resume) one fleet campaign.

    ``jobs=1`` simulates shards in-process; ``jobs>1`` fans them out over
    a process pool with in-order merging, so the population registry is
    byte-identical either way.  A shard that raises or loses its worker
    is retried up to ``retries`` times (see :mod:`repro.experiments.pool`
    for the crash semantics), then raises ``RuntimeError`` rather than
    silently biasing the population.  ``checkpoint_dir`` enables atomic
    progress checkpoints every ``checkpoint_every`` shards; ``resume``
    restores the matching checkpoint (an error if the directory holds a
    different campaign's).  ``stop_after`` bounds this invocation to that
    many *newly simulated* shards — the deterministic stand-in for a
    mid-campaign kill in tests and smoke runs.  ``runner`` replaces
    :func:`~repro.experiments.runner.run_session` per session (picklable
    module-level callable when ``jobs > 1``).

    ``recorder`` arms the flight recorder: workers judge every session
    against the capture triggers, write triggered traces as gzip
    artifacts under ``recorder.artifact_dir``, and the parent merges
    stats and anomaly records, republishes them as
    :class:`~repro.obs.events.FleetWorkerHeartbeat` /
    :class:`~repro.obs.events.FleetSessionCaptured` bus events, and
    maintains the campaign's triage manifest.  Recording is purely
    observational — it never changes ``fleet_key`` or the population
    registry.

    ``ledger`` appends the finished campaign's headline record
    (population quantiles, miss totals, sim-per-wall, registry digest)
    to the run ledger at that path (see :mod:`repro.obs.ledger`).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1: {jobs!r}")
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1: "
                         f"{checkpoint_every!r}")
    if stop_after is not None and stop_after < 1:
        raise ValueError(f"stop_after must be >= 1: {stop_after!r}")
    if retries < 0:
        raise ValueError(f"retries cannot be negative: {retries!r}")
    if resume and checkpoint_dir is None:
        raise ValueError("resume requires checkpoint_dir")
    if bus is None:
        bus = EventBus()
    start = time.perf_counter()

    def clock() -> float:
        return time.perf_counter() - start

    key = fleet_key(config)
    total = config.total_shards
    registry = MetricsRegistry()
    sessions = 0
    failures = 0
    sim_seconds = 0.0
    errors: List[str] = []
    error_total = 0
    shards_done = 0
    resumed_shards = 0
    rec_stats = empty_stats() if recorder is not None else None
    anomalies: List[Dict[str, Any]] = []
    ckpt_file: Optional[str] = None
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
        ckpt_file = checkpoint_path(checkpoint_dir)
        if resume:
            payload = load_checkpoint(ckpt_file, key)
            if payload is not None:
                registry = MetricsRegistry.from_dict(payload["registry"])
                shards_done = int(payload["shards_done"])
                sessions = int(payload["sessions"])
                failures = int(payload["failures"])
                sim_seconds = float(payload["sim_seconds"])
                errors = list(payload.get("errors", []))
                error_total = int(payload.get("error_total", failures))
                resumed_shards = shards_done
                restored = payload.get("recorder")
                if recorder is not None and restored is not None:
                    merge_stats(rec_stats, restored.get("stats", {}))
                    anomalies = list(restored.get("records", []))

    end_shard = total
    if stop_after is not None:
        end_shard = min(total, shards_done + stop_after)
    bus.publish(FleetStarted(0.0, config.sessions, total, jobs))

    uncheckpointed = 0

    def recorder_state() -> Optional[Dict[str, Any]]:
        if recorder is None:
            return None
        return {"stats": rec_stats, "records": anomalies}

    def commit(shard: int, payload: Dict[str, Any]) -> None:
        nonlocal sessions, failures, sim_seconds, shards_done
        nonlocal uncheckpointed, error_total
        registry.merge(MetricsRegistry.from_dict(payload["registry"]))
        sessions += payload["sessions"]
        failures += payload["failures"]
        sim_seconds += payload["sim_seconds"]
        error_total += int(payload.get("error_total",
                                       payload["failures"]))
        for sample in payload["errors"]:
            if len(errors) >= MAX_ERROR_SAMPLES:
                break
            errors.append(sample)
        shards_done += 1
        uncheckpointed += 1
        captured = 0
        rec_payload = payload.get("recorder")
        if recorder is not None and rec_payload is not None:
            merge_stats(rec_stats, rec_payload["stats"])
            anomalies.extend(rec_payload["records"])
            captured = int(rec_payload["stats"].get("captured", 0))
        bus.publish(FleetShardCompleted(
            clock(), shard, payload["sessions"],
            payload["failures"], payload["elapsed"]))
        bus.publish(FleetWorkerHeartbeat(
            clock(), worker=int(payload.get("worker", 0)),
            shard=shard, sessions=payload["sessions"],
            failures=payload["failures"],
            sim_seconds=payload["sim_seconds"],
            elapsed=payload["elapsed"],
            peak_rss_kb=int(payload.get("peak_rss_kb", 0)),
            last_index=int(payload.get("last_index", -1)),
            captured=captured))
        if recorder is not None and rec_payload is not None:
            for record in rec_payload["records"]:
                bus.publish(FleetSessionCaptured(
                    clock(), session=record["index"],
                    shard=record["shard"], reason=record["reason"],
                    score=float(record.get("score") or 0.0),
                    artifact=record.get("artifact") or ""))
        if ckpt_file is not None and (uncheckpointed >= checkpoint_every
                                      or shards_done == end_shard):
            save_checkpoint(ckpt_file, key, shards_done, sessions,
                            failures, sim_seconds, errors, registry,
                            error_total=error_total,
                            recorder_state=recorder_state())
            uncheckpointed = 0
            bus.publish(FleetCheckpointSaved(clock(), shards_done,
                                             ckpt_file))
            if recorder is not None:
                save_manifest(recorder.artifact_dir, key, rec_stats,
                              anomalies)

    def give_up(shard: int, attempts: int, failure: str) -> None:
        # Skipping a shard would silently bias the population; the last
        # checkpoint still covers everything committed before it.
        raise RuntimeError(f"fleet shard {shard} failed after {attempts} "
                           f"attempt(s): {failure}")

    # Ordered: shard registries must merge in shard order for the
    # registry to be byte-identical across worker counts.
    run_units(range(shards_done, end_shard),
              partial(_run_shard, config, runner=runner, recorder=recorder),
              jobs, retries, commit, give_up, ordered=True)

    if recorder is not None:
        save_manifest(recorder.artifact_dir, key, rec_stats, anomalies)
    wall = time.perf_counter() - start
    bus.publish(FleetCompleted(wall, sessions, failures, shards_done))
    result = FleetResult(
        config=config, registry=registry, sessions=sessions,
        failures=failures, shards_done=shards_done, total_shards=total,
        jobs=jobs, wall_clock=wall, sim_seconds=sim_seconds,
        errors=errors, checkpoint=ckpt_file,
        resumed_shards=resumed_shards, error_total=error_total,
        recorder=rec_stats, anomalies=anomalies,
        record_dir=(recorder.artifact_dir if recorder is not None
                    else None))
    if ledger is not None:
        from ..obs.ledger import RunLedger, fleet_entry

        RunLedger(ledger).append(fleet_entry(result))
    return result
