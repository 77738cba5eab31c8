"""Persistent, append-only run ledger — the longitudinal memory.

Every other view in :mod:`repro.obs` is within-run: the bus, the
registry, spans, invariants, and the flight recorder all die with the
process.  The ledger is the piece that remembers *across* runs: a
schema-versioned JSONL file to which every entry point — `run_session`,
`run_sweep`, `run_fleet` — can append one :class:`LedgerEntry` recording
its config/fleet key, an environment fingerprint (python version,
platform, machine), headline metrics (QoE, deadline misses, stalls,
cellular bytes, energy, violations, wall clock, sim-per-wall, peak RSS),
and a digest of the serialized
:class:`~repro.obs.metrics.MetricsRegistry`.  The perf metrics make the
ledger the cross-run performance record: ``repro history trend`` charts
them and the drift gate judges them like any other metric.

Durability contract:

* **Appends are atomic.**  One entry is one canonical-JSON line written
  with a single ``write`` on an ``O_APPEND`` descriptor, so concurrent
  appenders (two sweeps sharing a ledger) never interleave partial
  records.
* **Loads tolerate a corrupt tail.**  A crash mid-append can leave a
  truncated last line; :meth:`RunLedger.load` skips any unreadable line
  and reports it as a warning instead of refusing the whole file.
* **Entries are content-addressed.**  ``entry_id`` is the SHA-256 of
  the entry's canonical JSON body, so an id names exactly one payload
  and the drift sentinel (:mod:`repro.obs.drift`) can cite evidence by
  id.  ``from_dict`` recomputes and verifies the recorded id.

The ledger records no wall-clock timestamps: file order *is* the
timeline, which keeps every derived view (``repro history`` trends,
:func:`~repro.obs.report.history_report_html`) a byte-deterministic
pure function of the ledger file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

try:  # pragma: no cover - resource is POSIX-only
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]

from .recorder import qoe_proxy

#: Schema version stamped into every entry; loads skip (with a warning)
#: entries written by a future schema.
LEDGER_SCHEMA = 1

#: The entry kinds the schema knows, one per entry point.
ENTRY_KINDS = ("session", "sweep", "fleet")


def canonical_json(payload: Any) -> str:
    """The repo-wide canonical encoding: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def environment_fingerprint() -> Dict[str, str]:
    """The run's environment: python version, platform and machine."""
    import platform

    return {"python": platform.python_version(),
            "platform": platform.platform(),
            "machine": platform.machine()}


def registry_digest(registry: Any) -> str:
    """Content digest of a serialized ``MetricsRegistry`` (24 hex chars,
    like ``config_key``)."""
    body = canonical_json(registry.to_dict())
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:24]


@dataclass(frozen=True)
class LedgerEntry:
    """One run's record: what ran, where, and how it scored.

    ``metrics`` maps headline-metric name to a finite float; which
    names appear depends on ``kind`` (a session entry has one run's
    figures, a fleet entry population quantiles).  The
    drift sentinel treats each ``(kind, metric)`` pair as one series.
    """

    kind: str
    #: ``config_key``, ``fleet_key`` or the hash of a sweep's config
    #: keys — whatever names "the same experiment" for this kind.
    key: str
    label: str = ""
    environment: Mapping[str, str] = field(default_factory=dict)
    metrics: Mapping[str, float] = field(default_factory=dict)
    #: Digest of the run's serialized MetricsRegistry (None when the
    #: run carried no registry).
    registry_digest: Optional[str] = None
    schema: int = LEDGER_SCHEMA

    def __post_init__(self) -> None:
        if self.kind not in ENTRY_KINDS:
            raise ValueError(f"unknown ledger entry kind {self.kind!r}; "
                             f"known: {', '.join(ENTRY_KINDS)}")
        if self.schema > LEDGER_SCHEMA:
            raise ValueError(f"entry schema {self.schema} is newer than "
                             f"this reader (schema {LEDGER_SCHEMA})")
        numeric: Dict[str, float] = {}
        for name in sorted(self.metrics):
            value = float(self.metrics[name])
            if not math.isfinite(value):
                raise ValueError(
                    f"ledger metric {name!r} must be finite: {value!r}")
            numeric[name] = value
        object.__setattr__(self, "metrics", numeric)
        object.__setattr__(self, "environment",
                           {str(k): str(v)
                            for k, v in sorted(self.environment.items())})

    def _body(self) -> Dict[str, Any]:
        return {"schema": self.schema, "kind": self.kind, "key": self.key,
                "label": self.label, "environment": dict(self.environment),
                "metrics": dict(self.metrics),
                "registry_digest": self.registry_digest}

    @property
    def entry_id(self) -> str:
        """Content address: SHA-256 of the canonical body (24 hex)."""
        body = canonical_json(self._body())
        return hashlib.sha256(body.encode("utf-8")).hexdigest()[:24]

    def to_dict(self) -> Dict[str, Any]:
        payload = self._body()
        payload["entry_id"] = self.entry_id
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "LedgerEntry":
        """Inverse of :meth:`to_dict`; verifies the content address."""
        entry = cls(kind=payload["kind"], key=payload["key"],
                    label=payload.get("label", ""),
                    environment=payload.get("environment", {}),
                    metrics=payload.get("metrics", {}),
                    registry_digest=payload.get("registry_digest"),
                    schema=payload.get("schema", LEDGER_SCHEMA))
        recorded = payload.get("entry_id")
        if recorded is not None and recorded != entry.entry_id:
            raise ValueError(f"entry id mismatch: recorded {recorded!r}, "
                             f"body hashes to {entry.entry_id!r}")
        return entry


@dataclass(frozen=True)
class LedgerLoad:
    """A tolerant load's outcome: the readable entries, in file order,
    plus one warning per line that could not be read."""

    entries: Tuple[LedgerEntry, ...]
    warnings: Tuple[str, ...]


class RunLedger:
    """The append-only JSONL ledger at ``path``.

    The file need not exist yet; the first :meth:`append` creates it.
    """

    def __init__(self, path: str):
        self.path = os.fspath(path)

    def append(self, entry: LedgerEntry) -> str:
        """Durably append one entry; returns its ``entry_id``.

        A single ``write`` on an ``O_APPEND`` descriptor: concurrent
        appenders interleave whole lines, never fragments.
        """
        data = (canonical_json(entry.to_dict()) + "\n").encode("utf-8")
        fd = os.open(self.path,
                     os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, data)
        finally:
            os.close(fd)
        return entry.entry_id

    def load(self) -> LedgerLoad:
        """Read every entry, skipping (with a warning) unreadable lines.

        A missing file loads as empty — a ledger that has never been
        appended to holds no history, which is not an error.
        """
        try:
            with open(self.path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return LedgerLoad((), ())
        entries: List[LedgerEntry] = []
        warnings: List[str] = []
        for number, line in enumerate(raw.split(b"\n"), 1):
            if not line.strip():
                continue
            try:
                payload = json.loads(line.decode("utf-8"))
                if not isinstance(payload, dict):
                    raise ValueError("entry is not a JSON object")
                entries.append(LedgerEntry.from_dict(payload))
            except (ValueError, KeyError, TypeError) as exc:
                warnings.append(
                    f"{self.path}:{number}: skipped unreadable ledger "
                    f"line ({exc})")
        return LedgerLoad(tuple(entries), tuple(warnings))

    def entries(self) -> Tuple[LedgerEntry, ...]:
        """The readable entries, warnings dropped."""
        return self.load().entries

    def __repr__(self) -> str:
        return f"<RunLedger {self.path}>"


# ----------------------------------------------------------------------
# Entry builders, one per entry point
# ----------------------------------------------------------------------
def _perf_metrics(wall_clock: Optional[float],
                  sim_seconds: Optional[float]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    if wall_clock is not None and wall_clock > 0:
        out["wall_clock_seconds"] = float(wall_clock)
        if sim_seconds is not None:
            out["sim_per_wall"] = float(sim_seconds) / float(wall_clock)
    peak = peak_rss_kb()
    if peak is not None:
        out["peak_rss_kb"] = float(peak)
    return out


def peak_rss_kb() -> Optional[int]:
    """Process peak RSS in KiB (``ru_maxrss`` is KiB on Linux)."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - reported in bytes
        peak //= 1024
    return int(peak)


def session_entry(result: Any, label: str = "",
                  wall_clock: Optional[float] = None) -> LedgerEntry:
    """Build the ledger entry for one finished ``run_session`` result."""
    m = result.metrics
    stats = result.scheduler_stats
    metrics: Dict[str, float] = {
        "qoe": qoe_proxy(m, result.session_duration),
        "bitrate_mbps": m.mean_bitrate_mbps,
        "stall_seconds": m.total_stall_time,
        "stall_count": float(m.stall_count),
        "startup_seconds": m.startup_delay or 0.0,
        "cellular_mbytes": m.cellular_bytes / 1e6,
        "cellular_fraction": m.cellular_fraction,
        "energy_joules": m.radio_energy,
        "deadline_misses": float(stats.get("deadline_misses", 0)),
        "finished": 1.0 if result.finished else 0.0,
    }
    report = getattr(result, "check_report", None)
    if report is not None:
        metrics["violations"] = float(len(report.errors()))
    metrics.update(_perf_metrics(wall_clock, result.session_duration))
    digest = None
    if getattr(result, "metrics_registry", None) is not None:
        digest = registry_digest(result.metrics_registry)
    from ..experiments.configs import config_key

    return LedgerEntry(kind="session", key=config_key(result.config),
                       label=label,
                       environment=environment_fingerprint(),
                       metrics=metrics, registry_digest=digest)


def sweep_entry(result: Any, label: str = "") -> LedgerEntry:
    """Build the ledger entry for one ``run_sweep`` result.

    The key hashes the sorted set of run config keys, so "the same
    grid" maps to the same series regardless of run order.
    """
    keys = sorted({run.config_key for run in result.runs})
    key = hashlib.sha256(
        canonical_json(keys).encode("utf-8")).hexdigest()[:24]
    sessions = result.summaries
    metrics: Dict[str, float] = {
        "runs": float(len(result.runs)),
        "failures": float(len(result.failures)),
        "cache_hits": float(result.cache_hits),
    }
    if sessions:
        count = float(len(sessions))
        metrics["qoe"] = sum(
            qoe_proxy(s.metrics, s.session_duration)
            for s in sessions) / count
        metrics["bitrate_mbps"] = sum(
            s.metrics.mean_bitrate_mbps for s in sessions) / count
        metrics["stall_seconds"] = sum(
            s.metrics.total_stall_time for s in sessions)
        metrics["cellular_mbytes"] = sum(
            s.metrics.cellular_bytes for s in sessions) / 1e6
        metrics["energy_joules"] = sum(
            s.metrics.radio_energy for s in sessions)
        metrics["deadline_misses"] = float(sum(
            s.scheduler_stats.get("deadline_misses", 0)
            for s in sessions))
        checked = [s for s in sessions if s.violations is not None]
        if checked:
            metrics["violations"] = float(sum(
                s.violations.get("error", 0) for s in checked))
        sim_seconds = sum(s.session_duration for s in sessions)
        metrics.update(_perf_metrics(result.wall_clock, sim_seconds))
    else:
        metrics.update(_perf_metrics(result.wall_clock, None))
    return LedgerEntry(kind="sweep", key=key, label=label,
                       environment=environment_fingerprint(),
                       metrics=metrics, registry_digest=None)


def fleet_entry(result: Any, label: str = "") -> LedgerEntry:
    """Build the ledger entry for one ``run_fleet`` result."""
    from ..experiments.fleet import fleet_key

    population = result.population()
    metrics: Dict[str, float] = {
        "sessions": float(result.sessions),
        "failures": float(result.failures),
        "deadline_misses": float(population["deadline_misses_total"]),
        "unfinished_sessions": float(population["unfinished_sessions"]),
    }
    for name in ("bitrate_p50_mbps", "bitrate_p95_mbps",
                 "stalled_session_fraction", "stall_seconds_p95",
                 "startup_p50_seconds", "cellular_fraction_p50",
                 "cellular_mbytes_p50", "radio_energy_p50_joules"):
        value = population.get(name)
        if value is not None:
            metrics[name] = float(value)
    # With the flight recorder armed, its capture verdicts become part
    # of the longitudinal record: an ERROR-violation capture appearing
    # where the history had none is exactly the drift the gate exists
    # to catch.
    stats = result.recorder
    if stats is not None:
        metrics["anomalies"] = float(stats.get("captured", 0))
        by_reason = stats.get("by_reason", {})
        metrics["violations"] = float(by_reason.get("violation", 0))
    metrics.update(_perf_metrics(result.wall_clock, result.sim_seconds))
    return LedgerEntry(kind="fleet", key=fleet_key(result.config),
                       label=label,
                       environment=environment_fingerprint(),
                       metrics=metrics,
                       registry_digest=registry_digest(result.registry))
