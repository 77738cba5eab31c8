"""Drift sentinel over the run ledger: population-based regression
detection.

A pairwise comparison judges one current run against one stored
baseline.  This module judges against the whole ledger population
instead: every ``(kind, metric)`` pair in the ledger
(:mod:`repro.obs.ledger`) forms one series in file order, and each new
point is judged against a baseline learned from the points before it.

Two detectors run side by side:

* **EWMA control bands.**  An exponentially-weighted mean and variance
  track the series; a point landing ``warn_sigma``/``error_sigma``
  deviations outside the band is flagged.  The band never collapses
  below a relative floor, so a perfectly-deterministic history (every
  prior run byte-identical) still tolerates ``rel_floor`` of benign
  movement before alarming.
* **CUSUM change points.**  One-sided cumulative sums of the
  standardized deviations catch small-but-sustained level shifts that
  never individually breach the band.

Every alarm is a frozen :class:`DriftFinding` carrying the severity,
direction, the offending ``entry_id``, and the baseline entry ids as
evidence.  Severity encodes *adversity*: metrics with a known good
direction (QoE up, deadline misses down …) only gate when they move
the wrong way — an improvement drifts at INFO.  The gate contract
mirrors :mod:`repro.obs.check`: ``repro history --gate`` exits nonzero
exactly when an ERROR-severity finding exists.

Everything here is a pure function of the entry sequence — the same
ledger always yields the same findings, byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .check import ERROR, INFO, WARNING
from .ledger import LedgerEntry

#: Detector names stamped into findings.
EWMA = "ewma"
CUSUM = "cusum"

#: How many baseline entry ids one finding cites at most.
_EVIDENCE_CAP = 8

#: Known good directions by metric-name fragment, checked in order
#: against the last dot-separated metric component.  "higher" means
#: larger values are better (dropping is adverse); "lower" the reverse.
_DIRECTIONS: Tuple[Tuple[str, str], ...] = (
    ("unfinished", "lower"),  # must outrank the bare "finished" fragment
    ("qoe", "higher"),
    ("bitrate", "higher"),
    ("sim_per_wall", "higher"),
    ("finished", "higher"),
    ("cache_hits", "higher"),
    ("deadline_miss", "lower"),
    ("stall", "lower"),
    ("startup", "lower"),
    ("cellular", "lower"),
    ("energy", "lower"),
    ("violation", "lower"),
    ("failure", "lower"),
    ("wall_clock", "lower"),
    ("peak_rss", "lower"),
)


def metric_direction(name: str) -> Optional[str]:
    """The metric's good direction ("higher"/"lower"), or None when the
    sentinel cannot tell and must treat both directions as adverse."""
    leaf = name.rsplit(".", 1)[-1]
    for fragment, direction in _DIRECTIONS:
        if fragment in leaf:
            return direction
    return None


@dataclass(frozen=True)
class DriftFinding:
    """One metric's drift verdict at one ledger entry."""

    #: The entry kind whose series drifted ("session"/"sweep"/...).
    kind: str
    metric: str
    detector: str  # EWMA or CUSUM
    severity: str  # repro.obs.check severities: error/warning/info
    direction: str  # "up" or "down": where the series moved
    #: Zero-based position of the offending entry in the loaded ledger.
    position: int
    entry_id: str
    value: float
    baseline: float  # EWMA mean the point was judged against
    band: float  # allowed half-width at error_sigma
    #: Sigma multiples (EWMA) or the cumulative statistic (CUSUM).
    deviation: float
    #: Baseline entry ids the verdict rests on (most recent last).
    evidence: Tuple[str, ...]
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "metric": self.metric,
                "detector": self.detector, "severity": self.severity,
                "direction": self.direction, "position": self.position,
                "entry_id": self.entry_id, "value": self.value,
                "baseline": self.baseline, "band": self.band,
                "deviation": self.deviation,
                "evidence": list(self.evidence),
                "message": self.message}


def metric_series(entries: Sequence[LedgerEntry]
                  ) -> Dict[Tuple[str, str],
                            List[Tuple[int, str, float]]]:
    """Group the ledger into per-``(kind, metric)`` series.

    Each series lists ``(position, entry_id, value)`` in file order —
    the timeline the detectors (and the trend charts) walk.
    """
    series: Dict[Tuple[str, str], List[Tuple[int, str, float]]] = {}
    for position, entry in enumerate(entries):
        for metric, value in entry.metrics.items():
            series.setdefault((entry.kind, metric), []).append(
                (position, entry.entry_id, value))
    return series


def control_track(values: Sequence[float], *, alpha: float = 0.3,
                  rel_floor: float = 0.05, abs_floor: float = 1e-9
                  ) -> Tuple[List[float], List[float]]:
    """EWMA mean and floored standard deviation, one pair per point.

    ``means[i]``/``stds[i]`` describe the expectation for point ``i``
    formed from points ``[0, i)`` only (the first point is its own
    expectation), so judging point ``i`` against them never lets the
    point absorb itself first.
    """
    means: List[float] = []
    stds: List[float] = []
    mean: Optional[float] = None
    var = 0.0
    for value in values:
        if mean is None:
            mean = value
            means.append(value)
            stds.append(max(abs(value) * rel_floor, abs_floor))
            continue
        means.append(mean)
        stds.append(max(math.sqrt(var), abs(mean) * rel_floor, abs_floor))
        delta = value - mean
        mean += alpha * delta
        var = (1.0 - alpha) * (var + alpha * delta * delta)
    return means, stds


def detect_drift(entries: Sequence[LedgerEntry], *, alpha: float = 0.3,
                 warn_sigma: float = 2.0, error_sigma: float = 3.0,
                 cusum_threshold: float = 5.0, cusum_slack: float = 0.5,
                 min_history: int = 2, rel_floor: float = 0.05,
                 abs_floor: float = 1e-9) -> List[DriftFinding]:
    """Run both detectors over every series; findings in a fixed order.

    A point is only judged once at least ``min_history`` earlier points
    exist in its series.  Findings sort by (kind, metric, position,
    detector) so the output is deterministic for a given ledger.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1]: {alpha!r}")
    if warn_sigma <= 0 or error_sigma < warn_sigma:
        raise ValueError(f"need 0 < warn_sigma <= error_sigma: "
                         f"{warn_sigma!r}, {error_sigma!r}")
    if min_history < 1:
        raise ValueError(f"min_history must be >= 1: {min_history!r}")
    findings: List[DriftFinding] = []
    for (kind, metric), points in sorted(metric_series(entries).items()):
        values = [value for _, _, value in points]
        means, stds = control_track(values, alpha=alpha,
                                    rel_floor=rel_floor,
                                    abs_floor=abs_floor)
        good = metric_direction(metric)
        cusum_up = cusum_down = 0.0
        for i, (position, entry_id, value) in enumerate(points):
            z = (value - means[i]) / stds[i]
            if i < min_history:
                continue
            evidence = tuple(
                eid for _, eid, _ in points[max(0, i - _EVIDENCE_CAP):i])
            direction = "up" if z >= 0 else "down"
            adverse = (good is None
                       or (good == "higher" and direction == "down")
                       or (good == "lower" and direction == "up"))
            if abs(z) >= warn_sigma:
                if not adverse:
                    severity = INFO
                elif abs(z) >= error_sigma:
                    severity = ERROR
                else:
                    severity = WARNING
                band = error_sigma * stds[i]
                findings.append(DriftFinding(
                    kind=kind, metric=metric, detector=EWMA,
                    severity=severity, direction=direction,
                    position=position, entry_id=entry_id, value=value,
                    baseline=means[i], band=band, deviation=abs(z),
                    evidence=evidence,
                    message=(f"{kind}.{metric} {direction} "
                             f"{abs(z):.3g} sigma: {value:.6g} vs "
                             f"EWMA {means[i]:.6g} "
                             f"(band +-{band:.6g})")))
            # CUSUM accumulates every judged point, alarm or not.
            cusum_up = max(0.0, cusum_up + z - cusum_slack)
            cusum_down = max(0.0, cusum_down - z - cusum_slack)
            for statistic, direction in ((cusum_up, "up"),
                                         (cusum_down, "down")):
                if statistic <= cusum_threshold:
                    continue
                adverse = (good is None
                           or (good == "higher" and direction == "down")
                           or (good == "lower" and direction == "up"))
                findings.append(DriftFinding(
                    kind=kind, metric=metric, detector=CUSUM,
                    severity=WARNING if adverse else INFO,
                    direction=direction, position=position,
                    entry_id=entry_id, value=value, baseline=means[i],
                    band=error_sigma * stds[i], deviation=statistic,
                    evidence=evidence,
                    message=(f"{kind}.{metric} sustained {direction} "
                             f"shift (CUSUM {statistic:.3g} > "
                             f"{cusum_threshold:.3g})")))
            if cusum_up > cusum_threshold:
                cusum_up = 0.0
            if cusum_down > cusum_threshold:
                cusum_down = 0.0
    findings.sort(key=lambda f: (f.kind, f.metric, f.position,
                                 f.detector, f.direction))
    return findings


def trend_document(entries: Sequence[LedgerEntry],
                   findings: Optional[Sequence[DriftFinding]] = None
                   ) -> Dict[str, object]:
    """The machine-readable trend report (``repro history trend --json``).

    A pure function of the entry sequence: per-series points with their
    EWMA track, every drift finding, and the gate verdict.  Serializing
    it with sorted keys yields byte-identical output for the same
    ledger.
    """
    entries = list(entries)
    if findings is None:
        findings = detect_drift(entries)
    series_payload = []
    for (kind, metric), points in sorted(metric_series(entries).items()):
        values = [value for _, _, value in points]
        means, stds = control_track(values)
        series_payload.append({
            "kind": kind, "metric": metric,
            "direction": metric_direction(metric),
            "points": [{"position": position, "entry_id": entry_id,
                        "value": value}
                       for position, entry_id, value in points],
            "ewma": means, "band": stds})
    return {"entries": len(entries),
            "kinds": sorted({entry.kind for entry in entries}),
            "series": series_payload,
            "findings": [finding.to_dict() for finding in findings],
            "gate_ok": gate_ok(findings)}


def gate_ok(findings: Sequence[DriftFinding]) -> bool:
    """The CI gate verdict: True when nothing drifted at ERROR."""
    return not any(f.severity == ERROR for f in findings)


def drift_table(findings: Sequence[DriftFinding]) -> str:
    """Human-readable drift summary (for stderr)."""
    counts = {ERROR: 0, WARNING: 0, INFO: 0}
    for finding in findings:
        counts[finding.severity] += 1
    lines = [f"drift: {counts[ERROR]} error(s), "
             f"{counts[WARNING]} warning(s), {counts[INFO]} info"]
    for finding in findings:
        lines.append(f"  [{finding.severity.upper():7}] "
                     f"@{finding.position} {finding.entry_id[:12]} "
                     f"{finding.message}")
    return "\n".join(lines)
