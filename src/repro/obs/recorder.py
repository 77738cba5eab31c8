"""Tail-sampled flight recorder and anomaly triage for fleet workers.

The fleet engine scales by folding every session into a mergeable
registry and discarding per-run artifacts — so the sessions that matter
most (invariant violations, deadline-miss storms, bottom-percentile QoE,
outright failures) leave no trace behind.  This module closes that gap
the way production serving fleets do: every worker runs its sessions
with an in-memory trace buffer, and keeps the full JSONL trace only when
a *trigger* fires.

Triggers, in triage-severity order (:data:`REASON_ORDER`):

* ``violation`` — the session's trace fails the stock invariant battery
  with an ERROR-severity violation (checked offline via
  :func:`~repro.obs.check.check_trace`, which is pinned identical to the
  live monitor);
* ``failure`` — the session raised (recorded trace-less; the exception
  preempts the event stream);
* ``deadline_miss`` / ``stall`` — the scheduler's deadline-miss count or
  the player's stall count crossed a configured threshold;
* ``bottom_qoe`` — the session is among the shard's ``bottom_k`` worst
  by QoE (a per-shard reservoir, so capture decisions never depend on
  cross-shard execution order);
* ``head_sample`` — deterministic head sampling (every ``head_every``-th
  session), the unbiased reference population.

Kept traces are written as deterministic gzip JSONL artifacts keyed by
``(fleet_key, session_index)`` — same campaign, same index ⇒ identical
bytes, across worker counts and kill/resume boundaries — plus a JSON
*manifest* (:func:`save_manifest`) that :func:`rank_anomalies` and the
``repro triage`` CLI consume to rank, replay, and render the worst
sessions through the existing offline pipeline.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .check import ERROR, check_trace
from .trace_export import Trace, dumps_jsonl, gzip_bytes, load_jsonl
from .why import attributions_from_trace, summarize_attributions

#: Capture reasons, most severe first — the primary triage ranking key.
REASON_VIOLATION = "violation"
REASON_FAILURE = "failure"
REASON_MISS = "deadline_miss"
REASON_STALL = "stall"
REASON_BOTTOM = "bottom_qoe"
REASON_HEAD = "head_sample"
REASON_ORDER: Tuple[str, ...] = (
    REASON_VIOLATION, REASON_FAILURE, REASON_MISS, REASON_STALL,
    REASON_BOTTOM, REASON_HEAD)

#: Manifest filename inside one campaign's artifact directory.
MANIFEST_FILE = "anomalies.json"
MANIFEST_VERSION = 1

#: Characters of the fleet key used as the artifact directory name.
_KEY_DIR_CHARS = 16

#: Stall-time weight of the recorder's QoE proxy (Mbps of bitrate one
#: unit of rebuffer *ratio* is worth — the spirit of robust-MPC's
#: rebuffer penalty).
QOE_REBUFFER_WEIGHT = 8.0


@dataclass(frozen=True)
class RecorderConfig:
    """Flight-recorder policy: where artifacts go and what fires capture.

    Every field is a pure per-session predicate (or a per-shard one, for
    the reservoir), so the captured set is a deterministic function of
    the fleet config and seed alone.
    """

    #: Root directory for artifacts; one subdirectory per campaign key.
    artifact_dir: str
    #: Keep every Nth session unconditionally (0 disables head sampling).
    head_every: int = 0
    #: Capture when scheduler deadline misses reach this count.
    miss_threshold: int = 10
    #: Capture when the player stalled at least this many times.
    stall_threshold: int = 3
    #: Per-shard reservoir of the k worst sessions by QoE proxy.
    bottom_k: int = 1
    #: Traces longer than this many events are counted, not kept.
    max_events: int = 200_000
    #: Record failed sessions (trace-less — the raise preempts capture).
    capture_failures: bool = True
    #: Run the stock invariant battery offline on every session trace.
    check: bool = True

    def __post_init__(self) -> None:
        if not self.artifact_dir:
            raise ValueError("recorder needs an artifact_dir")
        for name in ("head_every", "miss_threshold", "stall_threshold",
                     "bottom_k", "max_events"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative: "
                                 f"{getattr(self, name)!r}")


def key_dir(artifact_dir: str, key: str) -> str:
    """One campaign's artifact directory under the recorder root."""
    return os.path.join(artifact_dir, key[:_KEY_DIR_CHARS])


def artifact_name(index: int) -> str:
    """Artifact filename for one session index (fixed-width, sortable)."""
    return f"session-{index:08d}.jsonl.gz"


def qoe_proxy(metrics: Any, session_duration: float) -> float:
    """Bitrate minus a stall-ratio penalty: higher is better.

    The repository's one QoE definition: deliberately simple and
    ladder-free, it only has to *order* sessions within a shard,
    deterministically, from SessionMetrics alone.  The run ledger's
    ``qoe`` headline is this same proxy.
    """
    ratio = metrics.total_stall_time / max(session_duration, 1e-9)
    return metrics.mean_bitrate_mbps - QOE_REBUFFER_WEIGHT * ratio


def empty_stats() -> Dict[str, Any]:
    return {"sessions": 0, "captured": 0, "oversized": 0, "untraced": 0,
            "bytes_written": 0,
            "by_reason": {reason: 0 for reason in REASON_ORDER}}


def merge_stats(total: Dict[str, Any], part: Mapping[str, Any]) -> None:
    """Fold one shard's recorder stats into a running total, in place."""
    for name in ("sessions", "captured", "oversized", "untraced",
                 "bytes_written"):
        total[name] = total.get(name, 0) + int(part.get(name, 0))
    by_reason = total.setdefault("by_reason", {})
    for reason, count in part.get("by_reason", {}).items():
        by_reason[reason] = by_reason.get(reason, 0) + int(count)


class ShardRecorder:
    """Capture policy applied to one shard's sessions, worker-side.

    The worker calls :meth:`observe` per finished session and
    :meth:`record_failure` per raised one, then :meth:`flush` at shard
    end (which settles the bottom-QoE reservoir).  :meth:`payload`
    returns the JSON-ready summary — stats plus ordered capture records
    — that rides the shard result channel back to the parent; the traces
    themselves never do (they go straight to disk here).
    """

    def __init__(self, config: RecorderConfig, key: str, shard: int):
        self.config = config
        self.key = key
        self.shard = shard
        self.directory = key_dir(config.artifact_dir, key)
        self.stats = empty_stats()
        self.records: List[Dict[str, Any]] = []
        self._kept: set = set()
        #: Reservoir of (qoe, index, canonical trace text) for sessions
        #: not otherwise captured — at most ``bottom_k`` entries live.
        self._reservoir: List[Tuple[float, int, str]] = []

    # ------------------------------------------------------------------
    def observe(self, index: int, result: Any) -> List[Any]:
        """Judge one finished session and capture its trace if triggered.

        ``result`` is duck-typed on the :class:`SessionResult` surface:
        ``events``/``trace_meta`` (absent on runners that ignore
        ``record_trace`` — such sessions are counted ``untraced``),
        ``metrics``, ``scheduler_stats``, ``finished``,
        ``session_duration``.

        Returns the session's :class:`~repro.obs.why.Attribution` list
        (empty for untraced, unchecked, or anomaly-free sessions) so the
        caller can fold root causes into its shard registry.
        """
        self.stats["sessions"] += 1
        events = getattr(result, "events", None)
        if events is None:
            self.stats["untraced"] += 1
            return []
        metrics = result.metrics
        misses = int(dict(result.scheduler_stats).get(
            "deadline_misses", 0))
        stalls = int(metrics.stall_count)
        qoe = qoe_proxy(metrics, result.session_duration)
        violations: Optional[Dict[str, int]] = None
        attributions: List[Any] = []
        reasons: List[str] = []
        if self.config.check:
            trace = Trace(meta=result.trace_meta, events=list(events))
            report = check_trace(trace)
            violations = report.by_severity()
            if violations.get(ERROR):
                reasons.append(REASON_VIOLATION)
            # Same cost discipline as capture itself: the attribution
            # walker's cheap probe returns [] for anomaly-free sessions,
            # so only sessions with something to explain pay the walk.
            attributions = attributions_from_trace(trace, report=report)
        if misses >= self.config.miss_threshold > 0:
            reasons.append(REASON_MISS)
        if stalls >= self.config.stall_threshold > 0:
            reasons.append(REASON_STALL)
        if self.config.head_every and index % self.config.head_every == 0:
            reasons.append(REASON_HEAD)
        detail = {"qoe": qoe, "misses": misses, "stalls": stalls,
                  "bitrate_mbps": metrics.mean_bitrate_mbps,
                  "stall_seconds": metrics.total_stall_time,
                  "finished": bool(result.finished),
                  "violations": violations,
                  "attribution": (summarize_attributions(attributions)
                                  if attributions else None),
                  "error": None}
        if reasons:
            text = dumps_jsonl(events, result.trace_meta)
            self._keep(index, reasons, len(events), text, detail)
        elif self.config.bottom_k and self._admits(qoe, index):
            # Serialize lazily: only sessions actually entering the
            # reservoir pay the dumps cost (most are dominated and skip
            # it), which is what keeps the anomaly-free overhead small.
            self._offer_reservoir(
                qoe, index, dumps_jsonl(events, result.trace_meta))
        return attributions

    def record_failure(self, index: int, error: str) -> None:
        """A session raised: keep a trace-less anomaly record."""
        self.stats["sessions"] += 1
        if not self.config.capture_failures:
            return
        self.stats["captured"] += 1
        self.stats["by_reason"][REASON_FAILURE] += 1
        self._kept.add(index)
        self.records.append({
            "index": index, "shard": self.shard,
            "reason": REASON_FAILURE, "reasons": [REASON_FAILURE],
            "score": 1.0, "artifact": None, "events": 0,
            "qoe": None, "misses": None, "stalls": None,
            "bitrate_mbps": None, "stall_seconds": None,
            "finished": False, "violations": None,
            "attribution": None, "error": error})

    def flush(self) -> None:
        """Settle the reservoir: the surviving k worst become records."""
        for qoe, index, text in sorted(self._reservoir,
                                       key=lambda entry: entry[:2]):
            if index in self._kept:
                continue
            events = max(text.count("\n") - 1, 0)
            self._keep(index, [REASON_BOTTOM], events, text,
                       {"qoe": qoe, "misses": None, "stalls": None,
                        "bitrate_mbps": None, "stall_seconds": None,
                        "finished": True, "violations": None,
                        "attribution": None, "error": None})
        self._reservoir = []
        self.records.sort(key=lambda record: record["index"])

    def payload(self) -> Dict[str, Any]:
        """The JSON-ready shard summary for the result channel."""
        return {"stats": self.stats, "records": list(self.records)}

    # ------------------------------------------------------------------
    def _admits(self, qoe: float, index: int) -> bool:
        """Would ``(qoe, index)`` enter the bottom-k reservoir?"""
        if len(self._reservoir) < self.config.bottom_k:
            return True
        worst = max(self._reservoir, key=lambda e: e[:2])
        return (qoe, index) < worst[:2]

    def _offer_reservoir(self, qoe: float, index: int, text: str) -> None:
        if len(self._reservoir) >= self.config.bottom_k:
            self._reservoir.remove(
                max(self._reservoir, key=lambda e: e[:2]))
        self._reservoir.append((qoe, index, text))

    def _score(self, reason: str, detail: Mapping[str, Any]) -> float:
        """Reason-specific badness (higher = worse) for triage ranking."""
        if reason == REASON_VIOLATION:
            return float((detail.get("violations") or {}).get(ERROR, 0))
        if reason == REASON_MISS:
            return float(detail.get("misses") or 0)
        if reason == REASON_STALL:
            return float(detail.get("stalls") or 0)
        if reason == REASON_BOTTOM:
            return -float(detail.get("qoe") or 0.0)
        return 0.0

    def _keep(self, index: int, reasons: List[str], events: int,
              text: str, detail: Dict[str, Any]) -> None:
        reason = min(reasons, key=REASON_ORDER.index)
        artifact: Optional[str] = None
        if events > self.config.max_events:
            self.stats["oversized"] += 1
        else:
            artifact = self._write(index, text)
        self.stats["captured"] += 1
        self.stats["by_reason"][reason] += 1
        self._kept.add(index)
        record = {"index": index, "shard": self.shard, "reason": reason,
                  "reasons": sorted(reasons, key=REASON_ORDER.index),
                  "score": self._score(reason, detail),
                  "artifact": artifact, "events": events}
        record.update(detail)
        self.records.append(record)

    def _write(self, index: int, text: str) -> str:
        """Atomically write one deterministic gzip artifact; returns the
        path relative to the recorder root."""
        os.makedirs(self.directory, exist_ok=True)
        blob = gzip_bytes(text.encode("utf-8"))
        final = os.path.join(self.directory, artifact_name(index))
        tmp = f"{final}.tmp.{os.getpid()}"
        with open(tmp, "wb") as handle:
            handle.write(blob)
        os.replace(tmp, final)
        self.stats["bytes_written"] += len(blob)
        return os.path.join(os.path.basename(self.directory),
                            artifact_name(index))


# ----------------------------------------------------------------------
# The manifest (what `repro triage` consumes)
# ----------------------------------------------------------------------
def save_manifest(artifact_dir: str, key: str, stats: Mapping[str, Any],
                  records: Sequence[Mapping[str, Any]]) -> str:
    """Atomically write one campaign's anomaly manifest; returns its path.

    Written by the *parent* at checkpoint cadence and on completion, so
    a manifest always describes a committed (in-order) prefix of the
    campaign — never a torn view of in-flight workers.
    """
    directory = key_dir(artifact_dir, key)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, MANIFEST_FILE)
    payload = {"version": MANIFEST_VERSION, "fleet_key": key,
               "stats": dict(stats), "records": list(records)}
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
    os.replace(tmp, path)
    return path


def find_manifests(artifact_dir: str) -> List[str]:
    """Every campaign manifest under ``artifact_dir`` (sorted).

    Accepts either the recorder root (manifests one level down) or a
    single campaign directory containing the manifest itself.
    """
    direct = os.path.join(artifact_dir, MANIFEST_FILE)
    if os.path.isfile(direct):
        return [direct]
    found = []
    try:
        entries = sorted(os.listdir(artifact_dir))
    except OSError:
        return []
    for entry in entries:
        candidate = os.path.join(artifact_dir, entry, MANIFEST_FILE)
        if os.path.isfile(candidate):
            found.append(candidate)
    return found


def load_manifest(path: str) -> Dict[str, Any]:
    """Load one manifest; raises ``ValueError`` on malformed content."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or "records" not in payload:
        raise ValueError(f"not an anomaly manifest: {path}")
    return payload


# ----------------------------------------------------------------------
# Triage: rank, replay, drill down
# ----------------------------------------------------------------------
def rank_anomalies(records: Sequence[Mapping[str, Any]],
                   top: Optional[int] = None) -> List[Dict[str, Any]]:
    """Captured records, worst first: by reason severity, then score
    (descending badness), then session index — a total, deterministic
    order."""
    rank = {reason: i for i, reason in enumerate(REASON_ORDER)}

    def sort_key(record: Mapping[str, Any]):
        return (rank.get(record.get("reason"), len(REASON_ORDER)),
                -float(record.get("score") or 0.0),
                int(record.get("index", 0)))

    ranked = [dict(record) for record in sorted(records, key=sort_key)]
    return ranked if top is None else ranked[:top]


def replay_anomaly(artifact_dir: str,
                   record: Mapping[str, Any]) -> Dict[str, Any]:
    """Re-judge one captured trace through the offline pipeline.

    Loads the gzip artifact, replays it through
    :func:`~repro.obs.check.check_trace`, and reports the offline
    verdict counts alongside the recorded ones — live == offline is the
    observability layer's standing identity, and this is where a fleet
    operator verifies it per anomaly.  Trace-less records (failures) and
    unreadable artifacts degrade to an ``error`` entry, never a raise.
    """
    artifact = record.get("artifact")
    if not artifact:
        return {"replayed": False, "error": "no artifact (trace-less)"}
    path = os.path.join(artifact_dir, artifact)
    try:
        trace = load_jsonl(path)
    except (OSError, ValueError) as exc:
        return {"replayed": False,
                "error": f"{type(exc).__name__}: {exc}"}
    report = check_trace(trace)
    verdicts = report.by_severity()
    recorded = record.get("violations")
    return {"replayed": True, "events": len(trace.events),
            "violations": verdicts, "ok": report.ok,
            "matches_recorded": (recorded is None
                                 or dict(recorded) == dict(verdicts)),
            "error": None}


def render_anomaly_reports(artifact_dir: str,
                           records: Sequence[Mapping[str, Any]],
                           out_dir: str) -> Dict[int, str]:
    """Render mini session reports for captured traces, worst-k style.

    For each record with a loadable artifact, writes
    ``anomaly-<index>.html`` (the full single-session report via
    :func:`~repro.obs.report.session_report_html`, derived offline from
    the captured trace) into ``out_dir`` and returns ``{session index:
    filename}`` for linking.  Trace-less and unreadable records are
    skipped — triage must degrade, not raise, on a partially scrubbed
    artifact directory.
    """
    from .report import session_report_html, write_report

    links: Dict[int, str] = {}
    os.makedirs(out_dir, exist_ok=True)
    for record in records:
        artifact = record.get("artifact")
        if not artifact:
            continue
        try:
            trace = load_jsonl(os.path.join(artifact_dir, artifact))
        except (OSError, ValueError):
            continue
        index = int(record["index"])
        name = f"anomaly-{index:08d}.html"
        write_report(os.path.join(out_dir, name),
                     session_report_html(trace))
        links[index] = name
    return links


def triage_table(records: Sequence[Mapping[str, Any]]) -> str:
    """Plain-text ranking of captured anomalies, worst first."""
    from ..experiments.tables import format_table  # avoid cycle

    def num(value, fmt="{:.2f}"):
        return "-" if value is None else fmt.format(value)

    rows = []
    for record in records:
        attribution = record.get("attribution") or {}
        rows.append([
            record.get("index", "-"), record.get("shard", "-"),
            str(record.get("reason", "-")),
            num(record.get("score")),
            num(record.get("qoe")),
            num(record.get("misses"), "{:.0f}"),
            num(record.get("stalls"), "{:.0f}"),
            attribution.get("top_cause") or "-",
            record.get("artifact") or "-"])
    return format_table(
        ["session", "shard", "reason", "score", "qoe", "misses",
         "stalls", "top cause", "artifact"],
        rows, title=f"triage: {len(records)} anomaly record(s), "
                    f"worst first")
