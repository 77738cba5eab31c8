"""Causal root-cause attribution: explain *why* each anomaly happened.

The flight recorder (:mod:`repro.obs.recorder`) captures the worst
sessions of a fleet and ``repro triage`` ranks them, but a ranked list
still leaves the operator's actual question open: did this chunk miss
its deadline because WiFi collapsed, because Algorithm 1 armed the
cellular path too late, because the ABR picked a bitrate the paths could
never carry, because the throughput estimator lagged reality, or because
a queue built up in front of the deadline chunk?  Every signal needed to
answer that — per-subflow cwnd/RTT/throughput samples, path enable
requests, deadline arm/activate/miss events, per-chunk download records
— is already on the bus; this module connects them into explanations.

Like every derived view, attribution is a **pure function of the
trace**: :func:`attributions_from_trace` walks the span tree and the
indexed event history backwards through a small declarative rule set and
emits one :class:`Attribution` per anomaly (deadline miss, stall, or
ERROR invariant violation), carrying the blamed layer, the evidence
event indices, a counterfactual slack estimate ("activated 1.8 s
earlier ⇒ deadline met"), and a confidence tier.  Live runs, ``--load``
of the exported trace, and recorder-captured anomaly streams therefore
produce byte-identical verdicts.

The rule set, evaluated in order (first hit wins):

======================  ==========  ====================================
cause                   layer       trigger
======================  ==========  ====================================
path-control-violation  scheduler   an ERROR from the ``path-control``
                                    checker precedes the miss (all paths
                                    requested disabled while armed)
scheduler-activation-   scheduler   ``SchedulerActivated`` lagged
latency                             ``TransferStarted`` by enough to
                                    cover the deadline deficit
bandwidth-drop          network     the preferred path's sampled
                                    throughput during the transfer fell
                                    well below its session baseline
abr-overreach           abr         the chosen level needs more
                                    throughput than recent chunks
                                    actually delivered
estimator-drift         estimator   the path estimator promised far
                                    more than the chunk delivered
queue-buildup           network     RTT inflated without throughput
                                    gain: queued bytes ahead of the
                                    deadline chunk
======================  ==========  ====================================

Counterfactual slack is the rule-specific estimate of how many seconds
of deadline slack the blamed decision cost — e.g. for activation
latency it is the arm gap itself, for a bandwidth drop the extra
transfer time relative to the baseline rate.  When the causal chain is
malformed (orphaned transfers, chunks that never downloaded, truncated
traces) the walker degrades the verdict to ``confidence="low"`` instead
of raising.

Differential attribution (:func:`diff_traces`) aligns two traces of the
same manifest chunk-by-chunk, finds the first diverging decision (ABR
level pick or MP-DASH arm/skip), and ranks the per-cause anomaly deltas
— turning two ``repro compare`` arms into a "what changed" table.

Fleet aggregation (:func:`fold_attributions`) folds attribution counts
into the mergeable :class:`~repro.obs.metrics.MetricsRegistry` wire
format, so shard workers can ship root-cause histograms the same way
they ship QoE distributions and the fleet report can render "62 % of
deadline misses: WiFi dip" breakdowns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .check import CheckReport, Violation, _verdicts
from .events import (ChunkDownloaded, ChunkRequested, DeadlineMissed,
                     MpDashArmed, MpDashSkipped, PathSampled,
                     PathStateRequested, SchedulerActivated,
                     SessionClosed, StallStart, TransferCompleted,
                     TransferStarted)
from .spans import spans_from_trace, transfer_chunk_map
from .trace_export import Trace

# ----------------------------------------------------------------------
# Vocabulary
# ----------------------------------------------------------------------
#: Confidence tiers, strongest first.
CONFIDENCE_HIGH = "high"
CONFIDENCE_MEDIUM = "medium"
CONFIDENCE_LOW = "low"
CONFIDENCES = (CONFIDENCE_HIGH, CONFIDENCE_MEDIUM, CONFIDENCE_LOW)

#: Anomaly kinds an attribution explains.
KIND_MISS = "deadline-miss"
KIND_STALL = "stall"
KIND_VIOLATION = "violation"
_KIND_ORDER = {KIND_MISS: 0, KIND_STALL: 1, KIND_VIOLATION: 2}

#: Blamed layers (the paper's cross-layer decision chain).
LAYER_SCHEDULER = "scheduler"
LAYER_NETWORK = "network"
LAYER_ABR = "abr"
LAYER_ESTIMATOR = "estimator"
LAYER_PLAYER = "player"
LAYER_TRANSPORT = "transport"
LAYER_HTTP = "http"
LAYER_TRACE = "trace"
LAYER_UNKNOWN = "unknown"

#: Causes, in rule-evaluation order (first hit wins).
CAUSE_PATH_CONTROL = "path-control-violation"
CAUSE_ACTIVATION_LATENCY = "scheduler-activation-latency"
CAUSE_BANDWIDTH_DROP = "bandwidth-drop"
CAUSE_ABR_OVERREACH = "abr-overreach"
CAUSE_ESTIMATOR_DRIFT = "estimator-drift"
CAUSE_QUEUE_BUILDUP = "queue-buildup"
CAUSE_MISS_CASCADE = "miss-cascade"
CAUSE_INVARIANT = "invariant-violation"
CAUSE_UNKNOWN = "insufficient-evidence"

RULE_ORDER = (CAUSE_PATH_CONTROL, CAUSE_ACTIVATION_LATENCY,
              CAUSE_BANDWIDTH_DROP, CAUSE_ABR_OVERREACH,
              CAUSE_ESTIMATOR_DRIFT, CAUSE_QUEUE_BUILDUP)

#: Tie-break rank for "dominant cause": specific rules beat the generic
#: and fallback causes, in rule-evaluation order.
_CAUSE_RANK = {cause: rank for rank, cause in enumerate(
    RULE_ORDER + (CAUSE_MISS_CASCADE, CAUSE_INVARIANT, CAUSE_UNKNOWN))}

#: Checker name -> blamed layer for ERROR invariant violations.
CHECKER_LAYERS = {
    "monotonic-time": LAYER_TRACE,
    "deadline-lifecycle": LAYER_SCHEDULER,
    "path-control": LAYER_SCHEDULER,
    "deadline-budget": LAYER_SCHEDULER,
    "byte-conservation": LAYER_TRANSPORT,
    "transfer-lifecycle": LAYER_TRANSPORT,
    "subflow-state": LAYER_TRANSPORT,
    "radio-state": LAYER_TRANSPORT,
    "stall-pairing": LAYER_PLAYER,
    "buffer-occupancy": LAYER_PLAYER,
    "stall-budget": LAYER_PLAYER,
    "http-pairing": LAYER_HTTP,
    "chunk-sanity": LAYER_ABR,
}

# Rule thresholds.  Pinned module constants: verdicts must be a
# deterministic function of the trace alone, so there are no knobs.
_ACTIVATION_GAP_MIN = 0.1       # s of arm lag before the rule fires
_BANDWIDTH_DROP_FRACTION = 0.6  # window mean below this x baseline
_BANDWIDTH_DROP_SEVERE = 0.4    # ... and below this -> high confidence
_OVERREACH_HEADROOM = 1.2       # required rate above this x recent
_OVERREACH_SEVERE = 2.0
_DRIFT_FACTOR = 1.5             # estimate above this x delivered
_DRIFT_SEVERE = 2.0
_QUEUE_RTT_INFLATION = 2.0      # window RTT above this x baseline
_STALL_LOOKBACK = 10.0          # s a stall inherits a prior miss cause
_STALL_PROBE_WINDOW = 5.0       # s of samples behind an orphan stall
_RECENT_DOWNLOADS = 3           # chunks averaged for "recent delivery"
_MIN_BASELINE_SAMPLES = 6
_MIN_WINDOW_SAMPLES = 2


def _mbps(bytes_per_second: float) -> float:
    return bytes_per_second * 8.0 / 1e6


def _mean(values: Sequence[float]) -> float:
    """``statistics.fmean``: one correctly rounded sum over the count."""
    return math.fsum(values) / len(values)


def _median(values: Sequence[float]) -> float:
    """``statistics.median``: the middle value, or the mean of two."""
    ordered, middle = sorted(values), len(values) // 2
    if len(values) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


# ----------------------------------------------------------------------
# The verdict record
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Attribution:
    """One explained anomaly: the blamed decision and its evidence.

    ``anomaly_index`` and ``evidence`` are zero-based indices into the
    trace's event stream (the same coordinate system
    :class:`~repro.obs.check.Violation` uses), ``slack`` the
    counterfactual slack estimate in seconds (how much the blamed cause
    cost), and ``confidence`` one of :data:`CONFIDENCES` — forced to
    ``"low"`` whenever the causal chain around the anomaly was
    incomplete.
    """

    kind: str
    anomaly_index: int
    time: float
    layer: str
    cause: str
    confidence: str
    chunk: Optional[int] = None
    transfer: Optional[int] = None
    slack: Optional[float] = None
    counterfactual: str = ""
    evidence: Tuple[int, ...] = ()
    message: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "anomaly_index": self.anomaly_index,
                "time": self.time, "layer": self.layer,
                "cause": self.cause, "confidence": self.confidence,
                "chunk": self.chunk, "transfer": self.transfer,
                "slack": self.slack,
                "counterfactual": self.counterfactual,
                "evidence": list(self.evidence),
                "message": self.message}


#: Event types whose presence marks a per-event anomaly worth walking.
_ANOMALY_EVENT_TYPES = frozenset((DeadlineMissed, StallStart))


def _has_anomaly_events(events: Sequence[Any]) -> bool:
    """Cheap probe so anomaly-free traces skip the whole walk."""
    for event in events:
        if type(event) in _ANOMALY_EVENT_TYPES:
            return True
    return False


# ----------------------------------------------------------------------
# Indexed evidence: one pass over the stream
# ----------------------------------------------------------------------
class _Evidence:
    """Everything the rules consult, keyed by event stream index."""

    def __init__(self, events: Sequence[Any]):
        # path -> [(index, time, throughput, rtt, cwnd)]
        self.samples: Dict[str, List[Tuple[int, float, float, float,
                                           float]]] = {}
        # [(index, time, path, enabled)] client-side requests
        self.toggles: List[Tuple[int, float, str, bool]] = []
        # transfer -> (index, time, size, window)
        self.activations: Dict[int, Tuple[int, float, float, float]] = {}
        # [(index, time, transfer)] in stream order
        self.misses: List[Tuple[int, float, int]] = []
        # transfer -> (index, time, tag, size)
        self.transfer_start: Dict[int, Tuple[int, float, str,
                                             float]] = {}
        # transfer -> (index, time, duration)
        self.transfer_end: Dict[int, Tuple[int, float, float]] = {}
        # chunk -> (index, time, level, buffer_level)
        self.chunk_requested: Dict[int, Tuple[int, float, int,
                                              float]] = {}
        # chunk -> (index, ChunkDownloaded)
        self.chunk_downloads: Dict[int, Tuple[int, Any]] = {}
        # [(index, time, chunk, throughput)] in completion order
        self.downloads_order: List[Tuple[int, float, int, float]] = []
        # [(index, time)]
        self.stalls: List[Tuple[int, float]] = []
        # chunk -> (index, "armed"/"skipped", deadline-or-None)
        self.mpdash: Dict[int, Tuple[int, str, Optional[float]]] = {}
        self.closed = False
        for index, event in enumerate(events):
            cls = type(event)
            if cls is PathSampled:
                self.samples.setdefault(event.path, []).append(
                    (index, event.time, event.throughput, event.rtt,
                     event.cwnd))
            elif cls is PathStateRequested:
                self.toggles.append(
                    (index, event.time, event.path, event.enabled))
            elif cls is SchedulerActivated:
                self.activations[event.transfer] = (
                    index, event.time, event.size, event.window)
            elif cls is DeadlineMissed:
                self.misses.append((index, event.time, event.transfer))
            elif cls is TransferStarted:
                self.transfer_start[event.transfer] = (
                    index, event.time, event.tag, event.size)
            elif cls is TransferCompleted:
                self.transfer_end[event.transfer] = (
                    index, event.time, event.duration)
            elif cls is ChunkRequested:
                self.chunk_requested[event.index] = (
                    index, event.time, event.level, event.buffer_level)
            elif cls is ChunkDownloaded:
                self.chunk_downloads[event.index] = (index, event)
                self.downloads_order.append(
                    (index, event.time, event.index, event.throughput))
            elif cls is StallStart:
                self.stalls.append((index, event.time))
            elif cls is MpDashArmed:
                self.mpdash[event.index] = (index, "armed",
                                            event.deadline)
            elif cls is MpDashSkipped:
                self.mpdash[event.index] = (index, "skipped", None)
            elif cls is SessionClosed:
                self.closed = True

    def preferred_path(self) -> Optional[str]:
        """The path whose health the network rules judge.

        MP-DASH always prefers WiFi (§3.1), so ``wifi`` when sampled;
        otherwise the most-sampled path (ties broken by name, so the
        choice is deterministic)."""
        if "wifi" in self.samples:
            return "wifi"
        if not self.samples:
            return None
        return sorted(self.samples,
                      key=lambda path: (-len(self.samples[path]),
                                        path))[0]

    def window_samples(self, path: str, start: float, end: float,
                       column: int) -> List[Tuple[int, float]]:
        """``(index, value)`` of one sample column inside ``[start, end]``."""
        return [(sample[0], sample[column])
                for sample in self.samples.get(path, ())
                if start - 1e-9 <= sample[1] <= end + 1e-9]


# ----------------------------------------------------------------------
# The attribution walker
# ----------------------------------------------------------------------
class _RuleHit:
    """What one matched rule reports back to the walker."""

    __slots__ = ("layer", "cause", "confidence", "slack",
                 "counterfactual", "evidence", "message")

    def __init__(self, layer: str, cause: str, confidence: str,
                 slack: Optional[float], counterfactual: str,
                 evidence: Tuple[int, ...], message: str):
        self.layer = layer
        self.cause = cause
        self.confidence = confidence
        self.slack = slack
        self.counterfactual = counterfactual
        self.evidence = evidence
        self.message = message


class _Attributor:
    """One trace's walk: evidence index + span joins + the rule chain."""

    def __init__(self, trace: Trace, report: CheckReport):
        self.trace = trace
        self.report = report
        self.evidence = _Evidence(trace.events)
        spans = spans_from_trace(trace)
        self.transfer_chunk = transfer_chunk_map(spans)
        # transfer -> its deadline span (slack / deadline_at / window).
        self.deadline_spans = {
            span.attrs["transfer"]: span for span in spans
            if span.kind == "deadline" and "transfer" in span.attrs}
        self.errors = report.errors()

    # ------------------------------------------------------------------
    def explain(self) -> List[Attribution]:
        out: List[Attribution] = []
        miss_attrs: List[Attribution] = []
        for index, time, transfer in self.evidence.misses:
            attribution = self._safely(
                self._explain_miss, KIND_MISS, index, time,
                transfer=transfer)
            miss_attrs.append(attribution)
            out.append(attribution)
        for index, time in self.evidence.stalls:
            out.append(self._safely(self._explain_stall, KIND_STALL,
                                    index, time, prior=miss_attrs))
        for violation in self.errors:
            out.append(self._explain_violation(violation))
        out.sort(key=lambda a: (a.anomaly_index, _KIND_ORDER[a.kind],
                                a.cause))
        return out

    def _safely(self, walk, kind: str, index: int, time: float,
                **context) -> Attribution:
        """Degrade to a low-confidence verdict rather than raise.

        Malformed causal chains (orphaned transfers, truncated traces)
        are data, not bugs — the walker must always produce *a* verdict
        for every anomaly."""
        try:
            return walk(index, time, **context)
        except Exception as exc:  # degraded trace, never fatal
            return Attribution(
                kind=kind, anomaly_index=index, time=time,
                layer=LAYER_UNKNOWN, cause=CAUSE_UNKNOWN,
                confidence=CONFIDENCE_LOW, evidence=(index,),
                message=f"attribution walker degraded: "
                        f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------
    # Deadline misses
    # ------------------------------------------------------------------
    def _explain_miss(self, index: int, time: float,
                      transfer: int) -> Attribution:
        ev = self.evidence
        start = ev.transfer_start.get(transfer)
        end = ev.transfer_end.get(transfer)
        activation = ev.activations.get(transfer)
        chunk = self.transfer_chunk.get(transfer)
        span = self.deadline_spans.get(transfer)
        window = (activation[3] if activation is not None
                  else span.attrs.get("window") if span is not None
                  else None)
        deadline_at = (span.attrs.get("deadline_at")
                       if span is not None else
                       activation[1] + activation[3]
                       if activation is not None else None)
        deficit = None
        if end is not None and deadline_at is not None:
            deficit = max(end[1] - deadline_at, 0.0)
        degraded = (not ev.closed or start is None or chunk is None
                    or chunk not in ev.chunk_downloads
                    or deficit is None)
        start_time = (start[1] if start is not None
                      else activation[1] if activation is not None
                      else time)
        context = {"index": index, "time": time, "transfer": transfer,
                   "chunk": chunk, "start": start, "end": end,
                   "activation": activation, "window": window,
                   "deficit": deficit, "start_time": start_time}
        for rule in (self._rule_path_control,
                     self._rule_activation_latency,
                     self._rule_bandwidth_drop,
                     self._rule_abr_overreach,
                     self._rule_estimator_drift,
                     self._rule_queue_buildup):
            hit = rule(context)
            if hit is not None:
                return Attribution(
                    kind=KIND_MISS, anomaly_index=index, time=time,
                    chunk=chunk, transfer=transfer, layer=hit.layer,
                    cause=hit.cause,
                    confidence=(CONFIDENCE_LOW if degraded
                                else hit.confidence),
                    slack=hit.slack, counterfactual=hit.counterfactual,
                    evidence=hit.evidence, message=hit.message)
        return self._unknown(KIND_MISS, index, time, chunk=chunk,
                             transfer=transfer, degraded=degraded)

    def _where(self, chunk: Optional[int], transfer: int) -> str:
        return (f"chunk {chunk}" if chunk is not None
                else f"transfer {transfer}")

    def _rule_path_control(self, ctx) -> Optional[_RuleHit]:
        """All paths requested disabled while a deadline was armed."""
        culprit = None
        for violation in self.errors:
            if (violation.checker == "path-control"
                    and violation.time <= ctx["time"] + 1e-9):
                culprit = violation
        if culprit is None:
            return None
        deficit = ctx["deficit"]
        baseline = self._baseline_throughput()
        capacity = (f"~{_mbps(baseline):.1f} Mb/s of delivery returns"
                    if baseline is not None else "delivery resumes")
        counterfactual = (
            f"preferred path kept enabled ⇒ {capacity}"
            + (f"; deadline was missed by {deficit:.2f} s"
               if deficit is not None else ""))
        evidence = tuple(sorted(set(culprit.events)
                                | {ctx["index"]}))
        return _RuleHit(
            LAYER_SCHEDULER, CAUSE_PATH_CONTROL, CONFIDENCE_HIGH,
            deficit, counterfactual, evidence,
            f"{self._where(ctx['chunk'], ctx['transfer'])} missed its "
            f"deadline after the scheduler disabled every path mid-"
            f"transfer (Algorithm 1 keeps the preferred path on): "
            f"{culprit.message}")

    def _rule_activation_latency(self, ctx) -> Optional[_RuleHit]:
        """The armed deadline bound to the transfer too late."""
        activation, start = ctx["activation"], ctx["start"]
        if activation is None or start is None:
            return None
        gap = activation[1] - start[1]
        if gap < _ACTIVATION_GAP_MIN:
            return None
        deficit = ctx["deficit"]
        if deficit is not None and gap < 0.5 * deficit:
            return None
        met = deficit is not None and gap >= deficit
        counterfactual = (
            f"scheduler activated {gap:.2f} s after the transfer "
            f"started; activating at start ⇒ "
            + ("deadline met" if met else f"miss shrinks by {gap:.2f} s"))
        return _RuleHit(
            LAYER_SCHEDULER, CAUSE_ACTIVATION_LATENCY,
            CONFIDENCE_HIGH if met else CONFIDENCE_MEDIUM, gap,
            counterfactual, (start[0], activation[0], ctx["index"]),
            f"{self._where(ctx['chunk'], ctx['transfer'])}: the "
            f"deadline was armed {gap:.2f} s into the transfer, "
            f"shrinking the scheduler's reaction window")

    def _baseline_throughput(self) -> Optional[float]:
        path = self.evidence.preferred_path()
        if path is None:
            return None
        values = [sample[2] for sample in self.evidence.samples[path]
                  if sample[2] > 0]
        if len(values) < _MIN_BASELINE_SAMPLES:
            return None
        return _median(values)

    def _rule_bandwidth_drop(self, ctx) -> Optional[_RuleHit]:
        """The preferred path dipped well below its own baseline."""
        path = self.evidence.preferred_path()
        baseline = self._baseline_throughput()
        if path is None or baseline is None or baseline <= 0:
            return None
        window = self.evidence.window_samples(
            path, ctx["start_time"], ctx["time"], column=2)
        if len(window) < _MIN_WINDOW_SAMPLES:
            return None
        current = _mean([value for _, value in window])
        if current >= _BANDWIDTH_DROP_FRACTION * baseline:
            return None
        saved = None
        met = False
        if ctx["end"] is not None:
            duration = max(ctx["end"][1] - ctx["start_time"], 0.0)
            saved = duration * (1.0 - current / baseline)
            met = ctx["deficit"] is not None and saved >= ctx["deficit"]
        counterfactual = (
            f"{path} averaged {_mbps(current):.1f} Mb/s during the "
            f"transfer vs a typical {_mbps(baseline):.1f}"
            + (f"; at the typical rate the chunk finishes "
               f"{saved:.2f} s sooner" if saved is not None else "")
            + (" ⇒ deadline met" if met else ""))
        evidence = (window[0][0], window[-1][0], ctx["index"])
        severe = current < _BANDWIDTH_DROP_SEVERE * baseline
        return _RuleHit(
            LAYER_NETWORK, CAUSE_BANDWIDTH_DROP,
            CONFIDENCE_HIGH if severe else CONFIDENCE_MEDIUM, saved,
            counterfactual, evidence,
            f"{self._where(ctx['chunk'], ctx['transfer'])}: {path} "
            f"throughput collapsed to "
            f"{current / baseline:.0%} of its session baseline during "
            f"the transfer")

    def _rule_abr_overreach(self, ctx) -> Optional[_RuleHit]:
        """The ABR picked a level the recent delivery rate cannot carry."""
        chunk, window = ctx["chunk"], ctx["window"]
        if chunk is None or window is None or window <= 0:
            return None
        requested = self.evidence.chunk_requested.get(chunk)
        size = (ctx["start"][3] if ctx["start"] is not None
                else ctx["activation"][2]
                if ctx["activation"] is not None else None)
        if requested is None or size is None or size <= 0:
            return None
        prior = [entry for entry in self.evidence.downloads_order
                 if entry[1] <= requested[1] + 1e-9]
        if not prior:
            return None
        recent_entries = prior[-_RECENT_DOWNLOADS:]
        recent = _mean([entry[3] for entry in recent_entries])
        if recent <= 0:
            return None
        required = size / window
        if required <= _OVERREACH_HEADROOM * recent:
            return None
        fitted_slack = window - size / recent
        counterfactual = (
            f"level {requested[2]} needs {_mbps(required):.1f} Mb/s "
            f"inside the {window:.2f} s window but recent chunks "
            f"delivered {_mbps(recent):.1f}; sized to recent delivery "
            f"the chunk finishes {fitted_slack:+.2f} s from the "
            f"deadline")
        evidence = (requested[0], recent_entries[-1][0], ctx["index"])
        severe = required > _OVERREACH_SEVERE * recent
        return _RuleHit(
            LAYER_ABR, CAUSE_ABR_OVERREACH,
            CONFIDENCE_HIGH if severe else CONFIDENCE_MEDIUM,
            fitted_slack, counterfactual, evidence,
            f"chunk {chunk}: the ABR requested "
            f"{required / recent:.1f}x the recently delivered "
            f"throughput")

    def _rule_estimator_drift(self, ctx) -> Optional[_RuleHit]:
        """The estimator promised far more than the chunk delivered."""
        chunk = ctx["chunk"]
        if chunk is None:
            return None
        requested = self.evidence.chunk_requested.get(chunk)
        downloaded = self.evidence.chunk_downloads.get(chunk)
        if requested is None or downloaded is None:
            return None
        delivered = downloaded[1].throughput
        if delivered <= 0:
            return None
        estimate = 0.0
        evidence: List[int] = []
        for path in sorted(self.evidence.samples):
            last = None
            for sample in self.evidence.samples[path]:
                if sample[1] > requested[1] + 1e-9:
                    break
                last = sample
            if last is not None:
                estimate += last[2]
                evidence.append(last[0])
        if not evidence or estimate <= _DRIFT_FACTOR * delivered:
            return None
        counterfactual = (
            f"estimator promised {_mbps(estimate):.1f} Mb/s at request "
            f"time but the chunk delivered {_mbps(delivered):.1f}; a "
            f"calibrated estimate picks a level that fits")
        return _RuleHit(
            LAYER_ESTIMATOR, CAUSE_ESTIMATOR_DRIFT,
            CONFIDENCE_HIGH if estimate > _DRIFT_SEVERE * delivered
            else CONFIDENCE_MEDIUM, None, counterfactual,
            tuple(evidence) + (downloaded[0], ctx["index"]),
            f"chunk {chunk}: the throughput estimate led delivery by "
            f"{estimate / delivered:.1f}x")

    def _rule_queue_buildup(self, ctx) -> Optional[_RuleHit]:
        """RTT inflated without throughput gain: standing queue ahead."""
        path = self.evidence.preferred_path()
        if path is None:
            return None
        rtts = [sample[3] for sample in self.evidence.samples[path]
                if sample[3] > 0]
        if len(rtts) < _MIN_BASELINE_SAMPLES:
            return None
        baseline_rtt = _median(rtts)
        window = self.evidence.window_samples(
            path, ctx["start_time"], ctx["time"], column=3)
        window = [(index, value) for index, value in window if value > 0]
        if len(window) < _MIN_WINDOW_SAMPLES or baseline_rtt <= 0:
            return None
        current_rtt = _mean([value for _, value in window])
        ratio = current_rtt / baseline_rtt
        if ratio < _QUEUE_RTT_INFLATION:
            return None
        counterfactual = (
            f"{path} RTT inflated {ratio:.1f}x "
            f"({baseline_rtt * 1e3:.0f} ms → "
            f"{current_rtt * 1e3:.0f} ms) with no throughput gain; "
            f"draining the queue restores the baseline delay")
        return _RuleHit(
            LAYER_NETWORK, CAUSE_QUEUE_BUILDUP, CONFIDENCE_MEDIUM,
            None, counterfactual,
            (window[0][0], window[-1][0], ctx["index"]),
            f"{self._where(ctx['chunk'], ctx['transfer'])}: a standing "
            f"queue built up on {path} ahead of the deadline chunk")

    # ------------------------------------------------------------------
    # Stalls and violations
    # ------------------------------------------------------------------
    def _explain_stall(self, index: int, time: float,
                       prior: List[Attribution]) -> Attribution:
        recent = [attribution for attribution in prior
                  if attribution.time <= time + 1e-9
                  and time - attribution.time <= _STALL_LOOKBACK]
        if recent:
            source = recent[-1]
            return Attribution(
                kind=KIND_STALL, anomaly_index=index, time=time,
                chunk=source.chunk, transfer=source.transfer,
                layer=source.layer, cause=source.cause,
                confidence=source.confidence, slack=source.slack,
                counterfactual=source.counterfactual,
                evidence=tuple(sorted(set(source.evidence)
                                      | {index})),
                message=f"stall at {time:.2f} s follows the missed "
                        f"deadline on "
                        f"{self._where(source.chunk, source.transfer or -1)}"
                        f" ({source.cause})")
        path = self.evidence.preferred_path()
        baseline = self._baseline_throughput()
        if path is not None and baseline is not None and baseline > 0:
            window = self.evidence.window_samples(
                path, time - _STALL_PROBE_WINDOW, time, column=2)
            if len(window) >= _MIN_WINDOW_SAMPLES:
                current = _mean([value for _, value in window])
                if current < _BANDWIDTH_DROP_FRACTION * baseline:
                    return Attribution(
                        kind=KIND_STALL, anomaly_index=index,
                        time=time, layer=LAYER_NETWORK,
                        cause=CAUSE_BANDWIDTH_DROP,
                        confidence=(CONFIDENCE_HIGH
                                    if self.evidence.closed
                                    else CONFIDENCE_LOW),
                        counterfactual=(
                            f"{path} averaged {_mbps(current):.1f} "
                            f"Mb/s over the {_STALL_PROBE_WINDOW:.0f} s"
                            f" before the stall vs a typical "
                            f"{_mbps(baseline):.1f}"),
                        evidence=(window[0][0], window[-1][0], index),
                        message=f"buffer drained behind a {path} "
                                f"throughput dip")
        return self._unknown(KIND_STALL, index, time,
                             degraded=not self.evidence.closed)

    def _explain_violation(self, violation: Violation) -> Attribution:
        layer = CHECKER_LAYERS.get(violation.checker, LAYER_UNKNOWN)
        cause = (CAUSE_PATH_CONTROL
                 if violation.checker == "path-control"
                 else CAUSE_INVARIANT)
        anomaly_index = (violation.events[0] if violation.events
                         else max(len(self.trace.events) - 1, 0))
        return Attribution(
            kind=KIND_VIOLATION, anomaly_index=anomaly_index,
            time=violation.time, layer=layer, cause=cause,
            confidence=(CONFIDENCE_HIGH if layer != LAYER_UNKNOWN
                        else CONFIDENCE_LOW),
            evidence=tuple(violation.events),
            message=f"{violation.checker}: {violation.message}")

    def _unknown(self, kind: str, index: int, time: float,
                 chunk: Optional[int] = None,
                 transfer: Optional[int] = None,
                 degraded: bool = False) -> Attribution:
        return Attribution(
            kind=kind, anomaly_index=index, time=time, chunk=chunk,
            transfer=transfer, layer=LAYER_UNKNOWN,
            cause=CAUSE_UNKNOWN, confidence=CONFIDENCE_LOW,
            evidence=(index,),
            message="no attribution rule matched"
                    + (" (causal chain incomplete)" if degraded
                       else ""))


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def attributions_from_trace(trace: Trace,
                            report: Optional[CheckReport] = None
                            ) -> List[Attribution]:
    """Explain every anomaly in ``trace``: one verdict per deadline
    miss, stall, and ERROR invariant violation.

    A pure function of the trace — live runs, ``--load`` of the export,
    and recorder-captured streams produce identical verdict lists.
    Pass a precomputed ``report`` (from :func:`check_trace` on the same
    trace) to skip re-judging; anomaly-free traces return ``[]`` after
    a cheap probe, which is what keeps the fleet recorder path within
    its overhead budget.  Without ``report``, computed once per trace.
    """
    if report is None:
        return list(trace.view(_attribute))
    return _attribute(trace, report)


def _attribute(trace: Trace, report: Optional[CheckReport] = None
               ) -> List[Attribution]:
    if report is None:
        report = _verdicts(trace)  # the shared verdicts, read only
    if not report.errors() and not _has_anomaly_events(trace.events):
        return []
    return _Attributor(trace, report).explain()


def summarize_attributions(attributions: Sequence[Attribution]
                           ) -> Dict[str, Any]:
    """Deterministic roll-up: counts by cause/layer/kind/confidence plus
    the dominant cause and layer (count ties prefer specific rule causes
    over the generic ones, then break by name)."""
    counts: Dict[str, int] = {}
    layers: Dict[str, int] = {}
    kinds: Dict[str, int] = {}
    confidences: Dict[str, int] = {}
    for attribution in attributions:
        counts[attribution.cause] = counts.get(attribution.cause, 0) + 1
        layers[attribution.layer] = layers.get(attribution.layer, 0) + 1
        kinds[attribution.kind] = kinds.get(attribution.kind, 0) + 1
        confidences[attribution.confidence] = \
            confidences.get(attribution.confidence, 0) + 1

    def top(table: Dict[str, int]) -> Optional[str]:
        if not table:
            return None
        return sorted(
            table.items(),
            key=lambda item: (-item[1],
                              _CAUSE_RANK.get(item[0], len(_CAUSE_RANK)),
                              item[0]))[0][0]

    return {"total": len(attributions),
            "counts": dict(sorted(counts.items())),
            "layers": dict(sorted(layers.items())),
            "kinds": dict(sorted(kinds.items())),
            "confidences": dict(sorted(confidences.items())),
            "top_cause": top(counts), "top_layer": top(layers)}


def fold_attributions(registry, attributions: Sequence[Attribution]
                      ) -> None:
    """Fold attribution counts into a mergeable registry.

    Counters only — they merge across shards and kill/resume boundaries
    without bucket-bound coordination, which is what lets the fleet
    report aggregate root causes the same way it aggregates QoE."""
    for attribution in attributions:
        registry.counter("repro_fleet_attribution_total",
                         {"cause": attribution.cause,
                          "layer": attribution.layer}).inc()
        registry.counter("repro_fleet_attribution_kind_total",
                         {"kind": attribution.kind}).inc()
        registry.counter("repro_fleet_attribution_confidence_total",
                         {"confidence": attribution.confidence}).inc()


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _columns(headers: Sequence[str],
             rows: Sequence[Sequence[str]]) -> str:
    widths = [len(header) for header in headers]
    for row in rows:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))
    lines = ["  ".join(header.ljust(width)
                       for header, width in zip(headers, widths))]
    for row in rows:
        lines.append("  ".join(cell.ljust(width)
                               for cell, width in zip(row, widths)))
    return "\n".join(lines)


def render_attributions(attributions: Sequence[Attribution],
                        top: Optional[int] = None) -> str:
    """Human-readable verdict table (goes to stderr in the CLI)."""
    if not attributions:
        return "no anomalies to attribute: 0 deadline misses, " \
               "0 stalls, 0 ERROR violations"
    shown = list(attributions[:top] if top is not None
                 else attributions)
    rows = []
    for attribution in shown:
        where = ("-" if attribution.chunk is None
                 else f"chunk {attribution.chunk}")
        slack = ("-" if attribution.slack is None
                 else f"{attribution.slack:.2f}s")
        rows.append([attribution.kind, where, attribution.layer,
                     attribution.cause, attribution.confidence, slack,
                     attribution.counterfactual or attribution.message])
    table = _columns(["kind", "where", "layer", "cause", "conf",
                      "slack", "counterfactual"], rows)
    summary = summarize_attributions(attributions)
    footer = (f"{summary['total']} anomalies attributed; "
              f"top cause: {summary['top_cause']} "
              f"(layer {summary['top_layer']})")
    if len(shown) < len(attributions):
        footer += (f"; showing the first {len(shown)} of "
                   f"{len(attributions)}")
    return f"{table}\n{footer}"


# ----------------------------------------------------------------------
# Differential attribution
# ----------------------------------------------------------------------
@dataclass
class TraceDiff:
    """Chunk-aligned semantic diff of two traces of the same manifest.

    ``first_divergence`` names the earliest chunk where the two arms
    *decided* differently (ABR level pick or MP-DASH arm/skip) — the
    root of every downstream delta; ``cause_deltas`` ranks the
    per-cause anomaly count differences (positive = more in A);
    ``chunk_deltas`` lists every aligned chunk whose decision, miss
    state, or slack changed."""

    summary_a: Dict[str, Any]
    summary_b: Dict[str, Any]
    aligned_chunks: int
    first_divergence: Optional[Dict[str, Any]]
    chunk_deltas: List[Dict[str, Any]]
    cause_deltas: List[Dict[str, Any]]

    def to_dict(self) -> Dict[str, Any]:
        return {"summary_a": self.summary_a,
                "summary_b": self.summary_b,
                "aligned_chunks": self.aligned_chunks,
                "first_divergence": self.first_divergence,
                "chunk_deltas": self.chunk_deltas,
                "cause_deltas": self.cause_deltas}

    @property
    def top_cause(self) -> Optional[str]:
        """The cause whose anomaly count moved the most between arms."""
        return (self.cause_deltas[0]["cause"] if self.cause_deltas
                else None)

    def render(self, top: Optional[int] = None) -> str:
        lines = [f"arm A: {self.summary_a['chunks']} chunks, "
                 f"{self.summary_a['anomalies']} anomalies | "
                 f"arm B: {self.summary_b['chunks']} chunks, "
                 f"{self.summary_b['anomalies']} anomalies "
                 f"({self.aligned_chunks} aligned)"]
        if self.first_divergence is not None:
            div = self.first_divergence
            lines.append(f"first diverging decision: chunk "
                         f"{div['chunk']} {div['decision']} "
                         f"(A={div['a']} vs B={div['b']})")
        else:
            lines.append("no diverging per-chunk decision found")
        if self.cause_deltas:
            shown = (self.cause_deltas[:top] if top is not None
                     else self.cause_deltas)
            rows = [[delta["cause"], delta["layer"],
                     str(delta["count_a"]), str(delta["count_b"]),
                     f"{delta['delta']:+d}"] for delta in shown]
            lines.append(_columns(
                ["cause", "layer", "A", "B", "delta"], rows))
        else:
            lines.append("no attribution deltas between the arms")
        return "\n".join(lines)


_SLACK_DELTA_MIN = 0.25  # s of per-chunk slack drift worth reporting


def _chunk_table(trace: Trace, attributions: Sequence[Attribution]
                 ) -> Dict[int, Dict[str, Any]]:
    """Per-chunk decision/outcome records keyed by chunk index."""
    evidence = _Evidence(trace.events)
    missed = {attribution.chunk for attribution in attributions
              if attribution.kind == KIND_MISS
              and attribution.chunk is not None}
    table: Dict[int, Dict[str, Any]] = {}
    for chunk, (index, _, level, _) in \
            evidence.chunk_requested.items():
        table[chunk] = {"level": level, "request_index": index,
                        "mpdash": None, "slack": None,
                        "missed": chunk in missed}
    for chunk, (_, state, _) in evidence.mpdash.items():
        if chunk in table:
            table[chunk]["mpdash"] = state
    for chunk, (_, event) in evidence.chunk_downloads.items():
        row = table.setdefault(
            chunk, {"level": event.level, "request_index": None,
                    "mpdash": None, "slack": None,
                    "missed": chunk in missed})
        row["level"] = event.level
        if event.deadline is not None:
            row["slack"] = event.deadline - event.duration
    return table


def diff_traces(a: Trace, b: Trace,
                attributions_a: Optional[Sequence[Attribution]] = None,
                attributions_b: Optional[Sequence[Attribution]] = None
                ) -> TraceDiff:
    """Differential attribution of two arms of the same workload.

    Align the traces chunk-by-chunk, find the first diverging decision,
    and rank per-cause anomaly deltas — what ``repro why --diff A B``
    prints.  Precomputed attribution lists can be passed to skip the
    per-arm walks."""
    if attributions_a is None:
        attributions_a = attributions_from_trace(a)
    if attributions_b is None:
        attributions_b = attributions_from_trace(b)
    table_a = _chunk_table(a, attributions_a)
    table_b = _chunk_table(b, attributions_b)
    common = sorted(set(table_a) & set(table_b))

    first_divergence = None
    chunk_deltas: List[Dict[str, Any]] = []
    for chunk in common:
        row_a, row_b = table_a[chunk], table_b[chunk]
        diverged = [field for field in ("level", "mpdash")
                    if row_a[field] != row_b[field]]
        if diverged and first_divergence is None:
            decision = diverged[0]
            first_divergence = {
                "chunk": chunk, "decision": decision,
                "a": row_a[decision], "b": row_b[decision],
                "evidence_a": row_a["request_index"],
                "evidence_b": row_b["request_index"]}
        slack_a, slack_b = row_a["slack"], row_b["slack"]
        slack_delta = (slack_b - slack_a
                       if slack_a is not None and slack_b is not None
                       else None)
        changed = (bool(diverged)
                   or row_a["missed"] != row_b["missed"]
                   or (slack_delta is not None
                       and abs(slack_delta) >= _SLACK_DELTA_MIN))
        if changed:
            chunk_deltas.append({
                "chunk": chunk, "diverged": diverged,
                "level_a": row_a["level"], "level_b": row_b["level"],
                "mpdash_a": row_a["mpdash"],
                "mpdash_b": row_b["mpdash"],
                "missed_a": row_a["missed"],
                "missed_b": row_b["missed"],
                "slack_a": slack_a, "slack_b": slack_b,
                "slack_delta": slack_delta})

    summary_counts_a = summarize_attributions(attributions_a)["counts"]
    summary_counts_b = summarize_attributions(attributions_b)["counts"]
    layers = {attribution.cause: attribution.layer
              for attribution in
              list(attributions_b) + list(attributions_a)}
    cause_deltas = []
    for cause in sorted(set(summary_counts_a) | set(summary_counts_b)):
        count_a = summary_counts_a.get(cause, 0)
        count_b = summary_counts_b.get(cause, 0)
        cause_deltas.append({
            "cause": cause, "layer": layers.get(cause, LAYER_UNKNOWN),
            "count_a": count_a, "count_b": count_b,
            "delta": count_a - count_b})
    cause_deltas.sort(key=lambda delta: (-abs(delta["delta"]),
                                         -delta["delta"],
                                         delta["cause"]))

    def summary(table: Dict[int, Dict[str, Any]],
                attributions: Sequence[Attribution]) -> Dict[str, Any]:
        return {"chunks": len(table),
                "anomalies": len(attributions),
                "misses": sum(1 for a in attributions
                              if a.kind == KIND_MISS),
                "stalls": sum(1 for a in attributions
                              if a.kind == KIND_STALL),
                "violations": sum(1 for a in attributions
                                  if a.kind == KIND_VIOLATION)}

    return TraceDiff(summary_a=summary(table_a, attributions_a),
                     summary_b=summary(table_b, attributions_b),
                     aligned_chunks=len(common),
                     first_divergence=first_divergence,
                     chunk_deltas=chunk_deltas,
                     cause_deltas=cause_deltas)
