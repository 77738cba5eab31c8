"""Experiment configuration objects.

A :class:`SessionConfig` describes one streaming session end to end —
network conditions, video, ABR algorithm, and MP-DASH settings — and a
:class:`FileDownloadConfig` one deadline-bounded file transfer (the §7.2
scheduler-only workload).  Both are plain data: the runner builds the
simulation from them, so every experiment is a reproducible value.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Any, Dict, Mapping, Optional

from ..core.deadlines import DEADLINE_MODES, RATE_BASED
from ..net.trace import BandwidthTrace

#: Scheme labels used across benches and tables.
BASELINE = "baseline"       # vanilla MPTCP, no MP-DASH
DURATION = "duration"       # MP-DASH, duration-based deadlines
RATE = "rate"               # MP-DASH, rate-based deadlines
SCHEMES = (BASELINE, DURATION, RATE)


def scheme_fields(scheme: str) -> Dict[str, object]:
    """The :class:`SessionConfig` fields that select one of the three
    evaluation schemes."""
    if scheme == BASELINE:
        return {"mpdash": False}
    if scheme in (DURATION, RATE):
        return {"mpdash": True, "deadline_mode": scheme}
    raise ValueError(f"unknown scheme {scheme!r} (known: {SCHEMES})")


@dataclass
class SessionConfig:
    """One adaptive-streaming session."""

    video: str = "big_buck_bunny"
    abr: str = "festive"
    abr_kwargs: Dict = field(default_factory=dict)

    # --- MP-DASH ---
    mpdash: bool = False
    deadline_mode: str = RATE_BASED
    alpha: float = 1.0
    extension_enabled: bool = True
    phi_fraction: Optional[float] = None

    # --- network ---
    wifi_mbps: Optional[float] = 3.8
    lte_mbps: Optional[float] = 3.0
    wifi_trace: Optional[BandwidthTrace] = None
    lte_trace: Optional[BandwidthTrace] = None
    wifi_rtt_ms: float = 50.0
    lte_rtt_ms: float = 55.0
    #: Dummynet-style cap on the cellular path (bytes/second); the Table 4
    #: throttling baseline.  None = unthrottled.
    lte_throttle: Optional[float] = None
    wifi_only: bool = False
    #: None = one primary RTT (the DSS-bit delay); 0 disables the model.
    signaling_delay: Optional[float] = None
    #: Tear down / re-establish disabled subflows instead of MP-DASH's
    #: skip-in-scheduler semantics (the §6 alternative; costs a handshake
    #: and a congestion restart per re-enable).
    subflow_reestablish: bool = False

    # --- player ---
    buffer_capacity: float = 40.0
    chunk_duration: float = 4.0
    video_duration: float = 600.0

    # --- simulation ---
    #: The MP-DASH scheduler's decision resolution, seconds: its earliest
    #: wakeup and, doubled, its pre-deadline safety margin (see
    #: :class:`~repro.mptcp.connection.MptcpConnection`).
    tick_interval: float = 0.02
    device: str = "galaxy_note"
    steady_state_fraction: float = 0.2
    max_sim_time: Optional[float] = None
    #: Record the session's full typed event stream (repro.obs); the
    #: result then carries the events and can export a JSONL trace.
    record_trace: bool = False
    #: Attach a SessionMetricsCollector (plus the 1 Hz PathSampler); the
    #: result then carries ``metrics_registry``.
    collect_metrics: bool = False
    #: Attach a SpanBuilder; the result then carries ``spans``.
    collect_spans: bool = False

    def __post_init__(self) -> None:
        if self.deadline_mode not in DEADLINE_MODES:
            raise ValueError(f"unknown deadline mode {self.deadline_mode!r} "
                             f"(known: {DEADLINE_MODES})")
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1]: {self.alpha!r}")
        if self.wifi_trace is None and self.wifi_mbps is None:
            raise ValueError("need wifi_mbps or wifi_trace")
        if (not self.wifi_only and self.lte_trace is None
                and self.lte_mbps is None):
            raise ValueError("need lte_mbps or lte_trace (or wifi_only)")

    @property
    def sim_deadline(self) -> float:
        """Wall-clock cap on the simulation."""
        if self.max_sim_time is not None:
            return self.max_sim_time
        return 2.0 * self.video_duration + 120.0

    def with_scheme(self, scheme: str) -> "SessionConfig":
        """This config under one of the three evaluation schemes."""
        return replace(self, **scheme_fields(scheme))


@dataclass
class FileDownloadConfig:
    """One deadline-bounded file download (the §7.2 workload)."""

    size: float
    deadline: float
    mpdash: bool = True
    alpha: float = 1.0
    wifi_mbps: Optional[float] = 3.8
    lte_mbps: Optional[float] = 3.0
    wifi_trace: Optional[BandwidthTrace] = None
    lte_trace: Optional[BandwidthTrace] = None
    wifi_rtt_ms: float = 50.0
    lte_rtt_ms: float = 55.0
    signaling_delay: Optional[float] = None
    subflow_reestablish: bool = False
    #: The MP-DASH scheduler's decision resolution, seconds (as on
    #: :class:`SessionConfig`).
    tick_interval: float = 0.01
    device: str = "galaxy_note"

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"size must be positive: {self.size!r}")
        if self.deadline <= 0:
            raise ValueError(f"deadline must be positive: {self.deadline!r}")


def _encode(value: Any) -> Any:
    """Canonical JSON-ready form of a config value (order-stable)."""
    if is_dataclass(value) and not isinstance(value, type):
        return {spec.name: _encode(getattr(value, spec.name))
                for spec in fields(value)}
    if isinstance(value, BandwidthTrace):
        return {"__trace__": True, "times": value.times,
                "rates": value.rates, "loop": value.loop}
    if isinstance(value, Mapping):
        # Sort by the *stringified* key: that is the form the emitted dict
        # actually carries, and raw-key sorting raises TypeError for
        # mixed-type keys (e.g. {1: ..., "b": ...}).
        items = sorted(value.items(), key=lambda item: str(item[0]))
        return {str(k): _encode(v) for k, v in items}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"cannot canonicalize {type(value).__name__!r} for a config key")


#: Config fields since retired, encoded at the one value they could
#: still take so that keys (cache files, fleet checkpoints, ledger
#: series, capture directories) stay what they were.
_RETIRED_FIELDS: Dict[str, Dict[str, str]] = {
    "SessionConfig": {"kernel": "fast", "mptcp_scheduler": "minrtt"},
    "FileDownloadConfig": {"kernel": "fast", "mptcp_scheduler": "minrtt"},
    "FleetConfig": {"kernel": "fast"},
}


def config_key(config: Any) -> str:
    """Deterministic hash naming one run: equal configs ⇒ equal keys.

    The key doubles as the cache filename, so it also embeds the config's
    type — a :class:`SessionConfig` and a :class:`FileDownloadConfig` can
    never collide.
    """
    kind = type(config).__name__
    encoded = _encode(config)
    encoded.update(_RETIRED_FIELDS.get(kind, {}))
    payload = {"kind": kind, "config": encoded}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]
