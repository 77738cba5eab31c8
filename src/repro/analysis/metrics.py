"""QoE and resource metrics for one streaming session.

The four evaluation metrics of §7.3: number of stalls, playback bitrate,
cellular data usage, and radio energy consumption — plus the supporting
statistics the analysis tool reports (quality switches, startup delay,
per-path utilization).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..dash.events import PlayerEventLog, PLAY_START
from ..energy.model import EnergyBreakdown
from ..mptcp.activity import ActivityLog
from ..net.link import CELLULAR, WIFI


@dataclass
class SessionMetrics:
    """Everything the evaluation tables report about one session."""

    bytes_per_path: Dict[str, float] = field(default_factory=dict)
    energy_per_path: Dict[str, float] = field(default_factory=dict)
    energy_total: float = 0.0
    stall_count: int = 0
    total_stall_time: float = 0.0
    quality_switches: int = 0
    #: Mean nominal bitrate of played chunks (bytes/second).
    mean_bitrate: float = 0.0
    #: Per-chunk level indices, in playback order.
    levels: List[int] = field(default_factory=list)
    startup_delay: Optional[float] = None
    session_duration: float = 0.0
    chunk_count: int = 0

    @property
    def total_bytes(self) -> float:
        return sum(self.bytes_per_path.values())

    @property
    def cellular_bytes(self) -> float:
        return self.bytes_per_path.get(CELLULAR, 0.0)

    @property
    def wifi_bytes(self) -> float:
        return self.bytes_per_path.get(WIFI, 0.0)

    @property
    def cellular_fraction(self) -> float:
        total = self.total_bytes
        if total <= 0:
            return 0.0
        return self.cellular_bytes / total

    @property
    def mean_bitrate_mbps(self) -> float:
        return self.mean_bitrate * 8.0 / 1e6

    @property
    def cellular_energy(self) -> float:
        return self.energy_per_path.get(CELLULAR, 0.0)

    @property
    def radio_energy(self) -> float:
        """Total radio energy (both interfaces), joules."""
        return self.energy_total


def compute_metrics(log: PlayerEventLog,
                    energy: Dict[str, EnergyBreakdown],
                    session_duration: float,
                    steady_state_fraction: float = 0.0) -> SessionMetrics:
    """Derive :class:`SessionMetrics` from the player log and energy.

    ``steady_state_fraction`` drops the first fraction of chunks, matching
    the paper's reporting over "the last 80% chunks, when the player is in
    its steady state" (pass 0.2 for that).
    """
    if not 0 <= steady_state_fraction < 1:
        raise ValueError(
            f"steady_state_fraction must be in [0, 1): "
            f"{steady_state_fraction!r}")
    chunks = log.chunks
    skip = int(len(chunks) * steady_state_fraction)
    kept = chunks[skip:]

    metrics = SessionMetrics(session_duration=session_duration,
                             chunk_count=len(kept))
    for chunk in kept:
        for path, num_bytes in chunk.bytes_per_path.items():
            metrics.bytes_per_path[path] = (
                metrics.bytes_per_path.get(path, 0.0) + num_bytes)
        metrics.levels.append(chunk.level)

    metrics.stall_count = log.stall_count
    metrics.total_stall_time = log.total_stall_time
    metrics.quality_switches = sum(
        1 for a, b in zip(kept, kept[1:]) if a.level != b.level)

    if kept:
        # Nominal bitrate of each played chunk: size over playout duration.
        rates = [chunk.size / chunk.duration for chunk in kept]
        metrics.mean_bitrate = sum(rates) / len(rates)

    play_events = log.of_kind(PLAY_START)
    if play_events:
        metrics.startup_delay = play_events[0].time

    for path, breakdown in energy.items():
        if path == "total":
            metrics.energy_total = breakdown.total
        else:
            metrics.energy_per_path[path] = breakdown.total
    return metrics


def savings(baseline: float, treatment: float) -> float:
    """Relative saving of ``treatment`` vs ``baseline`` (1.0 = 100%).

    Positive when the treatment uses less; the paper reports these as
    percentages (negative values mean the treatment used more).
    """
    if baseline <= 0:
        return 0.0
    return (baseline - treatment) / baseline


def bitrate_reduction(baseline: SessionMetrics,
                      treatment: SessionMetrics) -> float:
    """Playback bitrate reduction vs baseline (negative = increase)."""
    if baseline.mean_bitrate <= 0:
        return 0.0
    return ((baseline.mean_bitrate - treatment.mean_bitrate)
            / baseline.mean_bitrate)


def path_utilization(activity: ActivityLog, path: str,
                     session_duration: float) -> float:
    """Fraction of session time the path carried any data."""
    if session_duration <= 0:
        raise ValueError(
            f"session_duration must be positive: {session_duration!r}")
    busy = len(activity.bursts(path, session_duration))
    return busy * activity.bin_width / session_duration
