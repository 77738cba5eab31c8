"""The Multipath Video Analysis Tool (§6).

The paper builds a ~3,000-line C++ tool that takes a network packet trace
and a player event log, correlates them across protocol layers (MPTCP,
HTTP, DASH), and reports path utilization, rebuffering, quality switches,
and energy — plus the Figure-8 chunk visualization.

This is the same tool over the simulator's equivalents of those inputs:
the transport :class:`~repro.mptcp.activity.ActivityLog` (the packet trace)
and the :class:`~repro.dash.events.PlayerEventLog` (the event log).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..dash.events import PlayerEventLog
from ..energy.devices import DevicePowerProfile, GALAXY_NOTE
from ..energy.model import RadioTimeline, session_energy
from ..mptcp.activity import ActivityLog
from ..net.link import CELLULAR
from .metrics import SessionMetrics, compute_metrics, path_utilization


@dataclass
class ChunkView:
    """One chunk as the Figure-8 visualization renders it."""

    index: int
    level: int
    start: float
    end: float
    size: float
    cellular_fraction: float


@dataclass
class IdleGap:
    """A period where the connection moved no bytes (player buffer full)."""

    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class MultipathVideoAnalyzer:
    """Correlates transport activity with the player's event log."""

    def __init__(self, activity: ActivityLog, log: PlayerEventLog,
                 session_duration: float,
                 device: DevicePowerProfile = GALAXY_NOTE,
                 timeline: Optional[RadioTimeline] = None):
        if session_duration <= 0:
            raise ValueError(
                f"session_duration must be positive: {session_duration!r}")
        self.activity = activity
        #: A finished log's shared :class:`RadioTimeline`; without one,
        #: every energy and radio-state query walks the log afresh.
        self.timeline = timeline
        self.log = log
        self.session_duration = session_duration
        self.device = device

    # ------------------------------------------------------------------
    def metrics(self, steady_state_fraction: float = 0.0) -> SessionMetrics:
        energy = session_energy(self.timeline or self.activity, self.device,
                                self.session_duration)
        return compute_metrics(self.log, energy, self.session_duration,
                               steady_state_fraction)

    def radio_transitions(self, path: str, until: float
                          ) -> List[Tuple[float, str]]:
        """``path``'s radio ``(time, state)`` transitions up to ``until``;
        none for a path the device has no radio profile for."""
        if not self.device.covers(path):
            return []
        timeline = self.timeline or RadioTimeline(self.activity)
        return timeline.transitions(path, self.device.for_interface(path),
                                    until)

    def chunk_views(self) -> List[ChunkView]:
        """Per-chunk download windows with their cellular byte fraction."""
        return [
            ChunkView(index=c.index, level=c.level, start=c.requested_at,
                      end=c.completed_at, size=c.size,
                      cellular_fraction=c.fraction_on(CELLULAR))
            for c in self.log.chunks
        ]

    def idle_gaps(self, min_duration: float = 0.5) -> List[IdleGap]:
        """Network-idle periods longer than ``min_duration`` seconds."""
        busy: List[Tuple[float, float]] = []
        for path in self.activity.paths():
            busy.extend(self.activity.active_windows(path, idle_threshold=0.0))
        if not busy:
            return [IdleGap(0.0, self.session_duration)]
        busy.sort()
        merged = [list(busy[0])]
        for start, end in busy[1:]:
            if start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        gaps: List[IdleGap] = []
        cursor = 0.0
        for start, end in merged:
            if start - cursor >= min_duration:
                gaps.append(IdleGap(cursor, start))
            cursor = max(cursor, end)
        if self.session_duration - cursor >= min_duration:
            gaps.append(IdleGap(cursor, self.session_duration))
        return gaps

    def utilization(self) -> Dict[str, float]:
        """Per-path fraction of session time with data on the wire."""
        return {path: path_utilization(self.activity, path,
                                       self.session_duration)
                for path in self.activity.paths()}

    def throughput_timeline(self, path: str,
                            until: Optional[float] = None
                            ) -> Tuple[List[float], List[float]]:
        """(times, bytes/second) series for one path."""
        horizon = until if until is not None else self.session_duration
        return self.activity.throughput_series(path, until=horizon)

    def aggregate_timeline(self, until: Optional[float] = None
                           ) -> Tuple[List[float], List[float]]:
        """(times, bytes/second) of the whole MPTCP connection."""
        horizon = until if until is not None else self.session_duration
        combined: Optional[List[float]] = None
        times: List[float] = []
        for path in self.activity.paths():
            times, series = self.activity.throughput_series(path,
                                                            until=horizon)
            if combined is None:
                combined = list(series)
            else:
                combined = [a + b for a, b in zip(combined, series)]
        return times, (combined if combined is not None else [])
