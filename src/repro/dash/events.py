"""Player event log and per-chunk records.

The paper's analysis tool correlates a network packet trace with "a
player's event logs" (§6).  This module is the player half of that input:
typed events with timestamps, plus a structured per-chunk record carrying
everything the analyzer and the Figure-8 visualization need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..obs import events as obs_events
from ..obs.bus import EventBus

# Event kinds.
REQUEST = "request"
DOWNLOADED = "downloaded"
PLAY_START = "play_start"
STALL_START = "stall_start"
STALL_END = "stall_end"
QUALITY_SWITCH = "quality_switch"
PLAYBACK_END = "playback_end"
MPDASH_ARMED = "mpdash_armed"
MPDASH_SKIPPED = "mpdash_skipped"


@dataclass(frozen=True)
class PlayerEvent:
    """One timestamped player event."""

    time: float
    kind: str
    detail: Dict[str, float] = field(default_factory=dict)


@dataclass
class ChunkRecord:
    """Everything known about one downloaded chunk."""

    index: int
    level: int
    size: float
    duration: float
    requested_at: float
    completed_at: float
    #: Player-observed throughput for this chunk (bytes/second).
    throughput: float
    #: Bytes carried per path name (from the transport).
    bytes_per_path: Dict[str, float] = field(default_factory=dict)
    #: Deadline window armed for this chunk; None when MP-DASH was off.
    deadline: Optional[float] = None
    #: Buffer occupancy when the chunk was requested.
    buffer_at_request: float = 0.0

    @property
    def download_time(self) -> float:
        return self.completed_at - self.requested_at

    def fraction_on(self, path: str) -> float:
        total = sum(self.bytes_per_path.values())
        if total <= 0:
            return 0.0
        return self.bytes_per_path.get(path, 0.0) / total


@dataclass(frozen=True)
class StallRecord:
    """One rebuffering interval."""

    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class PlayerEventLog:
    """Append-only event log with typed accessors.

    Either fed directly through :meth:`record`/:meth:`record_chunk`, or
    attached to the session bus with :meth:`attach`, where it rebuilds the
    same entries from the player's typed events — which is how both the
    live player log and the offline trace-replay log are produced.
    """

    def __init__(self) -> None:
        self.events: List[PlayerEvent] = []
        self.chunks: List[ChunkRecord] = []
        self.stalls: List[StallRecord] = []
        self._open_stall: Optional[float] = None

    def attach(self, bus: EventBus) -> None:
        """Subscribe to the player-layer events on ``bus``."""
        ev = obs_events
        bus.subscribe(ev.ChunkRequested, lambda e: self.record(
            e.time, REQUEST, index=e.index, level=e.level))
        bus.subscribe(ev.MpDashArmed, lambda e: self.record(
            e.time, MPDASH_ARMED, index=e.index, deadline=e.deadline))
        bus.subscribe(ev.MpDashSkipped, lambda e: self.record(
            e.time, MPDASH_SKIPPED, index=e.index, deadline=-1.0))
        bus.subscribe(ev.QualitySwitched, lambda e: self.record(
            e.time, QUALITY_SWITCH, from_level=e.from_level,
            to_level=e.to_level))
        bus.subscribe(ev.ChunkDownloaded, self._on_chunk_downloaded)
        bus.subscribe(ev.PlaybackStarted,
                      lambda e: self.record(e.time, PLAY_START))
        bus.subscribe(ev.StallStart,
                      lambda e: self.record(e.time, STALL_START))
        bus.subscribe(ev.StallEnd, self._on_stall_end)
        bus.subscribe(ev.PlaybackEnded, self._on_playback_ended)
        bus.subscribe(ev.SessionClosed, lambda e: self.close(e.time))

    def _on_chunk_downloaded(self, event: "obs_events.ChunkDownloaded"
                             ) -> None:
        self.record(event.time, DOWNLOADED, index=event.index,
                    level=event.level, size=event.size)
        self.record_chunk(ChunkRecord(
            index=event.index, level=event.level, size=event.size,
            duration=event.duration, requested_at=event.requested_at,
            completed_at=event.time, throughput=event.throughput,
            bytes_per_path=dict(event.bytes_per_path),
            deadline=event.deadline,
            buffer_at_request=event.buffer_at_request))

    def _on_stall_end(self, event: "obs_events.StallEnd") -> None:
        # A recorded stream may end a stall it never started (the
        # stall-pairing checker reports it): skip it, as the collector
        # and the span builder do.
        if self._open_stall is not None:
            self.record(event.time, STALL_END)

    def _on_playback_ended(self, event: "obs_events.PlaybackEnded") -> None:
        self.record(event.time, PLAYBACK_END)
        self.close(event.time)

    def record(self, time: float, kind: str, **detail: float) -> None:
        self.events.append(PlayerEvent(time, kind, detail))
        if kind == STALL_START:
            self._open_stall = time
        elif kind == STALL_END:
            if self._open_stall is None:
                raise ValueError("stall_end without stall_start")
            self.stalls.append(StallRecord(self._open_stall, time))
            self._open_stall = None

    def record_chunk(self, record: ChunkRecord) -> None:
        self.chunks.append(record)

    def close(self, time: float) -> None:
        """Close any open stall at end of session."""
        if self._open_stall is not None:
            self.stalls.append(StallRecord(self._open_stall, time))
            self._open_stall = None

    # ------------------------------------------------------------------
    def of_kind(self, kind: str) -> List[PlayerEvent]:
        return [e for e in self.events if e.kind == kind]

    @property
    def stall_count(self) -> int:
        return len(self.stalls)

    @property
    def total_stall_time(self) -> float:
        return sum(s.duration for s in self.stalls)

    def quality_switches(self) -> int:
        """Number of level changes between consecutive chunks."""
        return sum(1 for a, b in zip(self.chunks, self.chunks[1:])
                   if a.level != b.level)

    def __repr__(self) -> str:
        return (f"<PlayerEventLog events={len(self.events)} "
                f"chunks={len(self.chunks)} stalls={len(self.stalls)}>")
