"""Per-chunk and per-stall records of a player session.

The paper's analysis tool correlates a network packet trace with "a
player's event logs" (§6).  The player's event log is its typed event
stream on the session bus (a recorded trace holds it verbatim); this
module keeps the two structured views the analyzer, the metrics and the
Figure-8 visualization read from it: one record per downloaded chunk and
one per rebuffering interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..obs import events as obs_events
from ..obs.bus import EventBus


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
    """Chunk and stall records plus the playback start, rebuilt from the
    player's typed events.

    :meth:`attach` subscribes it to a session bus; the live player and
    the offline trace replay both build their log that way.
    """

    def __init__(self) -> None:
        self.chunks: List[ChunkRecord] = []
        self.stalls: List[StallRecord] = []
        #: When playback first started; None until it does.
        self.started_at: Optional[float] = None
        self._open_stall: Optional[float] = None

    def attach(self, bus: EventBus) -> None:
        """Subscribe to the player-layer events on ``bus``."""
        ev = obs_events
        bus.subscribe(ev.ChunkDownloaded, self._on_chunk_downloaded)
        bus.subscribe(ev.PlaybackStarted, self._on_playback_started)
        bus.subscribe(ev.StallStart, self._on_stall_start)
        bus.subscribe(ev.StallEnd, self._on_stall_end)
        bus.subscribe(ev.PlaybackEnded, self._on_end)
        bus.subscribe(ev.SessionClosed, self._on_end)

    def _on_chunk_downloaded(self, event: "obs_events.ChunkDownloaded"
                             ) -> None:
        self.record_chunk(ChunkRecord(
            index=event.index, level=event.level, size=event.size,
            duration=event.duration, requested_at=event.requested_at,
            completed_at=event.time, throughput=event.throughput,
            bytes_per_path=dict(event.bytes_per_path),
            deadline=event.deadline,
            buffer_at_request=event.buffer_at_request))

    def _on_playback_started(self, event: "obs_events.PlaybackStarted"
                             ) -> None:
        if self.started_at is None:
            self.started_at = event.time

    def _on_stall_start(self, event: "obs_events.StallStart") -> None:
        self._open_stall = event.time

    def _on_stall_end(self, event: "obs_events.StallEnd") -> None:
        # A recorded stream may end a stall it never started (the
        # stall-pairing checker reports it): skip it, as the collector
        # and the span builder do.
        if self._open_stall is not None:
            self.stalls.append(StallRecord(self._open_stall, event.time))
            self._open_stall = None

    def _on_end(self, event: "obs_events.TraceEvent") -> None:
        self.close(event.time)

    def record_chunk(self, record: ChunkRecord) -> None:
        self.chunks.append(record)

    def close(self, time: float) -> None:
        """Close any open stall at end of session."""
        if self._open_stall is not None:
            self.stalls.append(StallRecord(self._open_stall, time))
            self._open_stall = None

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
        return (f"<PlayerEventLog chunks={len(self.chunks)} "
                f"stalls={len(self.stalls)}>")
