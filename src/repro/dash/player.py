"""The DASH video player.

Drives the whole client side: asks the ABR algorithm for each chunk's
quality level, issues HTTP GETs, fills the playback buffer, drains it while
playing, and records the event log the analysis tool consumes.

The player knows nothing about multipath — MPTCP is transparent to it, as
in reality.  MP-DASH slots in through the :class:`PlayerAddon` hook (the
video adapter of §5): the addon may inject a transport-level throughput
override before each rate decision and arm the deadline scheduler once the
chunk's Content-Length is known.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..abr.base import AbrAlgorithm, AbrContext
from ..net.simulator import Simulator, Timer
from ..obs.events import (PlaybackEnded, PlaybackStarted, QualitySwitched,
                          StallEnd, StallStart, new_chunk_downloaded,
                          new_chunk_requested, new_mp_dash_armed,
                          new_mp_dash_skipped)
from .buffer import PlaybackBuffer
from .events import ChunkRecord, PlayerEventLog
from .http import HttpClient, HttpResponse
from .manifest import Manifest


def _synced() -> None:
    """The sync of a buffer whose player has closed: nothing drains."""


class _LazyDrainBuffer(PlaybackBuffer):
    """A playback buffer whose occupancy commits lazily.

    Between syncs the true occupancy is ``_level - (now - synced_at)``;
    every public read first calls ``sync`` (the owning player's
    :meth:`DashPlayer._sync_playout`) so external readers (the MP-DASH
    adapter, ABR contexts, tests) always observe the drained value.  The
    player itself reads ``_level`` directly after syncing.
    """

    def __init__(self, capacity: float, sync: Callable[[], None]):
        super().__init__(capacity)
        self._sync = sync

    def detach(self) -> None:
        """Freeze the occupancy at its last commit and drop the player's
        sync, the back-pointer that made player and buffer a cycle."""
        self._sync = _synced

    @property
    def level(self) -> float:
        self._sync()
        return self._level

    @property
    def free(self) -> float:
        self._sync()
        return max(0.0, self.capacity - self._level)

    @property
    def empty(self) -> bool:
        self._sync()
        return self._level <= 1e-9

    def fits(self, seconds: float) -> bool:
        self._sync()
        return super().fits(seconds)


class PlayerAddon:
    """Hook points the MP-DASH video adapter implements.

    The default implementations are no-ops, so a player without MP-DASH is
    exactly a vanilla DASH player over vanilla MPTCP.
    """

    def throughput_override(self, player: "DashPlayer") -> Optional[float]:
        """Transport-level throughput to feed the ABR, or None."""
        return None

    def on_chunk_request(self, player: "DashPlayer", level: int,
                         size: float) -> Optional[float]:
        """Called with the resolved Content-Length before the body transfer.

        Returns the armed deadline window in seconds, or None when MP-DASH
        stays disabled for this chunk.
        """
        return None

    def on_chunk_downloaded(self, player: "DashPlayer",
                            record: ChunkRecord) -> None:
        """Called after each chunk lands."""


class DashPlayer:
    """An adaptive-streaming client over one HTTP connection."""

    def __init__(self, sim: Simulator, client: HttpClient,
                 manifest: Manifest, abr: AbrAlgorithm,
                 addon: Optional[PlayerAddon] = None,
                 buffer_capacity: float = 40.0,
                 startup_threshold: Optional[float] = None,
                 resume_threshold: Optional[float] = None):
        """The playout clock drains the buffer lazily against the
        simulated clock and schedules exact wakeups for the only
        autonomous transitions a draining buffer has — running empty
        (stall or playback end) and draining far enough for the next
        chunk to fit.
        """
        if buffer_capacity < 2 * manifest.chunk_duration:
            raise ValueError(
                f"buffer capacity {buffer_capacity}s too small for "
                f"{manifest.chunk_duration}s chunks")
        self.sim = sim
        self.client = client
        self.manifest = manifest
        self.abr = abr
        self.addon = addon if addon is not None else PlayerAddon()
        self.buffer = _LazyDrainBuffer(buffer_capacity, self._sync_playout)
        default_threshold = min(2 * manifest.chunk_duration,
                                buffer_capacity / 2)
        self.startup_threshold = (startup_threshold if startup_threshold
                                  is not None else default_threshold)
        self.resume_threshold = (resume_threshold if resume_threshold
                                 is not None else default_threshold)
        # The player narrates the session onto the bus; its event log is
        # just the first subscriber (the analyzer-facing view).
        self.bus = sim.bus
        self.log = PlayerEventLog()
        self.log.attach(self.bus)
        self.buffer_samples: List[Tuple[float, float]] = []

        self._next_index = 0
        self._current_level: Optional[int] = None
        self._outstanding = False
        self._playing = False
        self._stalled = False
        self._downloads_done = False
        self.finished = False
        # Playout state: the single wakeup timer, the instant the buffer
        # occupancy was last committed, and a reentrancy guard (a sync may
        # publish events whose subscribers read the buffer back).
        self._timer: Optional[Timer] = None
        self._synced_at = 0.0
        self._syncing = False

    # ------------------------------------------------------------------
    # Session control
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the session: request chunk 0 and start the playout clock."""
        if self._timer is not None:
            raise RuntimeError("player already started")
        self._timer = Timer(self.sim, self._on_wake)
        self._synced_at = self.sim.now
        self._maybe_request()

    def close(self) -> None:
        """End the session: commit the playout up to now, then release the
        wakeup timer and the buffer's back-pointer, so the player sits in
        no reference cycle.  ``buffer`` keeps reading the committed
        occupancy; nothing drains afterwards."""
        self._sync_playout()
        self.buffer.detach()
        if self._timer is not None:
            self._timer.release()

    @property
    def in_startup(self) -> bool:
        return not self._playing

    @property
    def current_level(self) -> Optional[int]:
        return self._current_level

    @property
    def next_chunk_index(self) -> int:
        return self._next_index

    # ------------------------------------------------------------------
    # Chunk requests
    # ------------------------------------------------------------------
    def _maybe_request(self) -> None:
        if (self._outstanding or self._downloads_done or self.finished
                or self._next_index >= self.manifest.num_chunks):
            return
        if not self.buffer.fits(self.manifest.chunk_duration):
            return  # wait for playback to drain; the wakeup re-checks
        level = self._choose_level()
        index = self._next_index
        self._outstanding = True
        url = self.manifest.chunk_url(level, index)
        requested_at = self.sim.now
        buffer_at_request = self.buffer.level
        self.bus.publish(new_chunk_requested(requested_at, index, level,
                                             buffer_at_request))

        deadline_holder = {}

        def before_transfer(response: HttpResponse) -> None:
            size = float(response.content_length)
            deadline = self.addon.on_chunk_request(self, level, size)
            deadline_holder["deadline"] = deadline
            if deadline is not None:
                self.bus.publish(new_mp_dash_armed(self.sim.now, index,
                                                   deadline))
            else:
                self.bus.publish(new_mp_dash_skipped(self.sim.now, index))

        def on_complete(response: HttpResponse) -> None:
            if not response.ok:
                raise RuntimeError(f"chunk request failed: {url}")
            self._on_chunk_done(response, index, level, requested_at,
                                buffer_at_request,
                                deadline_holder.get("deadline"))

        self.client.get(url, on_complete, before_transfer)

    def _choose_level(self) -> int:
        if self._next_index == 0:
            level = self.abr.initial_level(self.manifest)
        else:
            ctx = self._make_context()
            level = self.abr.choose_level(ctx)
        if not 0 <= level < self.manifest.num_levels:
            raise ValueError(
                f"ABR {self.abr.name!r} chose invalid level {level}")
        return level

    def _make_context(self) -> AbrContext:
        last = self.log.chunks[-1] if self.log.chunks else None
        return AbrContext(
            manifest=self.manifest,
            buffer_level=self.buffer.level,
            buffer_capacity=self.buffer.capacity,
            next_chunk_index=self._next_index,
            current_level=self._current_level,
            measured_throughput=last.throughput if last else None,
            override_throughput=self.addon.throughput_override(self),
            history=self.log.chunks,
            in_startup=self.in_startup,
        )

    def _on_chunk_done(self, response: HttpResponse, index: int, level: int,
                       requested_at: float, buffer_at_request: float,
                       deadline: Optional[float]) -> None:
        self._sync_playout()
        now = self.sim.now
        transfer = response.transfer
        elapsed = max(now - requested_at, 1e-9)
        if self._current_level is not None and level != self._current_level:
            self.bus.publish(QualitySwitched(now, self._current_level,
                                             level))
        self._current_level = level
        self.bus.publish(new_chunk_downloaded(
            now, index=index, level=level,
            size=float(response.content_length),
            duration=self.manifest.chunk_duration,
            requested_at=requested_at,
            throughput=float(response.content_length) / elapsed,
            bytes_per_path=dict(transfer.per_path) if transfer else {},
            deadline=deadline, buffer_at_request=buffer_at_request))
        # The log subscriber just materialized the canonical ChunkRecord.
        record = self.log.chunks[-1]
        self.buffer.add(self.manifest.chunk_duration)
        self.abr.on_chunk_downloaded(record)
        self.addon.on_chunk_downloaded(self, record)

        self._outstanding = False
        self._next_index = index + 1
        if self._next_index >= self.manifest.num_chunks:
            self._downloads_done = True
        if not self._playing and self.buffer.level >= self.startup_threshold:
            self._begin_playback()
        if self._downloads_done and not self._playing:
            # Very short videos: everything buffered before startup fired.
            self._begin_playback()
        if self._stalled and (self.buffer.level >= self.resume_threshold
                              or (self._downloads_done
                                  and self.buffer.level > 0)):
            # Chunk arrivals are the only refills, so the stall ends
            # exactly here.
            self._stalled = False
            self.bus.publish(StallEnd(now))
        self._maybe_request()
        self._predict_playout()

    def _begin_playback(self) -> None:
        self._playing = True
        self.bus.publish(PlaybackStarted(self.sim.now))

    def _end_playback(self) -> None:
        self.finished = True
        self.bus.publish(PlaybackEnded(self.sim.now))
        self._timer.cancel()

    # ------------------------------------------------------------------
    # Playout clock
    # ------------------------------------------------------------------
    # While playing, buffer occupancy is a known linear function of time
    # (drain rate exactly 1); between chunk arrivals the only autonomous
    # transitions are the buffer running empty and a blocked request
    # starting to fit.  Both instants are computed exactly and armed on a
    # single :class:`Timer`; everything else happens at chunk arrivals.

    def _sync_playout(self) -> None:
        """Commit the continuous drain since the last sync."""
        if self._timer is None or self._syncing:
            return
        now = self.sim.now
        dt = now - self._synced_at
        if dt <= 0:
            return
        self._syncing = True
        try:
            self._synced_at = now
            if self.finished or not self._playing or self._stalled:
                return
            self.buffer.drain(dt)
            self.buffer_samples.append((now, self.buffer._level))
            if self.buffer._level <= 1e-9:
                # The wakeup lands exactly on the empty instant, so the
                # stall (or the end of playback) starts at ``now``.
                if self._downloads_done:
                    self._end_playback()
                else:
                    self._stalled = True
                    self.bus.publish(StallStart(now))
        finally:
            self._syncing = False

    def _on_wake(self) -> None:
        self._sync_playout()
        self._maybe_request()
        self._predict_playout()

    def _predict_playout(self) -> None:
        """Arm the timer at the next autonomous playout transition."""
        if self._timer is None:
            return
        if self.finished:
            self._timer.cancel()
            return
        if not self._playing or self._stalled:
            # Occupancy can only change via chunk arrivals; nothing to
            # wake for.
            self._timer.set(None)
            return
        level = self.buffer._level
        target = self._synced_at + level  # runs empty: stall or end
        if (not self._outstanding and not self._downloads_done
                and self._next_index < self.manifest.num_chunks
                and not self.buffer.fits(self.manifest.chunk_duration)):
            # A blocked request unblocks once one chunk's worth drains.
            fits_at = self._synced_at + (
                level + self.manifest.chunk_duration - self.buffer.capacity)
            if fits_at < target:
                target = fits_at
        self._timer.set(target)

    def __repr__(self) -> str:
        return (f"<DashPlayer video={self.manifest.video_name!r} "
                f"abr={self.abr.name} chunk={self._next_index}/"
                f"{self.manifest.num_chunks} buffer={self.buffer.level:.1f}s>")
