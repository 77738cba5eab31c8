"""Discrete-event simulation kernel.

The kernel is deliberately small: a binary-heap event queue, a simulated
clock, and helpers for periodic processes.  Everything else in the package
(TCP dynamics, MPTCP scheduling, the DASH player) is built as callbacks
scheduled on a :class:`Simulator`.

Events fire in timestamp order; ties break in scheduling order, which keeps
runs fully deterministic.

The simulator also owns the session's :class:`~repro.obs.bus.EventBus`:
every layer built on top publishes its typed trace events there, so one
``sim.bus`` handle reaches the whole stack's event stream.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

from ..obs.bus import EventBus


class SimulationError(RuntimeError):
    """Raised when the simulation is driven into an invalid state."""


#: Heaps smaller than this are never compacted: the scan costs more than
#: the garbage.
MIN_COMPACT_SIZE = 64


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`.

    Events may be cancelled; a cancelled event stays in the heap but is
    skipped when popped (lazy deletion).  The owning simulator counts its
    cancelled entries and compacts the heap when they dominate, so
    repeated schedule/cancel cycles (timeouts that almost never fire)
    cannot grow the queue without bound.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_sim")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} {state} {self.callback!r}>"


class Simulator:
    """Discrete-event simulator with a monotonically advancing clock."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[Event] = []
        self._seq = itertools.count()
        self._running = False
        self._cancelled = 0
        self._ids = itertools.count(1)
        #: The session-wide typed event stream (see :mod:`repro.obs`).
        self.bus = EventBus()

    def next_id(self) -> int:
        """Draw from the run-scoped id sequence (connection ids etc.).

        Per-simulator rather than process-global so that two runs of the
        same configuration name their objects identically — the property
        that makes exported traces byte-identical across runs.
        """
        return next(self._ids)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay!r}")
        event = Event(self.now + delay, next(self._seq), callback, args)
        event._sim = self
        heapq.heappush(self._heap, event)
        return event

    def call_every(self, interval: float, callback: Callable[..., Any],
                   *args: Any) -> "PeriodicProcess":
        """Run ``callback(*args)`` every ``interval`` seconds until stopped."""
        return PeriodicProcess(self, interval, callback, args)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Process events in order.

        Runs until the queue is empty, or until the clock would pass
        ``until`` (the clock is then advanced exactly to ``until``).
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        # Local bindings shave attribute lookups off the hot loop; compact()
        # rebuilds the heap in place so the alias stays valid.
        heap = self._heap
        heappop = heapq.heappop
        try:
            while heap:
                event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    event._sim = None
                    self._cancelled -= 1
                    continue
                if until is not None and event.time > until:
                    break
                heappop(heap)
                event._sim = None
                if event.time < self.now - 1e-12:
                    raise SimulationError(
                        f"event at {event.time} is behind clock {self.now}")
                self.now = max(self.now, event.time)
                event.callback(*event.args)
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False

    def close(self) -> None:
        """End the session: drop every pending event and bus subscriber.

        Each dropped event is cancelled and releases its callback and
        arguments, and the bus forgets its handlers, so no back-pointer into the layers built
        on this simulator outlives the session (see "Session lifetime" in
        ``docs/architecture.md``).  The clock keeps its final value.
        """
        for event in self._heap:
            event.cancelled = True
            event._sim = None
            event.callback = None
            event.args = ()
        self._heap.clear()
        self._cancelled = 0
        self.bus.clear()

    # ------------------------------------------------------------------
    # Heap hygiene
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        self._cancelled += 1
        if (len(self._heap) >= MIN_COMPACT_SIZE
                and 2 * self._cancelled > len(self._heap)):
            self.compact()

    def compact(self) -> None:
        """Drop cancelled entries and re-heapify.

        Ordering is unaffected: live events keep their ``(time, seq)``
        keys, so the pop order after compaction is identical.
        """
        if self._cancelled == 0:
            return
        # In place (not a rebind) so aliases held by the run loop stay live.
        self._heap[:] = [e for e in self._heap if not e.cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0


class PeriodicProcess:
    """A callback re-armed every ``interval`` seconds.

    The first firing happens one interval from creation.  ``stop()`` halts
    the process; it can be restarted with ``start()``.
    """

    def __init__(self, sim: Simulator, interval: float,
                 callback: Callable[..., Any], args: tuple):
        if interval <= 0:
            raise SimulationError(f"interval must be positive: {interval!r}")
        self._sim = sim
        self.interval = interval
        self._callback = callback
        self._args = args
        self._event: Optional[Event] = None
        self.start()

    @property
    def active(self) -> bool:
        return self._event is not None

    def start(self) -> None:
        if self._event is None:
            self._event = self._sim.schedule(self.interval, self._fire)

    def stop(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        # Re-arm first so the callback may call stop() to halt the process.
        self._event = self._sim.schedule(self.interval, self._fire)
        self._callback(*self._args)


class Timer:
    """A single re-targetable wakeup that avoids heap churn.

    The event-driven kernel re-predicts its next decision point on every
    state change, which would naively mean one cancel + one push per
    prediction.  A :class:`Timer` keeps exactly one outstanding heap entry:

    * moving the target *earlier* pushes a fresh event (the stale one is
      cancelled and lazily dropped);
    * moving it *later* — the overwhelmingly common case, as predictions
      are refined while downloads progress — touches nothing; the stale
      event fires, notices the target has moved, and re-arms itself at the
      true target.

    One-shot semantics: after the callback runs, the timer is disarmed
    until :meth:`set` is called again (typically by the callback itself).
    """

    __slots__ = ("_sim", "_callback", "_event", "_target")

    def __init__(self, sim: Simulator, callback: Callable[[], Any]):
        self._sim = sim
        self._callback = callback
        self._event: Optional[Event] = None
        self._target: Optional[float] = None

    @property
    def target(self) -> Optional[float]:
        """Absolute time of the pending wakeup, or None when disarmed."""
        return self._target

    @property
    def active(self) -> bool:
        return self._target is not None

    def set(self, time: Optional[float]) -> None:
        """Arm (or re-target) the wakeup at absolute simulated ``time``.

        ``None`` disarms.  Times at or before the clock fire as soon as the
        run loop resumes.
        """
        if time is None:
            self.cancel()
            return
        self._target = time
        if self._event is not None and not self._event.cancelled:
            if self._event.time <= time:
                return  # the pending event fires first and re-arms lazily
            self._event.cancel()
        delay = time - self._sim.now
        self._event = self._sim.schedule(delay if delay > 0.0 else 0.0,
                                         self._fire)

    def cancel(self) -> None:
        """Disarm.  Idempotent."""
        self._target = None
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def release(self) -> None:
        """Disarm for good and drop the callback.

        The callback is usually a bound method of the timer's owner, which
        in turn holds the timer: releasing breaks that cycle when the
        owner closes.  A released timer must not be set again.
        """
        self.cancel()
        self._callback = None

    def _fire(self) -> None:
        self._event = None
        target = self._target
        if target is None:
            return
        if target > self._sim.now + 1e-9:
            # The target moved later after this event was pushed; re-arm.
            self._event = self._sim.schedule(target - self._sim.now,
                                             self._fire)
            return
        self._target = None
        self._callback()
