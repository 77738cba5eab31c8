"""Binned per-path byte activity log.

Both the radio energy model and the analysis tool consume the transport's
traffic pattern: *when* each interface carried bytes and how many.  The log
aggregates deliveries into fixed-width bins so a ten-minute session
stays small while still resolving the bursts and idle gaps that drive radio
state (the paper's Figure 6 contrasts exactly these patterns).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..obs.bus import EventBus, Handler
from ..obs.events import PacketSent


class ActivityLog:
    """Bytes per path per fixed-width time bin.

    Lives either standalone (tests feed it with :meth:`record`) or as a
    subscriber of the session bus via :meth:`attach`, where it bins every
    :class:`~repro.obs.events.PacketSent` the transport publishes.
    """

    def __init__(self, bin_width: float = 0.1):
        if bin_width <= 0:
            raise ValueError(f"bin_width must be positive: {bin_width!r}")
        self.bin_width = bin_width
        self._bins: Dict[str, Dict[int, float]] = {}

    def attach(self, bus: EventBus, conn: Optional[int] = None) -> Handler:
        """Subscribe to ``PacketSent`` on ``bus``.

        ``conn`` restricts the view to one connection's packets (several
        connections may share a simulator, e.g. behind a splitting proxy).
        Returns the handler so callers can ``bus.unsubscribe`` it.
        """
        # :meth:`record` inlined: this is the hottest subscription in a
        # session (one call per path per activity bin).
        bin_width = self.bin_width
        bins = self._bins
        if conn is None:
            def _on_packet(event: PacketSent) -> None:
                num_bytes = event.num_bytes
                if num_bytes <= 0:
                    return
                per_path = bins.setdefault(event.path, {})
                index = int(event.time / bin_width)
                per_path[index] = per_path.get(index, 0.0) + num_bytes
        else:
            def _on_packet(event: PacketSent) -> None:
                num_bytes = event.num_bytes
                if event.conn != conn or num_bytes <= 0:
                    return
                per_path = bins.setdefault(event.path, {})
                index = int(event.time / bin_width)
                per_path[index] = per_path.get(index, 0.0) + num_bytes
        return bus.subscribe(PacketSent, _on_packet)

    def record(self, time: float, path: str, num_bytes: float) -> None:
        """Record ``num_bytes`` carried by ``path`` at ``time``."""
        if num_bytes <= 0:
            return
        index = int(time / self.bin_width)
        per_path = self._bins.setdefault(path, {})
        per_path[index] = per_path.get(index, 0.0) + num_bytes

    def paths(self) -> List[str]:
        return sorted(self._bins)

    def total_bytes(self, path: str) -> float:
        return sum(self._bins.get(path, {}).values())

    def series(self, path: str, until: float = None) -> Tuple[List[float], List[float]]:
        """Dense (bin_start_times, bytes) series for ``path``.

        Empty bins are filled with zeros so the series is uniform; ``until``
        extends/limits the horizon (defaults to the last non-empty bin).
        """
        per_path = self._bins.get(path, {})
        if not per_path and until is None:
            return [], []
        last = max(per_path) if per_path else 0
        if until is not None:
            last = int(until / self.bin_width)
        times = [i * self.bin_width for i in range(last + 1)]
        values = [per_path.get(i, 0.0) for i in range(last + 1)]
        return times, values

    def bursts(self, path: str, until: float) -> List[Tuple[float, float]]:
        """Sorted ``(bin_start, bytes)`` of the bins up to ``until`` that
        carried bytes.

        The sparse counterpart of :meth:`series`: the same bins and start
        times without the empty ones, for walks that skip empty bins.
        """
        per_path = self._bins.get(path)
        if not per_path:
            return []
        last = int(until / self.bin_width)
        width = self.bin_width
        return [(i * width, num_bytes)
                for i, num_bytes in sorted(per_path.items())
                if 0 <= i <= last and num_bytes > 0]

    def throughput_series(self, path: str, until: float = None
                          ) -> Tuple[List[float], List[float]]:
        """Like :meth:`series` but in bytes/second."""
        times, values = self.series(path, until)
        return times, [v / self.bin_width for v in values]

    def bytes_between(self, path: str, start: float, end: float) -> float:
        """Bytes carried by ``path`` in the half-open window [start, end).

        Both ends snap to the bin that :meth:`record` would file them
        under, and the bin holding ``end`` is left out, so adjacent
        windows ``[a, b)`` and ``[b, c)`` never count a bin twice.
        """
        if end <= start:
            return 0.0
        first = int(start / self.bin_width)
        stop = int(end / self.bin_width)
        per_path = self._bins.get(path, {})
        return sum(per_path.get(i, 0.0) for i in range(first, stop)
                   if per_path.get(i))

    def active_windows(self, path: str, idle_threshold: float
                       ) -> List[Tuple[float, float]]:
        """Merge activity into (start, end) windows separated by idle gaps.

        Two bursts closer than ``idle_threshold`` merge into one window.
        This is the primitive the radio energy model uses to attribute
        active time and tails.
        """
        per_path = self._bins.get(path, {})
        if not per_path:
            return []
        windows: List[Tuple[float, float]] = []
        start = end = None
        for index in sorted(per_path):
            bin_start = index * self.bin_width
            bin_end = bin_start + self.bin_width
            if start is None:
                start, end = bin_start, bin_end
            elif bin_start - end <= idle_threshold:
                end = bin_end
            else:
                windows.append((start, end))
                start, end = bin_start, bin_end
        windows.append((start, end))
        return windows

    def __repr__(self) -> str:
        totals = {p: round(self.total_bytes(p) / 1e6, 2) for p in self.paths()}
        return f"<ActivityLog MB={totals}>"
