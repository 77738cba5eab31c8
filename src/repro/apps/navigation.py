"""Turn-by-turn navigation tile prefetching over MP-DASH (§8).

"For turn-by-turn navigation, a map tile only needs to be fetched before
the vehicle is close to the tile's location."  A route is a sequence of
tiles with known distances; given the vehicle's speed, each tile has an
arrival time, and its download deadline is that arrival time minus a
look-ahead margin.  The prefetcher walks the route, keeping a small window
of tiles in flight, each armed on the MP-DASH socket with its own deadline
— so on a WiFi-tethered transit ride (or any preferred path) cellular is
touched only when the vehicle outruns the downloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.socket_api import MpDashSocket
from ..mptcp.connection import MptcpConnection, Transfer
from ..net.simulator import Simulator


@dataclass(frozen=True)
class RouteTile:
    """One map tile along the route."""

    name: str
    size: float
    #: Distance from the route start to where the tile is needed (meters).
    distance: float

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"tile size must be positive: {self.size!r}")
        if self.distance < 0:
            raise ValueError(
                f"distance cannot be negative: {self.distance!r}")


@dataclass
class TileResult:
    tile: RouteTile
    needed_at: float
    requested_at: float
    finished_at: Optional[float] = None
    bytes_per_path: Dict[str, float] = field(default_factory=dict)

    @property
    def on_time(self) -> bool:
        return (self.finished_at is not None
                and self.finished_at <= self.needed_at + 1e-6)

    @property
    def cellular_bytes(self) -> float:
        return self.bytes_per_path.get("cellular", 0.0)


class NavigationPrefetcher:
    """Prefetches route tiles before the vehicle reaches them."""

    def __init__(self, sim: Simulator, connection: MptcpConnection,
                 socket: Optional[MpDashSocket], route: List[RouteTile],
                 speed: float, lookahead: float = 10.0):
        """``speed`` is the vehicle speed in meters/second; ``lookahead``
        the safety margin (seconds) by which a tile should land before the
        vehicle reaches it."""
        if not route:
            raise ValueError("route cannot be empty")
        if speed <= 0:
            raise ValueError(f"speed must be positive: {speed!r}")
        if lookahead < 0:
            raise ValueError(
                f"lookahead cannot be negative: {lookahead!r}")
        ordered = sorted(route, key=lambda t: t.distance)
        self.sim = sim
        self.connection = connection
        self.socket = socket
        self.route = ordered
        self.speed = speed
        self.lookahead = lookahead
        self.results: List[TileResult] = []
        self._next_index = 0
        self.finished = False

    def start(self) -> None:
        """Begin driving (time 0 = route start) and fetching tiles."""
        self._fetch_next()

    def _fetch_next(self) -> None:
        if self._next_index >= len(self.route):
            self.finished = True
            return
        tile = self.route[self._next_index]
        self._next_index += 1
        needed_at = tile.distance / self.speed
        deadline = needed_at - self.lookahead - self.sim.now
        result = TileResult(tile=tile, needed_at=needed_at,
                            requested_at=self.sim.now)
        self.results.append(result)
        if self.socket is not None:
            if deadline > 0.5:
                self.socket.mp_dash_enable(tile.size, deadline)
            else:
                # The vehicle is almost there: fetch urgently, all paths.
                self.socket.mp_dash_disable()
        self.connection.start_transfer(
            tile.size, tag=tile.name,
            on_complete=lambda transfer, r=result:
                self._tile_done(r, transfer))

    def _tile_done(self, result: TileResult, transfer: Transfer) -> None:
        result.finished_at = self.sim.now
        result.bytes_per_path = dict(transfer.per_path)
        self._fetch_next()

    # ------------------------------------------------------------------
    @property
    def cellular_bytes(self) -> float:
        return sum(r.cellular_bytes for r in self.results)

    @property
    def total_bytes(self) -> float:
        return sum(sum(r.bytes_per_path.values()) for r in self.results)

    def tiles_on_time(self) -> int:
        return sum(1 for r in self.results if r.on_time)
