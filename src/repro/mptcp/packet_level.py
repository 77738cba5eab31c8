"""Packet-granularity MPTCP download model (cross-validation).

The main transport (``repro.mptcp.connection``) is a fluid model: each
subflow's delivery is the closed-form integral of its window over time.  That is fast enough for the
33-location field study, but it abstracts packet effects — ACK clocking,
queue build-up, drops, retransmissions.  This module implements the same
download at *packet* granularity:

* every packet is an event: it serializes through its path's link at the
  trace rate, crosses the propagation delay, and its ACK returns one RTT
  after the send;
* per-subflow NewReno congestion control: slow start to ``ssthresh``,
  congestion avoidance (+1 MSS per RTT), drops on queue overflow with
  multiplicative decrease and retransmission;
* the minRTT packet scheduler assigns each transmission opportunity, and
  Algorithm 1 runs per ACK (its natural granularity in the kernel) with a
  Holt-Winters estimate fed by ACK-clocked delivery samples.

``tests/test_packet_level.py`` and ``benchmarks/bench_validation.py`` use
it to confirm the fluid model's durations and per-path byte splits — the
quantities every headline result rests on — at packet resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.policy import enabled_prefix, require_positive
from ..estimators.holt_winters import HoltWinters
from ..net.link import Path
from ..net.simulator import Simulator
from ..net.units import PACKET_SIZE

#: Initial window (packets), matching the fluid model's RFC 6928 start.
INITIAL_WINDOW = 10.0

#: Maximum standing queue a path's link may hold before dropping (seconds
#: of serialization); the testbed avoids bufferbloat, so this is small.
MAX_QUEUE_DELAY = 0.12


class _PacketSubflow:
    """Per-path transmission state for the packet model."""

    def __init__(self, path: Path):
        self.path = path
        self.cwnd = INITIAL_WINDOW
        self.ssthresh = float("inf")
        self.in_flight = 0
        self.link_free_at = 0.0
        self.bytes_acked = 0.0
        self.drops = 0
        self.estimator = HoltWinters()
        self._sample_bytes = 0.0
        self._sample_started: Optional[float] = None
        self._recovery_until = 0.0

    @property
    def name(self) -> str:
        return self.path.name

    def window_space(self) -> bool:
        return self.in_flight < int(self.cwnd)

    def on_ack(self, now: float, num_bytes: float) -> None:
        self.in_flight -= 1
        self.bytes_acked += num_bytes
        if self.cwnd < self.ssthresh:
            self.cwnd += 1.0
        else:
            self.cwnd += 1.0 / max(self.cwnd, 1.0)
        self._sample_bytes += num_bytes
        if self._sample_started is None:
            self._sample_started = now - self.path.rtt
        window = now - self._sample_started
        if window >= max(self.path.rtt, 0.05):
            self.estimator.update(self._sample_bytes / window)
            self._sample_bytes = 0.0
            self._sample_started = now

    def on_loss(self, now: float) -> None:
        self.in_flight -= 1
        self.drops += 1
        if now >= self._recovery_until:
            # One multiplicative decrease per RTT of losses.
            self.ssthresh = max(self.cwnd / 2.0, 2.0)
            self.cwnd = self.ssthresh
            self._recovery_until = now + self.path.rtt

    def throughput_estimate(self) -> Optional[float]:
        return self.estimator.predict()


@dataclass
class PacketDownloadResult:
    """Outcome of one packet-level download."""

    duration: float
    bytes_per_path: Dict[str, float]
    drops: Dict[str, int]
    missed_deadline: bool = False
    enable_events: int = 0

    @property
    def total_bytes(self) -> float:
        return sum(self.bytes_per_path.values())

    def fraction_on(self, path: str) -> float:
        total = self.total_bytes
        if total <= 0:
            return 0.0
        return self.bytes_per_path.get(path, 0.0) / total


class PacketLevelDownload:
    """One deadline-(optionally-)bounded download at packet granularity."""

    def __init__(self, sim: Simulator, paths: List[Path], size: float,
                 deadline: Optional[float] = None, alpha: float = 1.0,
                 preferred: str = "wifi", costly: str = "cellular"):
        require_positive(size=size)
        if not paths:
            raise ValueError("need at least one path")
        if deadline is not None:
            require_positive(deadline=deadline)
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1]: {alpha!r}")
        self.sim = sim
        self.size = float(size)
        self.deadline = deadline
        self.alpha = alpha
        self.preferred = preferred
        self.costly = costly
        self.subflows = {p.name: _PacketSubflow(p) for p in paths}
        self._unsent = self.size
        self._acked = 0.0
        self._started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self._costly_enabled = deadline is None
        self.enable_events = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._started_at = self.sim.now
        self._pump()

    @property
    def complete(self) -> bool:
        return self.finished_at is not None

    def result(self) -> PacketDownloadResult:
        if self.finished_at is None:
            raise RuntimeError("download has not finished")
        duration = self.finished_at - (self._started_at or 0.0)
        missed = (self.deadline is not None and duration > self.deadline)
        return PacketDownloadResult(
            duration=duration,
            bytes_per_path={name: sf.bytes_acked
                            for name, sf in self.subflows.items()},
            drops={name: sf.drops for name, sf in self.subflows.items()},
            missed_deadline=missed, enable_events=self.enable_events)

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def _usable(self, subflow: _PacketSubflow) -> bool:
        if subflow.name == self.costly and not self._costly_enabled:
            return False
        return subflow.path.enabled

    def _pump(self) -> None:
        """Fill every usable subflow's window, minRTT first."""
        while self._unsent > 0:
            candidates = [sf for sf in self.subflows.values()
                          if self._usable(sf) and sf.window_space()]
            if not candidates:
                return
            subflow = min(candidates, key=lambda sf: sf.path.rtt)
            self._send_packet(subflow)

    def _send_packet(self, subflow: _PacketSubflow) -> None:
        now = self.sim.now
        size = min(PACKET_SIZE, self._unsent)
        self._unsent -= size
        subflow.in_flight += 1
        rate = max(subflow.path.bandwidth_at(now), 1.0)
        depart = max(now, subflow.link_free_at)
        queue_delay = depart - now
        serialization = size / rate
        subflow.link_free_at = depart + serialization
        if queue_delay > MAX_QUEUE_DELAY:
            # Tail drop: the loss is detected about one RTT later.
            self.sim.schedule(queue_delay + subflow.path.rtt,
                              self._on_loss, subflow, size)
            return
        ack_delay = queue_delay + serialization + subflow.path.rtt
        self.sim.schedule(ack_delay, self._on_ack, subflow, size)

    def _on_loss(self, subflow: _PacketSubflow, size: float) -> None:
        subflow.on_loss(self.sim.now)
        self._unsent += size  # retransmit
        self._pump()

    def _on_ack(self, subflow: _PacketSubflow, size: float) -> None:
        if self.complete:
            return
        now = self.sim.now
        subflow.on_ack(now, size)
        self._acked += size
        if self._acked >= self.size - 0.5:
            self.finished_at = now
            return
        self._run_algorithm1(now)
        self._pump()

    # ------------------------------------------------------------------
    # Algorithm 1, per ACK
    # ------------------------------------------------------------------
    def _run_algorithm1(self, now: float) -> None:
        if self.deadline is None or self._started_at is None:
            return
        elapsed = now - self._started_at
        if elapsed >= self.deadline:
            # Deadline passed: every interface runs from here on.
            if not self._costly_enabled:
                self._costly_enabled = True
                self.enable_events += 1
            return
        preferred = self.subflows.get(self.preferred)
        if preferred is None:
            return
        estimate = preferred.throughput_estimate()
        if estimate is None:
            estimate = preferred.path.bandwidth_at(now)
        _, enable = enabled_prefix((estimate, 0.0), self.size - self._acked,
                                   self.alpha * self.deadline - elapsed)
        if enable and not self._costly_enabled:
            self.enable_events += 1
        self._costly_enabled = enable


def run_packet_download(paths: List[Path], size: float,
                        deadline: Optional[float] = None,
                        alpha: float = 1.0,
                        time_cap: float = 600.0) -> PacketDownloadResult:
    """Convenience wrapper: simulate one download to completion."""
    sim = Simulator()
    download = PacketLevelDownload(sim, paths, size, deadline=deadline,
                                   alpha=alpha)
    download.start()
    while not download.complete and sim.now < time_cap:
        sim.run(until=sim.now + 1.0)
    if not download.complete:
        raise RuntimeError(
            f"packet-level download did not finish within {time_cap}s")
    return download.result()
