"""One MPTCP subflow: a path plus its TCP state and accounting.

A subflow owns the fluid TCP model for its path, a running throughput
estimator (Holt-Winters by default — the estimator MP-DASH consults as
``R_WiFi`` in Algorithm 1), and byte counters used by the analysis tool and
the energy model.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..estimators.base import ThroughputEstimator
from ..estimators.holt_winters import HoltWinters
from ..net.link import Path
from ..net.tcp import TcpState
from ..obs.bus import EventBus
from ..obs.events import (CwndRestarted, PacketSent, SubflowReconnected,
                          new_packet_sent)


#: Minimum window over which a throughput sample is formed before being fed
#: to the estimator.  One sample per ~RTT mirrors how a receiver-side
#: estimator would see ACK clocking.
MIN_SAMPLE_INTERVAL = 0.05


class Subflow:
    """Transport state of a single path within an MPTCP connection."""

    def __init__(self, path: Path,
                 estimator: Optional[ThroughputEstimator] = None,
                 reconnect_delay: float = 0.0,
                 bus: Optional[EventBus] = None, conn: int = 0):
        """``reconnect_delay`` models the eMPTCP-style alternative to
        MP-DASH's skip-in-scheduler design: tearing the subflow down when
        disabled and re-establishing it on enable, paying a handshake delay
        and a congestion restart each time (§6 argues against this).  Zero
        (the default) gives MP-DASH's skip semantics: the subflow stays
        established and is merely skipped, so re-enabling is free.

        ``bus``/``conn`` make the subflow observable: reconnects and TCP
        idle restarts are published as typed events.
        """
        if reconnect_delay < 0:
            raise ValueError(
                f"reconnect_delay cannot be negative: {reconnect_delay!r}")
        self.path = path
        self.name = path.name
        self.bus = bus
        self.conn = conn
        self.tcp = TcpState(path.rtt)
        if bus is not None:
            # A closure over the bus, not a bound method: the subflow holds
            # its TCP state, so a hook pointing back at it would be a cycle.
            name = self.name
            self.tcp.on_idle_restart = lambda now: bus.publish(
                CwndRestarted(now, name, conn))
        self.estimator = estimator if estimator is not None else HoltWinters()
        self.reconnect_delay = reconnect_delay
        self.total_bytes = 0
        self.reconnects = 0
        self._was_enabled = path.enabled
        self._usable_after = 0.0
        # Sample accumulation for the estimator.
        self._sample_bytes = 0.0
        self._sample_busy = 0.0
        self._sample_interval = max(path.rtt, MIN_SAMPLE_INTERVAL)

    def notice_state(self, now: float) -> None:
        """Track enable/disable transitions for reconnect semantics."""
        enabled = self.path.enabled
        if enabled and not self._was_enabled and self.reconnect_delay > 0:
            # Re-adding a torn-down subflow: handshake plus a fresh window.
            self._usable_after = now + self.reconnect_delay
            self.tcp.reset()
            self.reconnects += 1
            if self.bus is not None:
                self.bus.publish(SubflowReconnected(now, self.name,
                                                    self.reconnects,
                                                    self.conn))
        self._was_enabled = enabled

    def _usable(self, now: float) -> bool:
        return self.path.enabled and now >= self._usable_after

    # ------------------------------------------------------------------
    # Analytic span interface (event-driven kernel)
    # ------------------------------------------------------------------
    @property
    def usable_after(self) -> float:
        """Earliest time a re-established subflow becomes usable again."""
        return self._usable_after

    def time_to_deliver(self, now: float, target_bytes: float,
                        bw: float) -> float:
        """Pure: seconds of continuous sending at bandwidth ``bw`` to
        carry ``target_bytes``."""
        if not self._usable(now):
            return float("inf")
        return self.tcp.time_to_deliver(now, target_bytes, bw)

    def steady_rate(self, now: float, bw: float) -> Optional[float]:
        """Constant delivery rate while provably pinned, else None.

        See :meth:`~repro.net.tcp.TcpState.pinned_rate`; when every
        sender is in steady state, the connection's completion solver
        divides by the summed rate instead of solving over window curves.
        """
        if not self._usable(now):
            return None
        return self.tcp.pinned_rate(now, bw)

    def deliver_analytic(self, start: float, end: float, bw: float,
                         bin_width: float, bins: Dict[str, list],
                         publish: Callable[[PacketSent], None]) -> float:
        """Commit continuous network-limited sending over ``[start, end]``.

        Advances the TCP window in closed form under the span's constant
        bandwidth ``bw`` and feeds the throughput estimator one sample
        per ``_sample_interval`` of busy time (about one per RTT, as ACK
        clocking would).  Returns the total bytes delivered.

        Each delivery step is merged into this path's open activity bin,
        ``bins[name] = [bin_index, first_time, bytes]`` (the connection's
        open-bin dict, in first-emission order); when a step lands in a
        later bin, the closed one is passed to ``publish`` as a
        ``PacketSent``.
        """
        stop = end - 1e-12
        if not start < stop:
            return 0.0
        tcp = self.tcp
        estimator = self.estimator
        name = self.name
        pending = bins.get(name)
        interval = self._sample_interval
        sample_bytes = self._sample_bytes
        sample_busy = self._sample_busy
        account = self.total_bytes
        total = 0.0
        t = start
        index = int(start / bin_width)
        # Once the window is pinned at the ceiling it stays there for the
        # rest of the span (bandwidth is constant within it), so the
        # remainder is linear delivery at ``bw``: walk it one activity
        # bin at a time, folding the estimator's busy-time samples in
        # closed form instead of splitting steps at every sample
        # boundary.  Until then, ramp steps end at each bin and sample
        # boundary.  Only the first step can follow an idle gap, so a
        # pending restart is committed once; later steps are warm.
        pinned = tcp.pinned_rate(start, bw) is not None
        if not pinned:
            tcp.restart_if_idle(start)
            ceiling = tcp.pinned_window(bw)
        while t < stop:
            bin_end = (index + 1) * bin_width
            if pinned:
                step_end = bin_end if bin_end < end else end
                dt = step_end - t
                delta = bw * dt
            else:
                sample_end = t + (interval - sample_busy)
                step_end = min(end, bin_end, sample_end)
                dt = step_end - t
                delta = tcp.advance_warm(t, dt, bw)
            account += delta
            total += delta
            if delta > 0:
                # Always network-limited: the span runs at full potential.
                if pinned:
                    busy = sample_busy + dt
                    if busy >= interval - 1e-12:
                        head = interval - sample_busy
                        estimator.update((sample_bytes + bw * head)
                                         / interval)
                        busy -= interval
                        while busy >= interval - 1e-12:
                            estimator.update(bw)
                            busy -= interval
                        sample_busy = busy if busy > 0.0 else 0.0
                        sample_bytes = bw * sample_busy
                    else:
                        sample_busy = busy
                        sample_bytes += delta
                else:
                    sample_bytes += delta
                    sample_busy += dt
                    if sample_busy >= interval - 1e-12:
                        estimator.update(sample_bytes / sample_busy)
                        sample_bytes = 0.0
                        sample_busy = 0.0
                if pending is None:
                    pending = bins[name] = [index, t, delta]
                elif pending[0] == index:
                    pending[2] += delta
                else:
                    publish(new_packet_sent(pending[1], name, pending[2],
                                            self.conn))
                    pending[0] = index
                    pending[1] = t
                    pending[2] = delta
            t = step_end
            if step_end >= bin_end - 1e-12:
                index += 1
            if not pinned and t < stop and tcp.cwnd == ceiling:
                pinned = True
        if pinned:
            tcp.last_send_time = end
        self._sample_bytes = sample_bytes
        self._sample_busy = sample_busy
        self.total_bytes = account
        return total

    def grow_analytic(self, start: float, end: float, bw: float) -> None:
        """Advance the window over an application-limited span.

        A transfer is active but has nothing sendable (a proxy still
        fetching, the last sub-epsilon residue): the window keeps evolving
        and the send clock stays warm, yet no bytes are delivered and no
        samples are formed — an application-limited span says nothing
        about path capacity.
        """
        if end <= start or not self._usable(start):
            return
        self.tcp.advance_analytic(start, end - start, bw)

    def throughput_estimate(self) -> Optional[float]:
        """Predicted throughput (bytes/second); None before any sample."""
        return self.estimator.predict()

    def __repr__(self) -> str:
        return (f"<Subflow {self.name} total={self.total_bytes / 1e6:.2f}MB "
                f"est={self.throughput_estimate()}>")
