"""The MPTCP connection: subflow management, transfers, and the control hook.

This module plays the role of the paper's patched MPTCP stack.  A
:class:`MptcpConnection` owns one :class:`~repro.mptcp.subflow.Subflow` per
path, advances them in closed form between predicted decision points
(the event-driven kernel below), and exposes the two cross-layer interfaces
§3.2 describes:

* *downward*: a pluggable :class:`PathController` (the MP-DASH deadline-aware
  scheduler) that may enable/disable paths at every kernel wakeup.
  Decisions travel to the
  server over a delayed :class:`~repro.mptcp.options.SignalChannel`, modeling
  the reserved DSS-option bit.
* *upward*: ``aggregate_throughput_estimate()``, the throughput the MP-DASH
  adapter feeds to throughput-based DASH algorithms (a player cannot see all
  paths on its own because MPTCP is transparent to it).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence

from ..estimators.base import ThroughputEstimator
from ..net.link import Path
from ..net.simulator import Simulator, Timer
# ``integrate_window`` is unused here but stays importable from this
# module: perfbench's tracer test looks the kernel up at this name.
from ..net.tcp import WindowCurve, integrate_window  # noqa: F401
from ..obs.events import (PathStateRequested, SubflowStateChange,
                          new_packet_sent, new_transfer_completed,
                          new_transfer_started)
from .activity import ActivityLog
from .options import SignalChannel
from .subflow import Subflow

#: Completion slack for float byte accounting.
_EPSILON = 0.5


#: Newton rounds before the completion solver gives up on a band.
_NEWTON_ROUNDS = 50


def _delivered(curves: Sequence[WindowCurve], t: float) -> float:
    """Combined bytes by ``t``, summed in sender order."""
    total = 0.0
    for curve in curves:
        total += curve.bytes_at(t)
    return total


def _certified_band(curves: Sequence[WindowCurve], span: float,
                    sendable: float, tolerance: float,
                    reach: float) -> tuple:
    """``(left, right)`` around the instant ``sendable`` bytes have landed.

    Every time below ``left`` provably delivers less than ``sendable`` and
    every time in ``(right, span]`` provably delivers at least that, so a
    bisection over ``[0, span]`` needs exact evaluations only inside the
    band and reaches the same bracket bit for bit.

    Newton's method estimates the root from the right end.  The summed
    curve is convex, so each tangent undershoots it and the iterates fall
    toward the root without passing it.  Two exact evaluations then
    certify the band's edges, with a margin far above the curves'
    accumulated rounding error, so that the float evaluation's ulp-scale
    non-monotonicity cannot flip a comparison outside the band.  Returns
    ``(-inf, inf)``, exact evaluation everywhere, when either step fails.
    ``reach`` is ``_delivered(curves, span)``, which the caller has at
    hand.
    """
    guard = tolerance / 1000.0
    # Thousands of ulps of the largest byte count the sums hold, yet far
    # below the ~guard * rate bytes a converged estimate leaves.
    margin = (sendable + sum(curve.cap for curve in curves)) * 2.0 ** -40
    root = span
    excess = reach - sendable
    if excess > 0.0:
        for _ in range(_NEWTON_ROUNDS):
            rate = sum(curve.rate_at(root) for curve in curves)
            if not rate > 0.0:
                return -math.inf, math.inf
            step = excess / rate
            root -= step
            if abs(step) <= guard / 4.0:
                break
            excess = _delivered(curves, root) - sendable
        else:
            return -math.inf, math.inf
        root = max(root, 0.0)
    left, right = root - guard, root + guard
    if left > 0.0 and not _delivered(curves, left) < sendable - margin:
        return -math.inf, math.inf
    if right < span and not _delivered(curves, right) >= sendable + margin:
        return -math.inf, math.inf
    return left, right


class _SpanPlan:
    """Each sender's inputs over the span that starts at watermark ``t0``,
    and what the kernel has proved about that span.

    A sender is an enabled subflow usable at ``t0``.  Its bandwidth and
    next trace breakpoint are read once, and its :class:`WindowCurve` is
    built on first use, so the prediction made at a watermark and the
    advance that follows it share one set of inputs.  ``boundary`` is
    the earliest instant any of them can change: a sender's breakpoint,
    or a re-established subflow becoming usable.

    What the kernel proves about the span (the rate ceiling, the summed
    steady rate, the last potential evaluated, the last certified band
    and the lone sender's delivery time) is a function of those same
    inputs, so it lives and dies with the curves: the advance that lands
    on a predicted completion re-runs only the bisection.
    """

    __slots__ = ("t0", "senders", "rates", "boundary", "_ceiling",
                 "_curves", "_reach", "_steady", "_band", "_alone")

    def __init__(self, t0: float, subflows: Sequence[Subflow]):
        self.t0 = t0
        boundary = math.inf
        senders = []
        rates = []
        for sf in subflows:
            path = sf.path
            if not path.enabled:
                continue
            after = sf.usable_after
            if t0 < after:
                if after < boundary:
                    boundary = after
                continue
            change = path.next_change(t0)
            if change < boundary:
                boundary = change
            senders.append(sf)
            rates.append(path.bandwidth_at(t0))
        self.senders: List[Subflow] = senders
        self.rates: List[float] = rates
        self.boundary = boundary
        # No window delivers faster than its path's bandwidth, so the
        # summed rate bounds the potential; the factor covers the curves'
        # rounding and summation order.
        self._ceiling = sum(rates) * (1.0 + 1e-9)
        self._curves: Optional[List[WindowCurve]] = None
        # ``(span, potential(span))`` of the last evaluation.
        self._reach: Optional[tuple] = None
        self._steady: Optional[float] = None
        # ``(sendable, left, right)`` of the last completion solve.
        self._band: Optional[tuple] = None
        # ``(sendable, seconds)`` of the lone sender's last delivery time.
        self._alone: Optional[tuple] = None

    def curves(self) -> List[WindowCurve]:
        """Each sender's delivery curve from ``t0``, in sender order."""
        curves = self._curves
        if curves is None:
            t0 = self.t0
            curves = self._curves = [
                sf.tcp.window_curve(t0, bw)
                for sf, bw in zip(self.senders, self.rates)]
        return curves

    def potential(self, span: float) -> float:
        """Combined bytes the senders could carry in ``span`` seconds."""
        reach = self._reach
        if reach is None or reach[0] != span:
            reach = self._reach = (span, _delivered(self.curves(), span))
        return reach[1]

    def falls_short(self, span: float, threshold: float) -> bool:
        """``potential(span) < threshold``, proved without evaluating the
        curves where the plan already knows the answer.

        The rate ceiling proves a shortfall, so such a span builds no
        curve.  A certified band for at least ``threshold`` bytes proves
        the opposite for any span past its right edge.
        """
        if self._ceiling * span < threshold:
            return True
        band = self._band
        if band is not None and span > band[2] and threshold <= band[0]:
            return False
        return self.potential(span) < threshold

    def steady_rate(self) -> float:
        """The senders' summed rate when every one is pinned, else -1."""
        total = self._steady
        if total is None:
            t0 = self.t0
            total = 0.0
            for sf, bw in zip(self.senders, self.rates):
                rate = sf.steady_rate(t0, bw)
                if rate is None:
                    total = -1.0
                    break
                total += rate
            self._steady = total
        return total

    def time_to_deliver(self, sendable: float) -> float:
        """Seconds the first sender alone takes to carry ``sendable``."""
        alone = self._alone
        if alone is None or alone[0] != sendable:
            alone = self._alone = (sendable, self.senders[0].time_to_deliver(
                self.t0, sendable, self.rates[0]))
        return alone[1]

    def band(self, span: float, sendable: float,
             tolerance: float) -> tuple:
        """A certified ``(left, right)`` band around ``sendable``'s root.

        Proved once per ``sendable``: the edges bound the curves' values,
        not the span, so a band certified for one span holds for any.  A
        right edge the solve could not certify (``right >= span``) is
        kept as ``inf``, which settles no midpoint of a longer span.
        """
        band = self._band
        if band is None or band[0] != sendable:
            left, right = _certified_band(self.curves(), span, sendable,
                                          tolerance, self.potential(span))
            if right >= span:
                right = math.inf
            band = self._band = (sendable, left, right)
        return band[1], band[2]


class Transfer:
    """One request/response exchange (e.g. a video chunk download)."""

    def __init__(self, total_bytes: float, tag: str = "",
                 on_complete: Optional[Callable[["Transfer"], None]] = None):
        if total_bytes <= 0:
            raise ValueError(f"transfer size must be positive: {total_bytes!r}")
        #: Position in the owning connection's request sequence (assigned
        #: by ``start_transfer``; 0 for a standalone transfer).  Together
        #: with the connection id this names the transfer in trace events.
        self.id = 0
        self.tag = tag
        self.total_bytes = float(total_bytes)
        self.bytes_done = 0.0
        self._available: Optional[float] = None
        #: Invalidation hook: the event-driven kernel plants a callback
        #: here while the transfer is active, because a change in sender-
        #: side availability moves the predicted completion time.
        self._on_available_change: Optional[Callable[[], None]] = None
        self.per_path: Dict[str, float] = {}
        self.requested_at: Optional[float] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.on_complete = on_complete

    @property
    def available(self) -> Optional[float]:
        """When set, only this many bytes exist at the sender so far (a
        proxy still fetching from the origin); None = all available."""
        return self._available

    @available.setter
    def available(self, value: Optional[float]) -> None:
        if value == self._available:
            return
        notify = self._on_available_change
        if notify is not None:
            notify()  # settle deliveries under the old limit first
        self._available = value
        if notify is not None:
            notify()  # then re-predict completion under the new one

    @property
    def remaining(self) -> float:
        return max(0.0, self.total_bytes - self.bytes_done)

    @property
    def sendable(self) -> float:
        """Bytes the sender may put on the wire right now."""
        if self.available is None:
            return self.remaining
        return max(0.0, min(self.remaining,
                            self.available - self.bytes_done))

    @property
    def complete(self) -> bool:
        return self.remaining <= _EPSILON

    def add(self, path: str, num_bytes: float) -> None:
        self.bytes_done += num_bytes
        self.per_path[path] = self.per_path.get(path, 0.0) + num_bytes

    def duration(self) -> Optional[float]:
        """Request-to-last-byte latency, once finished."""
        if self.finished_at is None or self.requested_at is None:
            return None
        return self.finished_at - self.requested_at

    def throughput(self) -> Optional[float]:
        """Application-observed download throughput (bytes/second)."""
        elapsed = self.duration()
        if not elapsed:
            return None
        return self.total_bytes / elapsed

    def fraction_on(self, path: str) -> float:
        if self.bytes_done <= 0:
            return 0.0
        return self.per_path.get(path, 0.0) / self.bytes_done

    def __repr__(self) -> str:
        return (f"<Transfer #{self.id} {self.tag!r} "
                f"{self.bytes_done / 1e6:.2f}/{self.total_bytes / 1e6:.2f}MB>")


class PathController(ABC):
    """Per-wakeup hook deciding path enablement (the MP-DASH control point)."""

    @abstractmethod
    def on_tick(self, now: float, transfer: Optional[Transfer],
                connection: "MptcpConnection") -> Optional[Dict[str, bool]]:
        """Return desired enabled-state per path name, or None for no-op."""

    def on_transfer_start(self, now: float, transfer: Transfer,
                          connection: "MptcpConnection") -> None:
        """Called when a transfer's data starts flowing."""

    def on_transfer_complete(self, now: float, transfer: Transfer,
                             connection: "MptcpConnection") -> None:
        """Called when a transfer finishes."""

    def next_decision(self, now: float, transfer: Optional[Transfer],
                      connection: "MptcpConnection") -> Optional[float]:
        """Absolute time of this controller's next scheduled evaluation.

        :meth:`on_tick` runs at every kernel wakeup (transfer
        start/completion, trace breakpoints, signal arrivals) rather than
        on a fixed clock.  A controller whose decision can flip *between*
        those points — e.g. a deadline crossing — returns the time it
        wants to be woken; ``None`` means the natural wakeups suffice.  A
        controller that needs dense polling returns ``now`` plus its
        polling interval.
        """
        return None


class MptcpConnection:
    """A multipath TCP connection over simulated paths."""

    def __init__(self, sim: Simulator, paths: Sequence[Path],
                 tick_interval: float = 0.01,
                 estimator_factory: Optional[Callable[[], ThroughputEstimator]] = None,
                 signaling_delay: Optional[float] = None,
                 activity_bin: float = 0.1,
                 subflow_reestablish: bool = False):
        """The connection predicts its next decision point (transfer
        completion, trace breakpoint, signal arrival, controller wakeup),
        schedules exactly one event there, and advances each subflow in
        closed form across the quiescent interval.

        ``tick_interval`` is the controllers' time resolution: the MP-DASH
        scheduler never asks for a wakeup sooner than one interval ahead,
        and keeps two intervals plus the signaling delay as a safety
        margin before a deadline.

        ``subflow_reestablish`` switches from MP-DASH's skip-in-scheduler
        semantics to the add/remove-subflow alternative: disabled paths are
        torn down and pay a 1.5-RTT handshake plus a congestion restart
        when re-enabled (the §6 design-choice ablation).
        """
        if not paths:
            raise ValueError("an MPTCP connection needs at least one path")
        names = [p.name for p in paths]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate path names: {names}")
        self.id = sim.next_id()
        self.sim = sim
        self.bus = sim.bus
        self.tick_interval = tick_interval
        self.subflows: List[Subflow] = [
            Subflow(p, estimator_factory() if estimator_factory else None,
                    reconnect_delay=(1.5 * p.rtt if subflow_reestablish
                                     else 0.0),
                    bus=self.bus, conn=self.id)
            for p in paths
        ]
        self._by_name = {sf.name: sf for sf in self.subflows}
        self.controller: Optional[PathController] = None
        self.activity = ActivityLog(activity_bin)
        self.activity.attach(self.bus, conn=self.id)
        self._bin_width = self.activity.bin_width
        # Last *effective* (server-side) and last *requested* (client-side)
        # state per path, for flip detection on the bus.
        self._effective = {p.name: p.enabled for p in paths}
        self._requested = {p.name: p.enabled for p in paths}
        # Open PacketSent aggregates: path -> [bin_index, first_time,
        # bytes].  Flushed when the path's deliveries cross into the next
        # activity bin, and on close().
        self._open_bins: Dict[str, list] = {}
        # The primary path carries the DSS signaling; default delay one
        # primary-path RTT (pass 0 to study instantaneous signaling).
        self.primary = self.subflows[0]
        if signaling_delay is None:
            signaling_delay = self.primary.path.rtt
        self.signaling_delay = signaling_delay
        self._signals: Dict[str, SignalChannel] = {
            sf.name: SignalChannel(sf.path.enabled, signaling_delay)
            for sf in self.subflows
        }
        # True once ``path_state`` has popped a value off a channel that
        # differs from the applied one (see ``_apply_signals``).
        self._unapplied = False
        self._queue: Deque[Transfer] = deque()
        self._transfer_count = 0
        self._active: Optional[Transfer] = None
        # The transfer waiting out its request RTT before data flows.
        self._activating: Optional[Transfer] = None
        self._closed = False
        # True while inside a kernel callback (controller step, predict)
        # where the watermark is known current: readers skip re-syncing.
        self._stepping = False
        self._timer = Timer(sim, self._wake)
        # Watermark: subflow state is exact as of this instant; spans up
        # to ``sim.now`` are advanced lazily on demand.
        self._advanced_to = sim.now
        self._advancing = False
        # Cached completion prediction (absolute time), invalidated by any
        # event that changes delivery rates or the byte goal.
        self._completion: Optional[float] = None
        # The span plan at the watermark it was built for; dropped when
        # the delivering set changes without the watermark moving.
        self._plan: Optional[_SpanPlan] = None

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def start_transfer(self, total_bytes: float, tag: str = "",
                       on_complete: Optional[Callable[[Transfer], None]] = None
                       ) -> Transfer:
        """Issue a request for ``total_bytes``; data flows one RTT later."""
        transfer = Transfer(total_bytes, tag, on_complete)
        self._transfer_count += 1
        transfer.id = self._transfer_count
        transfer.requested_at = self.sim.now
        self._queue.append(transfer)
        if self._active is None:
            self._activate_next()
        return transfer

    def _activate_next(self) -> None:
        if (self._active is not None or self._activating is not None
                or not self._queue):
            return
        transfer = self._queue.popleft()
        self._activating = transfer
        # HTTP request + first response byte: one primary-path RTT.
        delay = max(0.0, transfer.requested_at + self.primary.path.rtt
                    - self.sim.now)
        self.sim.schedule(delay, self._begin, transfer)

    def _begin(self, transfer: Transfer) -> None:
        self._activating = None
        if self._closed:
            return
        self._advance_to(self.sim.now)
        transfer.started_at = self.sim.now
        self._active = transfer
        self.bus.publish(new_transfer_started(
            self.sim.now, transfer.id, transfer.tag, transfer.total_bytes,
            self.id))
        if self.controller is not None:
            self.controller.on_transfer_start(self.sim.now, transfer, self)
        transfer._on_available_change = self._on_available_bump
        self._completion = None
        self._controller_step()
        self._predict()

    @property
    def active_transfer(self) -> Optional[Transfer]:
        return self._active

    @property
    def busy(self) -> bool:
        return (self._active is not None or self._activating is not None
                or bool(self._queue))

    # ------------------------------------------------------------------
    # Path control (client decision -> delayed server enforcement)
    # ------------------------------------------------------------------
    def request_path_state(self, name: str, enabled: bool) -> None:
        """Client-side decision; takes effect after the signaling delay."""
        if name not in self._signals:
            raise KeyError(f"unknown path {name!r}")
        if enabled != self._requested[name]:
            self._requested[name] = enabled
            self.bus.publish(PathStateRequested(self.sim.now, name, enabled,
                                                self.id))
        self._signals[name].send(self.sim.now, enabled)
        # The arrival of this signal is a decision point: re-predict so the
        # kernel wakes exactly when the server-side state flips.  During a
        # controller step the wake's trailing predict covers every signal
        # sent in the batch; re-predicting per call would triple the
        # prediction work for nothing.
        if not (self._closed or self._advancing or self._stepping):
            self._advance_to(self.sim.now)
            self._predict()

    def path_state(self, name: str) -> bool:
        """Server-side effective enabled-state of ``name`` right now."""
        enabled = self._signals[name].current(self.sim.now)
        if enabled != self._effective[name]:
            # Popped off the channel but not applied yet: the next
            # ``_apply_signals`` must not skip it.
            self._unapplied = True
        return enabled

    def path_capacity(self, name: str) -> float:
        """Instantaneous post-throttle link capacity (bytes/second).

        Ground truth from the trace, not an estimate.  Controllers use it
        only to decide *when* to re-evaluate (the estimator lags reality
        after a capacity change); decisions themselves stay estimate-based.
        """
        return self.subflow(name).path.bandwidth_at(self.sim.now)

    def subflow(self, name: str) -> Subflow:
        try:
            return self._by_name[name]
        except KeyError:
            known = ", ".join(sorted(self._by_name))
            raise KeyError(f"unknown path {name!r} (known: {known})") from None

    def path_names(self) -> List[str]:
        return [sf.name for sf in self.subflows]

    # ------------------------------------------------------------------
    # Cross-layer estimates (the upward interface of §3.2)
    # ------------------------------------------------------------------
    def throughput_estimate(self, name: str) -> Optional[float]:
        """Estimated throughput of one subflow (bytes/second)."""
        if not self._stepping:
            self._sync_state()
        return self.subflow(name).throughput_estimate()

    def aggregate_throughput_estimate(self) -> Optional[float]:
        """Sum of per-subflow estimates across *all* paths.

        Includes currently disabled paths: the player should see the overall
        available network resources, not just what MP-DASH happens to be
        using this instant.  A disabled path feeds its estimator no
        samples, so it contributes its level: a falling trend, frozen,
        would forecast 0 forever and lock the path out.
        """
        if not self._stepping:
            self._sync_state()
        estimates = [sf.throughput_estimate() if sf.path.enabled
                     else sf.estimator.level() for sf in self.subflows]
        known = [e for e in estimates if e is not None]
        if not known:
            return None
        return sum(known)

    def _finish(self, transfer: Transfer) -> None:
        # The last byte lands at the watermark (the solved completion
        # instant), which normally coincides with ``sim.now`` because the
        # wakeup was scheduled there.
        now = self._advanced_to
        transfer.finished_at = now
        transfer._on_available_change = None
        self._active = None
        self._completion = None
        self.bus.publish(new_transfer_completed(
            now, transfer.id, transfer.tag, transfer.total_bytes,
            transfer.duration() or 0.0, self.id))
        if self.controller is not None:
            self.controller.on_transfer_complete(now, transfer, self)
        # One-shot: dropped once it fires, so the transfer stops pinning
        # the requester's closure (which usually holds the transfer).
        on_complete, transfer.on_complete = transfer.on_complete, None
        if on_complete is not None:
            on_complete(transfer)
        self._activate_next()

    # ------------------------------------------------------------------
    # Event-driven analytic kernel
    # ------------------------------------------------------------------
    # The connection keeps a watermark ``_advanced_to``: every subflow's
    # TCP window, estimator, and byte counters are exact as of that
    # instant.  Between decision points nothing is scheduled; when a
    # wakeup (or any external reader) needs current state, the span since
    # the watermark is advanced in closed form, split only at the
    # boundaries across which delivery rates are constant: bandwidth-trace
    # breakpoints, signal (DSS option) arrivals, reconnect completions,
    # and the solved transfer-completion instant.

    def sync(self) -> None:
        """Advance lazy subflow state to ``sim.now`` and re-predict.

        External readers (e.g. the 1 Hz ``PathSampler``) call this before
        inspecting cwnd or estimates.
        """
        self._sync_state()
        self._predict()

    def _sync_state(self) -> None:
        if not self._closed:
            self._advance_to(self.sim.now)

    def _wake(self) -> None:
        """The single scheduled decision-point event."""
        self._advance_to(self.sim.now)
        self._stepping = True
        try:
            self._controller_step()
            self._predict()
        finally:
            self._stepping = False

    def _controller_step(self) -> None:
        if self.controller is None or self._closed:
            return
        previous = self._stepping
        self._stepping = True
        try:
            desired = self.controller.on_tick(self.sim.now, self._active,
                                              self)
            if desired:
                for name, enabled in desired.items():
                    self.request_path_state(name, enabled)
        finally:
            self._stepping = previous

    def _on_available_bump(self) -> None:
        """Sender-side availability changed (proxy fetch progress).

        Called twice by the :class:`Transfer` setter: once before the new
        value is applied (settling deliveries under the old limit) and
        once after (re-predicting completion under the new one); both
        calls are idempotent.
        """
        if self._closed or self._advancing:
            return
        self._advance_to(self.sim.now)
        self._completion = None
        self._predict()

    def _apply_signals(self, now: float) -> None:
        """Apply in-flight enable/disable decisions effective by ``now``."""
        if not self._unapplied and self._next_signal_arrival() > now:
            # Every channel's value is applied and none arrives by
            # ``now``: the loop below would change nothing.
            return
        self._unapplied = False
        for subflow in self.subflows:
            enabled = self._signals[subflow.name].current(now)
            subflow.path.enabled = enabled
            if enabled != self._effective[subflow.name]:
                self._effective[subflow.name] = enabled
                # The delivering set changed: any cached completion
                # prediction and span plan are void.
                self._completion = None
                self._plan = None
                self.bus.publish(SubflowStateChange(now, subflow.name,
                                                    enabled, self.id))
            subflow.notice_state(now)

    def _next_signal_arrival(self) -> float:
        # Peeks the channels' queues directly: this runs on every sync
        # precheck, so the next_arrival() call-and-None-check per channel
        # is measurable overhead.
        earliest = math.inf
        for channel in self._signals.values():
            queue = channel._in_flight
            if queue and queue[0][0] < earliest:
                earliest = queue[0][0]
        return earliest

    def _advance_to(self, target: float) -> None:
        """Advance all subflow state from the watermark to ``target``.

        Walks quiescent spans: within each span the enabled set and every
        path's bandwidth are constant, so each subflow's delivery is a
        closed-form integral.  Completion is solved exactly inside the
        span that satisfies the transfer.
        """
        if self._advancing:
            return
        if (self._advanced_to >= target
                and self._next_signal_arrival() > target):
            # Already exact at ``target`` with nothing to apply: skip the
            # walk entirely.  Readers like ``throughput_estimate`` sync on
            # every call, so this no-op path is by far the most common.
            return
        self._advancing = True
        try:
            while True:
                t0 = self._advanced_to
                if t0 >= target - 1e-12:
                    # Snap the sub-tolerance sliver: a signal arrival at
                    # exactly ``target`` must drain even when the solved
                    # watermark stopped a few ulps short of it, or the
                    # prediction loop re-arms the same instant forever.
                    if target > t0:
                        self._advanced_to = t0 = target
                    self._apply_signals(t0)
                    break
                # Apply before advancing: an arrival landing exactly on
                # the watermark must take effect even on a no-op sync.
                self._apply_signals(t0)
                active = self._active
                t_sig = self._next_signal_arrival()
                if active is None:
                    self._advanced_to = min(target, t_sig)
                    continue
                # Bound the span by everything that can change a rate.
                plan = self._span_plan(t0)
                t1 = target if target < t_sig else t_sig
                if plan.boundary < t1:
                    t1 = plan.boundary
                senders = plan.senders
                rates = plan.rates
                span = t1 - t0
                sendable = active.sendable
                if not senders or sendable <= _EPSILON:
                    # Application-limited (or no usable path): windows keep
                    # evolving but nothing is delivered.  Sub-epsilon
                    # residues count as nothing: chasing them would predict
                    # zero-length completion spans forever (``complete``
                    # itself allows the same slack).
                    for sf, bw in zip(senders, rates):
                        sf.grow_analytic(t0, t1, bw)
                    if t1 < target:
                        self._completion = None
                    self._advanced_to = t1
                    continue
                if plan.falls_short(span, sendable - _EPSILON):
                    # The whole span flows at full potential.
                    t_end = t1
                    if t1 < target:
                        self._completion = None
                else:
                    # Everything sendable fits in this span: solve the
                    # exact instant the last byte lands and stop the flow
                    # there.
                    t_end = t0 + self._solve_span(plan, span, sendable)
                bins = self._open_bins
                publish = self.bus.publish
                for sf, bw in zip(senders, rates):
                    delivered = sf.deliver_analytic(
                        t0, t_end, bw, self._bin_width, bins, publish)
                    active.add(sf.name, delivered)
                self._advanced_to = t_end
                if active.complete:
                    self._finish(active)
                # Otherwise, after a solved span, the sender is starved
                # (proxy still fetching); the next iteration advances
                # application-limited.
        finally:
            self._advancing = False

    def _span_plan(self, t0: float) -> _SpanPlan:
        """The span plan at watermark ``t0``, built once per watermark."""
        plan = self._plan
        if plan is None or plan.t0 != t0:
            plan = self._plan = _SpanPlan(t0, self.subflows)
        return plan

    def _solve_span(self, plan: _SpanPlan, span: float,
                    sendable: float) -> float:
        """Seconds into the plan's span at which combined delivery =
        sendable."""
        if len(plan.senders) == 1:
            return min(plan.time_to_deliver(sendable), span)
        # Steady state: every sender pinned at its ceiling means delivery
        # is linear at the combined rate — solve by division, not search.
        total_rate = plan.steady_rate()
        if total_rate > 0.0:
            return min(sendable / total_rate, span)
        # Bisection over the combined delivery integral, converged when
        # the bracket is tighter than the completion slack in bytes (the
        # same ``_EPSILON`` the byte accounting uses).  Each sender's
        # (idle-restarted) curve comes from the plan; a certified band
        # around the root settles every midpoint outside it by one
        # comparison.  The band depends on the curves, not on the span,
        # so the advance reuses the one its prediction proved.
        curves = plan.curves()
        floor_rate = 0.0
        for curve in curves:
            floor_rate += curve.floor_rate
        tolerance = max(1e-12, _EPSILON / max(floor_rate, 1.0))
        left, right = plan.band(span, sendable, tolerance)
        lo, hi = 0.0, span
        for _ in range(80):
            mid = (lo + hi) / 2.0
            if mid < left:
                lo = mid
            elif mid > right:
                hi = mid
            elif _delivered(curves, mid) >= sendable:
                hi = mid
            else:
                lo = mid
            if hi - lo <= tolerance:
                break
        return hi

    def _predict(self) -> None:
        """Schedule the single wakeup at the next decision point."""
        if self._closed or self._advancing:
            return
        t_next = self._next_signal_arrival()
        active = self._active
        if active is not None and active.started_at is not None:
            plan = self._span_plan(self._advanced_to)
            if plan.boundary < t_next:
                t_next = plan.boundary
            sendable = active.sendable
            if plan.senders and sendable > _EPSILON:
                if self._completion is None:
                    self._completion = self._predict_completion(
                        plan, sendable, t_next)
                if self._completion is not None and self._completion < t_next:
                    t_next = self._completion
            if self.controller is not None:
                wanted = self.controller.next_decision(self.sim.now, active,
                                                       self)
                if wanted is not None and wanted < t_next:
                    t_next = wanted
        self._timer.set(t_next if math.isfinite(t_next) else None)

    def _predict_completion(self, plan: _SpanPlan, sendable: float,
                            bound: float) -> Optional[float]:
        """Solve when the active transfer's sendable bytes finish landing.

        Only valid while rates stay quiescent, so the solution is capped
        at ``bound`` (the nearest rate-changing boundary); past it the
        prediction is left uncached and re-solved at that boundary's
        wakeup.  Returns an absolute time or None.
        """
        now = plan.t0
        senders = plan.senders
        if len(senders) == 1:
            finish = now + plan.time_to_deliver(sendable)
            return finish if finish <= bound else None
        if math.isinf(bound):
            # Bracket with the fastest path carrying everything alone.
            alone = min(sf.time_to_deliver(now, sendable, bw)
                        for sf, bw in zip(senders, plan.rates))
            if math.isinf(alone):
                return None
            span = alone
        else:
            span = bound - now
            if plan.falls_short(span, sendable):
                return None
        return now + self._solve_span(plan, span, sendable)

    def flush_activity(self) -> None:
        """Publish any open per-path ``PacketSent`` aggregates.

        Until a path's deliveries cross into the next activity bin, its
        current bin rides in the connection; callers reading the activity
        log mid-session should flush first.  :meth:`close` does this
        automatically.
        """
        for name, pending in self._open_bins.items():
            if pending[2] > 0:
                self.bus.publish(new_packet_sent(pending[1], name,
                                                 pending[2], self.id))
        self._open_bins.clear()

    def close(self) -> None:
        """Stop the kernel (ends the connection's simulation activity).

        Transfers still in flight are abandoned: their completion
        callbacks and kernel hooks are released, as is the wakeup timer's
        hold on this connection, so a closed connection sits in no
        reference cycle.  Idempotent.
        """
        if self._closed:
            return
        self._sync_state()
        self._timer.release()
        self.flush_activity()
        self._closed = True
        for transfer in (*self._queue, self._activating, self._active):
            if transfer is not None:
                transfer.on_complete = None
                transfer._on_available_change = None

    def __repr__(self) -> str:
        return (f"<MptcpConnection paths={self.path_names()} "
                f"busy={self.busy}>")
