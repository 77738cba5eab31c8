"""The deadline-aware MP-DASH scheduler (Algorithm 1 of the paper).

Given a chunk of size ``S`` and a download window ``D``, the scheduler
drives the preferred (cheapest) path at full capacity and keeps the costlier
paths off; after every scheduling step it re-checks whether the preferred
path alone can still deliver the remaining bytes before the (α-shrunk)
deadline, enabling the next-costlier path when it cannot and disabling it
again when it can:

    enable  iff (α·D − timeSpent) · R_preferred < S − sentBytes
    disable iff (α·D − timeSpent) · R_preferred > S − sentBytes

``α ≤ 1`` trades cellular bytes for deadline safety: smaller α targets an
earlier virtual deadline, compensating for throughput-estimation error.

The N-path generalization (§4, "cost-varying version") sorts interfaces by
cost and finds the smallest prefix whose combined predicted throughput can
meet the deadline, enabling exactly that prefix
(:func:`~repro.core.policy.enabled_prefix`, the one rule the slot model and
the packet model also run).  With two paths this reduces to Algorithm 1
verbatim.

This class plugs into :class:`~repro.mptcp.connection.MptcpConnection` as a
:class:`~repro.mptcp.connection.PathController`; enable/disable decisions
therefore incur the DSS signaling delay, as in the kernel implementation.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ..mptcp.connection import MptcpConnection, PathController, Transfer
from ..obs.events import DeadlineMissed, SchedulerActivated
from .policy import Preference, enabled_prefix, require_positive


class Activation:
    """State of one MP_DASH_ENABLE activation (one chunk download)."""

    __slots__ = ("size", "window", "started_at", "transfer_id", "missed")

    def __init__(self, size: float, window: float, started_at: float,
                 transfer_id: int):
        self.size = size
        self.window = window
        self.started_at = started_at
        self.transfer_id = transfer_id
        self.missed = False

    def deadline(self) -> float:
        return self.started_at + self.window


class DeadlineAwareScheduler(PathController):
    """Online deadline-aware path controller (Algorithm 1, N-path form)."""

    def __init__(self, preference: Preference, alpha: float = 1.0):
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1]: {alpha!r}")
        self.preference = preference
        self.alpha = alpha
        self._pending: Optional[tuple] = None  # (size, window)
        self._activation: Optional[Activation] = None
        # The connection this controller steers; bound explicitly by
        # MpDashSocket and lazily by the PathController hooks, so that
        # disarm() can restore path state even between transfers.
        self._connection: Optional[MptcpConnection] = None
        # Statistics across the controller's lifetime.
        self.activations = 0
        self.deadline_misses = 0
        self.enable_events = 0
        self.disable_events = 0

    # ------------------------------------------------------------------
    # Socket-option front-end (used by MpDashSocket)
    # ------------------------------------------------------------------
    def arm(self, size: float, window: float) -> None:
        """MP_DASH_ENABLE: activate for the next ``size`` bytes."""
        require_positive(size=size, window=window)
        self._pending = (size, window)

    def bind(self, connection: MptcpConnection) -> None:
        """Remember the connection this controller steers."""
        self._connection = connection

    def disarm(self) -> None:
        """MP_DASH_DISABLE: deactivate explicitly.

        Deactivated MP-DASH means vanilla MPTCP (§3.1): every path must
        come back, exactly as in :meth:`on_transfer_complete` — without
        the restore the connection stays wedged on whatever subset the
        last activation happened to request.
        """
        self._pending = None
        self._activation = None
        if self._connection is not None:
            for name in self._connection.path_names():
                self._connection.request_path_state(name, True)

    @property
    def active(self) -> bool:
        return self._activation is not None

    # ------------------------------------------------------------------
    # PathController interface
    # ------------------------------------------------------------------
    def on_transfer_start(self, now: float, transfer: Transfer,
                          connection: MptcpConnection) -> None:
        self._connection = connection
        if self._pending is None:
            return
        size, window = self._pending
        self._pending = None
        self._activation = Activation(size, window, now, transfer.id)
        self.activations += 1
        connection.bus.publish(SchedulerActivated(now, transfer.id, size,
                                                  window))

    def on_transfer_complete(self, now: float, transfer: Transfer,
                             connection: MptcpConnection) -> None:
        activation = self._activation
        if activation is None or activation.transfer_id != transfer.id:
            return
        # Deactivation condition (1): S bytes successfully transferred.
        # Deactivated MP-DASH means vanilla MPTCP: every path available.
        self._activation = None
        for name in connection.path_names():
            connection.request_path_state(name, True)

    def on_tick(self, now: float, transfer: Optional[Transfer],
                connection: MptcpConnection) -> Optional[Dict[str, bool]]:
        self._connection = connection
        activation = self._activation
        if activation is None or transfer is None:
            return None
        if activation.transfer_id != transfer.id:
            return None

        # Deactivation condition (2): the deadline has passed.  From then on
        # every interface is used (the transfer is already late).
        if now >= activation.deadline():
            if not activation.missed:
                activation.missed = True
                self.deadline_misses += 1
                connection.bus.publish(DeadlineMissed(now, transfer.id))
            self._activation = None
            desired = {name: True for name in connection.path_names()}
            self._count_flips(connection, desired)
            return desired

        remaining, time_left = self._budget(now, activation, transfer,
                                            connection)
        desired = self._desired_states(connection, remaining, time_left)
        self._count_flips(connection, desired)
        return desired

    def next_decision(self, now: float, transfer: Optional[Transfer],
                      connection: MptcpConnection) -> Optional[float]:
        """Predict when the Algorithm 1 condition next flips.

        Between kernel wakeups every quantity in the enable/disable test
        moves linearly: the time budget shrinks at rate 1 and the
        remaining bytes at the current aggregate delivery rate ``r``.  For
        each cost-ordered prefix with predicted capacity ``C`` the
        condition ``(A - t)·C >= R - r·t`` therefore crosses at

            t = (R - A·C) / (r - C)

        (one formula covers both directions).  The earliest positive
        crossing, the activation deadline, and — while any estimator is
        still cold — a short bootstrap poll are candidate wakeups; the
        kernel re-evaluates :meth:`on_tick` there with fresh state, so an
        inaccurate linear prediction costs one extra wakeup, never a wrong
        decision.
        """
        activation = self._activation
        if (activation is None or transfer is None
                or activation.transfer_id != transfer.id):
            return None
        deadline = activation.deadline()
        if now >= deadline:
            return None
        earliest = deadline
        floor = now + connection.tick_interval
        remaining, budget = self._budget(now, activation, transfer,
                                         connection)
        names = self._ordered_names(connection)
        estimates = []
        cold = False
        rate = 0.0
        for name in names:
            estimate = connection.throughput_estimate(name)
            if estimate is None:
                cold = True
                estimate = 0.0
            estimates.append(estimate)
            if connection.path_state(name):
                rate += estimate
        if cold:
            # Estimators warm within a sample interval; poll until the
            # first real capacity numbers exist.
            earliest = min(earliest, now + 0.1)
        else:
            # The linear crossing below assumes the estimates hold still.
            # After a link-capacity change they do not: the estimator
            # drifts toward the new rate one sample at a time, and the
            # enable condition can flip long before the stale-estimate
            # crossing.  While any delivering path's estimate disagrees
            # with its instantaneous capacity, check whether the *decision*
            # would differ under ground-truth capacities: if so a flip is
            # imminent as samples arrive, so poll at sample cadence (the
            # estimator cannot converge faster, so no decision a dense
            # poll would have made is missed).  If the decisions agree,
            # the drift is cosmetic — a coarse safety poll suffices, which
            # is what keeps wandering-trace (mobility) workloads from
            # waking at 20 Hz through every download.
            drifting = False
            actuals = []
            for name, estimate in zip(names, estimates):
                actual = connection.path_capacity(name)
                actuals.append(actual)
                if (connection.path_state(name) and estimate > 0.0
                        and abs(estimate - actual)
                        > 0.25 * max(actual, estimate)):
                    drifting = True
            if drifting:
                if (enabled_prefix(estimates, remaining, budget)
                        != enabled_prefix(actuals, remaining, budget)):
                    earliest = min(earliest, now + 0.05)
                else:
                    earliest = min(earliest, now + 0.25)
        capacity = 0.0
        for estimate in estimates[:-1]:
            capacity += estimate
            denominator = rate - capacity
            if denominator == 0.0:
                continue
            crossing = (remaining - max(budget, 0.0) * capacity) / denominator
            if crossing > 0.0 and math.isfinite(crossing):
                candidate = max(now + crossing, floor)
                if candidate < earliest:
                    earliest = candidate
        return max(earliest, floor)

    # ------------------------------------------------------------------
    # Decision core
    # ------------------------------------------------------------------
    def _budget(self, now: float, activation: Activation, transfer: Transfer,
                connection: MptcpConnection) -> Tuple[float, float]:
        """Algorithm 1's remaining bytes and time left for ``activation``.

        A decision made now reaches the server one signaling delay (plus
        up to two decision intervals) later; budget for it, otherwise a
        just-in-time cellular enable lands after the deadline.
        """
        remaining = activation.size - min(transfer.bytes_done,
                                          activation.size)
        guard = connection.signaling_delay + 2.0 * connection.tick_interval
        return remaining, (self.alpha * activation.window
                           - (now - activation.started_at) - guard)

    def _desired_states(self, connection: MptcpConnection, remaining: float,
                        time_left: float) -> Dict[str, bool]:
        """Algorithm 1's enabled prefix under the current estimates.

        A cold estimator counts as a path that contributes nothing, which
        errs toward enabling costlier paths (conservative, same spirit as
        alpha < 1).
        """
        names = self._ordered_names(connection)
        rates = []
        for name in names:
            estimate = connection.throughput_estimate(name)
            rates.append(0.0 if estimate is None else estimate)
        return dict(zip(names, enabled_prefix(rates, remaining, time_left)))

    def _ordered_names(self, connection: MptcpConnection) -> List[str]:
        known = set(connection.path_names())
        ordered = [n for n in self.preference.order if n in known]
        missing = known - set(ordered)
        if missing:
            raise KeyError(
                f"connection has paths outside the preference: "
                f"{sorted(missing)} (preference {self.preference.order})")
        return ordered

    def _count_flips(self, connection: MptcpConnection,
                     desired: Dict[str, bool]) -> None:
        for name, enabled in desired.items():
            current = connection.path_state(name)
            if enabled and not current:
                self.enable_events += 1
            elif not enabled and current:
                self.disable_events += 1

    def __repr__(self) -> str:
        state = "active" if self.active else "idle"
        return (f"<DeadlineAwareScheduler {state} alpha={self.alpha} "
                f"pref={self.preference.order}>")
