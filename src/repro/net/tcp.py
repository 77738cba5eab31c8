"""Fluid-flow model of a single TCP subflow's sending rate.

The full packet-level behaviour of TCP is not needed to reproduce MP-DASH:
what matters to the paper's results is the *shape* of per-path throughput
over time —

* slow-start ramp at connection start and after idle periods (DASH traffic
  is on/off, so every chunk download after a buffer-full gap restarts from
  a reduced window; this is why the throttling baseline of Table 4 "dribbles"
  and why MP-DASH's burst-then-idle pattern is radio-energy friendly),
* congestion-avoidance tracking of the available bandwidth, and
* immediate rate collapse when the trace drops (the driver of cellular
  re-enablement in Algorithm 1).

We therefore model each subflow with a congestion window evolving in
continuous time: exponential growth below the bandwidth-delay product
(slow start), additive growth above it up to a small queue allowance
(congestion avoidance), and window restart after an idle period longer than
the retransmission timeout, per RFC 2861's congestion-window validation.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from .units import PACKET_SIZE


#: Initial congestion window, bytes (10 segments, RFC 6928).
INITIAL_CWND = 10 * PACKET_SIZE

#: How much standing queue (as a fraction of BDP) the window may build
#: before the model stops growing it.  Small, because the paper's testbed is
#: explicitly configured to avoid bufferbloat.
QUEUE_ALLOWANCE = 0.25

#: Minimum retransmission timeout; idle longer than max(RTO, 2*RTT) causes a
#: window restart.
MIN_RTO = 0.2

_LN2 = math.log(2.0)


def integrate_window(cwnd: float, ssthresh: float, rtt: float, bw: float,
                     dt_limit: float = math.inf,
                     bytes_limit: float = math.inf) -> tuple:
    """Integrate the fluid window in closed form under constant bandwidth.

    Starting from ``(cwnd, ssthresh)``, run the same dynamics as
    :meth:`TcpState.advance` in their continuous (dt → 0) limit until either
    ``dt_limit`` seconds elapse or ``bytes_limit`` bytes have been delivered,
    whichever comes first.  Returns ``(bytes, elapsed, cwnd, ssthresh)``.

    The trajectory decomposes into at most four phases, each with an exact
    bytes-delivered integral and an exact inverse:

    1. *Slow start* below ``min(ssthresh, bdp)``: the window doubles once
       per RTT, so ``F(t) = c0 * (2**(t/rtt) - 1) / ln 2``.
    2. *Congestion avoidance* below the BDP: linear window growth of one
       segment per RTT, ``F(t) = (c0*t + PACKET_SIZE*t**2/(2*rtt)) / rtt``.
    3. *Queue-filling* between the BDP and the ceiling: the delivery rate is
       pinned at ``bw`` while the window keeps growing linearly.
    4. *Pinned* at the ceiling: ``F(t) = bw * t`` forever.

    A window above the ceiling (the trace dropped) collapses immediately:
    :meth:`TcpState.advance` halves it toward the ceiling over a few
    steps, but the delivered bytes are identical either way because the
    rate is already clipped to ``bw``, so the continuous limit is an
    instant drop.

    ``elapsed`` is ``math.inf`` when ``bytes_limit`` can never be reached
    (zero bandwidth).  The function is pure; callers apply idle-restart
    before integrating (see :meth:`TcpState.window_after_restart`).
    """
    # ``min``/``max`` are spelled out as the comparisons they make (the
    # first argument unless the second is strictly smaller or larger):
    # this runs once per ramp step.
    bdp = bw * rtt
    ceiling = bdp * (1.0 + QUEUE_ALLOWANCE)
    cap = INITIAL_CWND if INITIAL_CWND > ceiling else ceiling
    c = cwnd
    if c > cap:
        c = cap
        ssthresh = INITIAL_CWND if INITIAL_CWND > c else c
    delivered = 0.0
    elapsed = 0.0

    # Phase 1: slow start (rate = c/rtt, window doubles per RTT).
    target = bdp if bdp < ssthresh else ssthresh
    if elapsed < dt_limit and delivered < bytes_limit and c < target:
        tau = rtt * math.log2(target / c)
        rest = dt_limit - elapsed
        if rest < tau:
            tau = rest
        budget = bytes_limit - delivered
        tau_bytes = rtt * math.log2(1.0 + budget * _LN2 / c)
        if tau_bytes < tau:
            tau = tau_bytes
        growth = 2.0 ** (tau / rtt)
        delivered += c * (growth - 1.0) / _LN2
        c = c * growth
        if target < c:
            c = target
        elapsed += tau

    # Phase 2: congestion avoidance below the BDP (rate = c/rtt, linear
    # growth of one segment per RTT).
    if elapsed < dt_limit and delivered < bytes_limit and c < bdp:
        tau = (bdp - c) * rtt / PACKET_SIZE
        rest = dt_limit - elapsed
        if rest < tau:
            tau = rest
        budget = bytes_limit - delivered
        half_a = PACKET_SIZE / (2.0 * rtt)
        tau_bytes = ((math.sqrt(c * c + 4.0 * half_a * budget * rtt) - c)
                     / (2.0 * half_a))
        if tau_bytes < tau:
            tau = tau_bytes
        delivered += (c * tau + half_a * tau * tau) / rtt
        c = c + PACKET_SIZE * tau / rtt
        if bdp < c:
            c = bdp
        elapsed += tau

    # Phase 3: between the BDP and the ceiling the rate is pinned at bw but
    # the window still grows (the standing-queue allowance filling up).
    if elapsed < dt_limit and delivered < bytes_limit and c < ceiling:
        tau = (ceiling - c) * rtt / PACKET_SIZE
        rest = dt_limit - elapsed
        if rest < tau:
            tau = rest
        if bw > 0:
            rest = (bytes_limit - delivered) / bw
            if rest < tau:
                tau = rest
        delivered += bw * tau
        c = c + PACKET_SIZE * tau / rtt
        if ceiling < c:
            c = ceiling
        elapsed += tau

    # Phase 4: pinned at the ceiling; rate = bw, no further growth.
    if elapsed < dt_limit and delivered < bytes_limit:
        if math.isfinite(dt_limit):
            tau = dt_limit - elapsed
            if bw > 0:
                rest = (bytes_limit - delivered) / bw
                if rest < tau:
                    tau = rest
            delivered += bw * tau
            elapsed += tau
        elif bw > 0:
            tau = (bytes_limit - delivered) / bw
            delivered += bw * tau
            elapsed += tau
        else:
            elapsed = math.inf

    return delivered, elapsed, c, ssthresh


class WindowCurve:
    """One sender's delivery curve under constant bandwidth, hoisted.

    Built once from ``(cwnd, ssthresh, rtt, bw)``, it precomputes the end
    time, delivered bytes and window of each growth phase that
    :func:`integrate_window` would run in full (slow start, congestion
    avoidance, queue fill).  :meth:`bytes_at` then repeats
    ``integrate_window(cwnd, ssthresh, rtt, bw, dt_limit=t)[0]``'s
    floating-point expressions in the same order, so it returns the same
    bits; only the phase that ``t`` cuts short does any arithmetic.
    ``t`` must be finite.

    :meth:`rate_at` is the analytic delivery rate, the curve's slope.  It
    never decreases with ``t`` (the window only grows, and the rate is
    clipped at ``bw``), so the curve is convex.
    """

    __slots__ = ("rtt", "bw", "cap", "floor_rate", "_cwnd", "_limits",
                 "_phases")

    def __init__(self, cwnd: float, ssthresh: float, rtt: float,
                 bw: float):
        self.rtt = rtt
        self.bw = bw
        #: Delivery rate at ``t = 0`` before the above-ceiling collapse:
        #: the completion solver's tolerance scale.
        self.floor_rate = min(cwnd / rtt, bw)
        bdp = bw * rtt
        ceiling = bdp * (1.0 + QUEUE_ALLOWANCE)
        #: The largest window the curve can reach, bytes.
        self.cap = max(ceiling, INITIAL_CWND)
        c = cwnd
        if c > self.cap:
            c = self.cap
            ssthresh = max(c, INITIAL_CWND)
        self._cwnd = c
        self._limits = (min(ssthresh, bdp), bdp, ceiling)
        # Each phase that runs, as run to its end with no time limit:
        # (phase, duration, end time, bytes at end, window at end).
        phases = []
        elapsed = delivered = 0.0
        for phase in range(3):
            if c < self._limits[phase]:
                tau = self._duration(phase, c)
                delivered, c = self._grow(phase, tau, delivered, c)
                elapsed += tau
                phases.append((phase, tau, elapsed, delivered, c))
        self._phases = tuple(phases)

    def _duration(self, phase: int, c: float) -> float:
        """Seconds phase ``phase`` takes to carry window ``c`` to its limit."""
        if phase == 0:
            return self.rtt * math.log2(self._limits[0] / c)
        return (self._limits[phase] - c) * self.rtt / PACKET_SIZE

    def _grow(self, phase: int, tau: float, delivered: float,
              c: float) -> Tuple[float, float]:
        """``(delivered, window)`` after ``tau`` more seconds of ``phase``."""
        rtt = self.rtt
        if phase == 0:
            growth = 2.0 ** (tau / rtt)
            delivered += c * (growth - 1.0) / _LN2
            return delivered, min(c * growth, self._limits[0])
        if phase == 1:
            half_a = PACKET_SIZE / (2.0 * rtt)
            delivered += (c * tau + half_a * tau * tau) / rtt
        else:
            delivered += self.bw * tau
        return delivered, min(c + PACKET_SIZE * tau / rtt,
                              self._limits[phase])

    def bytes_at(self, t: float) -> float:
        """Bytes delivered in the first ``t`` seconds, bit for bit
        ``integrate_window(..., dt_limit=t)[0]``."""
        elapsed = delivered = 0.0
        c = self._cwnd
        for phase, tau, end, total, window in self._phases:
            if not elapsed < t:
                return delivered
            rest = t - elapsed
            if tau <= rest:
                elapsed, delivered, c = end, total, window
                continue
            delivered, c = self._grow(phase, rest, delivered, c)
            elapsed += rest
            # ``elapsed`` may land an ulp short of ``t``; the integral then
            # runs the later phases for that sliver, and so must we.
            for later in range(phase + 1, 3):
                if elapsed < t and c < self._limits[later]:
                    tau = min(self._duration(later, c), t - elapsed)
                    delivered, c = self._grow(later, tau, delivered, c)
                    elapsed += tau
            break
        if elapsed < t:
            delivered += self.bw * (t - elapsed)
        return delivered

    def rate_at(self, t: float) -> float:
        """Delivery rate at ``t`` seconds, bytes/second."""
        rtt = self.rtt
        elapsed = 0.0
        c = self._cwnd
        for phase, _, end, _, window in self._phases:
            if t < end:
                if phase == 0:
                    return c * 2.0 ** ((t - elapsed) / rtt) / rtt
                if phase == 1:
                    return (c + PACKET_SIZE * (t - elapsed) / rtt) / rtt
                return self.bw
            elapsed, c = end, window
        return self.bw


class TcpState:
    """Congestion state of one subflow, advanced in fluid time steps."""

    def __init__(self, rtt: float):
        if rtt <= 0:
            raise ValueError(f"rtt must be positive: {rtt!r}")
        self.rtt = rtt
        #: Idle longer than this restarts the window (RFC 2861).
        self._rto = max(MIN_RTO, 2.0 * rtt)
        self.cwnd = float(INITIAL_CWND)
        self.ssthresh = float("inf")
        self.last_send_time: float = None  # type: ignore[assignment]
        #: Observability hook: called with ``now`` whenever the idle-restart
        #: rule actually collapses the window (the subflow layer publishes a
        #: ``CwndRestarted`` event through it).
        self.on_idle_restart = None

    # ------------------------------------------------------------------
    def rate(self, available_bw: float) -> float:
        """Current achievable sending rate in bytes/second.

        The window-limited rate is ``cwnd / rtt``; the path then clips it to
        the available bandwidth of the link at this instant.
        """
        return min(self.cwnd / self.rtt, available_bw)

    def advance(self, now: float, dt: float, available_bw: float,
                sending: bool) -> float:
        """Advance the window by ``dt`` seconds; return bytes deliverable.

        ``sending`` is True when the application has data queued for this
        subflow.  When idle, the window decays via the restart rule instead
        of growing.  The splitting proxy's origin leg steps its TCP this
        way on its own fixed clock.
        """
        if not sending:
            return 0.0
        self.restart_if_idle(now)
        self.last_send_time = now + dt

        bdp = available_bw * self.rtt
        ceiling = bdp * (1.0 + QUEUE_ALLOWANCE)
        if self.cwnd < min(self.ssthresh, bdp):
            # Slow start: the window doubles once per RTT.
            self.cwnd = min(self.cwnd * (2.0 ** (dt / self.rtt)),
                            max(ceiling, INITIAL_CWND))
        elif self.cwnd < ceiling:
            # Congestion avoidance: one segment per RTT.
            self.cwnd = min(self.cwnd + PACKET_SIZE * (dt / self.rtt),
                            max(ceiling, INITIAL_CWND))
        else:
            # The trace dropped (or we overshot): fast-recovery style halving
            # toward the new ceiling, and remember it as ssthresh.
            self.cwnd = max(ceiling, INITIAL_CWND, self.cwnd / 2.0)
            self.ssthresh = max(self.cwnd, INITIAL_CWND)
        return self.rate(available_bw) * dt

    # ------------------------------------------------------------------
    # Analytic (event-driven kernel) interface
    # ------------------------------------------------------------------
    def window_after_restart(self, now: float) -> Tuple[float, float]:
        """Pure preview of ``(cwnd, ssthresh)`` if sending resumed at ``now``.

        Applies the RFC 2861 idle-restart rule without mutating state or
        firing the observability hook — the fast kernel uses it to predict
        delivery over a span before committing it.
        """
        restarted = self._restarted_window(now)
        if restarted is None:
            return self.cwnd, self.ssthresh
        return restarted

    def pinned_rate(self, now: float,
                    available_bw: float) -> Optional[float]:
        """``available_bw`` when the window is provably pinned, else None.

        Pinned means the send clock is warm (no idle-restart pending) and
        the window sits exactly at the phase-4 ceiling, so continuous
        sending proceeds at rate ``available_bw`` with no state evolution.
        Steady-state streaming spends nearly all its time here; callers use
        it to skip the full four-phase integral.  A window *above* the
        ceiling does not qualify: the first real advance must collapse it
        (and record ssthresh), which this fast path would skip.
        """
        last = self.last_send_time
        if last is None or now - last > self._rto:
            # Cold send clock, or an idle restart is pending.
            return None
        if self.cwnd != self.pinned_window(available_bw):
            return None
        return available_bw

    def pinned_window(self, available_bw: float) -> float:
        """The phase-4 ceiling window under ``available_bw``, bytes."""
        return max(available_bw * self.rtt * (1.0 + QUEUE_ALLOWANCE),
                   INITIAL_CWND)

    def window_curve(self, now: float, available_bw: float) -> WindowCurve:
        """Delivery curve of continuous sending from ``now``.

        Pure: starts from the idle-restarted window (see
        :meth:`window_after_restart`) under constant ``available_bw``.
        """
        cwnd, ssthresh = self.window_after_restart(now)
        return WindowCurve(cwnd, ssthresh, self.rtt, available_bw)

    def time_to_deliver(self, now: float, target_bytes: float,
                        available_bw: float) -> float:
        """Seconds of continuous sending needed to deliver ``target_bytes``.

        Pure; ``math.inf`` when the target is unreachable (zero bandwidth).
        """
        rate = self.pinned_rate(now, available_bw)
        if rate is not None:
            return target_bytes / rate if rate > 0 else math.inf
        cwnd, ssthresh = self.window_after_restart(now)
        _, elapsed, _, _ = integrate_window(cwnd, ssthresh, self.rtt,
                                            available_bw,
                                            bytes_limit=target_bytes)
        return elapsed

    def advance_analytic(self, now: float, dt: float,
                         available_bw: float) -> float:
        """Commit ``dt`` seconds of continuous sending; return bytes delivered.

        The mutating counterpart of :meth:`window_curve`: equivalent to
        running :meth:`advance` with ``sending=True`` over infinitely many
        infinitesimal ticks covering ``[now, now + dt]``.
        """
        self.restart_if_idle(now)
        return self.advance_warm(now, dt, available_bw)

    def advance_warm(self, now: float, dt: float,
                     available_bw: float) -> float:
        """:meth:`advance_analytic` on a send clock known to be warm.

        Skips the idle-restart check: callers either committed the
        restart already (:meth:`restart_if_idle`) or sent up to ``now``.
        """
        delivered, _, cwnd, ssthresh = integrate_window(
            self.cwnd, self.ssthresh, self.rtt, available_bw, dt_limit=dt)
        self.cwnd = cwnd
        self.ssthresh = ssthresh
        self.last_send_time = now + dt
        return delivered

    def _restarted_window(self,
                          now: float) -> Optional[Tuple[float, float]]:
        """RFC 2861 congestion-window validation after idle.

        ``(cwnd, ssthresh)`` once the send clock has idled past the
        retransmission timeout, else None (no restart is due).
        """
        if self.last_send_time is None:
            return None
        idle = now - self.last_send_time
        if not idle > self._rto:
            return None
        # Halve once per RTO elapsed, not below the initial window.  A few
        # dozen halvings already reach the floor; cap the exponent so
        # astronomically long idles cannot overflow.
        halvings = min(int(idle / self._rto), 64)
        return (max(self.cwnd / (2.0 ** halvings), INITIAL_CWND),
                max(self.cwnd * 0.75, INITIAL_CWND))

    def restart_if_idle(self, now: float) -> None:
        """Commit the idle restart, if one is due, and report it."""
        restarted = self._restarted_window(now)
        if restarted is None:
            return
        self.cwnd, self.ssthresh = restarted
        if self.on_idle_restart is not None:
            self.on_idle_restart(now)

    def reset(self) -> None:
        """Return to the initial (connection-start) state."""
        self.cwnd = float(INITIAL_CWND)
        self.ssthresh = float("inf")
        self.last_send_time = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"<TcpState cwnd={self.cwnd / PACKET_SIZE:.1f}pkts "
                f"rtt={self.rtt * 1000:.0f}ms>")
