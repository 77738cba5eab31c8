"""The two-path completion solver against the bisection it replaced.

``MptcpConnection._solve_span`` used to bisect the summed
``integrate_window`` integrals for up to 80 rounds.  It now evaluates
hoisted :class:`WindowCurve` s, settles most midpoints from a certified
band around a Newton estimate, and must still return the same bits.  The
old solver is kept here verbatim as the oracle.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.mptcp.connection as connection_module
from repro.mptcp.connection import _EPSILON, MptcpConnection
from repro.net.link import Path
from repro.net.simulator import Simulator
from repro.net.tcp import (INITIAL_CWND, QUEUE_ALLOWANCE, WindowCurve,
                           integrate_window)
from repro.net.trace import BandwidthTrace


def oracle_solve_span(senders, t0, span, sendable):
    """The 80-round bisection ``_solve_span`` ran before window curves."""
    if len(senders) == 1:
        return min(senders[0].time_to_deliver(t0, sendable), span)
    # Steady state: every sender pinned at its ceiling means delivery
    # is linear at the combined rate — solve by division, not search.
    total_rate = 0.0
    for sf in senders:
        rate = sf.steady_rate(t0)
        if rate is None:
            total_rate = -1.0
            break
        total_rate += rate
    if total_rate > 0.0:
        return min(sendable / total_rate, span)
    # Bisection over the combined delivery integral.  Per-sender state
    # is constant across iterations, so hoist the (idle-restarted)
    # window and bandwidth once and call the pure integral directly;
    # converge when the bracket is tighter than the completion slack
    # in bytes (the same ``_EPSILON`` the byte accounting uses).
    states = []
    floor_rate = 0.0
    for sf in senders:
        cwnd, ssthresh = sf.tcp.window_after_restart(t0)
        bw = sf.path.bandwidth_at(t0)
        states.append((cwnd, ssthresh, sf.tcp.rtt, bw))
        floor_rate += min(cwnd / sf.tcp.rtt, bw)
    tolerance = max(1e-12, _EPSILON / max(floor_rate, 1.0))
    lo, hi = 0.0, span
    for _ in range(80):
        mid = (lo + hi) / 2.0
        total = 0.0
        for cwnd, ssthresh, rtt, bw in states:
            total += integrate_window(cwnd, ssthresh, rtt, bw,
                                      dt_limit=mid)[0]
        if total >= sendable:
            hi = mid
        else:
            lo = mid
        if hi - lo <= tolerance:
            break
    return hi


# ----------------------------------------------------------------------
# One curve
# ----------------------------------------------------------------------
rtts = st.floats(0.005, 0.3)
bandwidths = st.one_of(st.just(0.0), st.floats(1e3, 2e7))


@st.composite
def window_states(draw):
    """``(cwnd, ssthresh, rtt, bw)`` across every phase layout."""
    rtt = draw(rtts)
    bw = draw(bandwidths)
    bdp = bw * rtt
    cap = max(bdp * (1.0 + QUEUE_ALLOWANCE), INITIAL_CWND)
    regime = draw(st.sampled_from(
        ["fresh", "capped-slow-start", "above-ceiling", "queue-fill",
         "pinned", "any"]))
    cwnd = float(INITIAL_CWND)
    ssthresh = math.inf
    if regime == "capped-slow-start":
        # Slow start stops at ssthresh below the BDP; congestion
        # avoidance carries the window the rest of the way.
        ssthresh = max(INITIAL_CWND, bdp * draw(st.floats(0.05, 0.95)))
    elif regime == "above-ceiling":
        # The trace dropped under a large window: it collapses at once.
        cwnd = cap * draw(st.floats(1.0, 50.0, exclude_min=True))
        ssthresh = draw(st.one_of(st.just(math.inf), st.floats(1e4, 1e7)))
    elif regime == "queue-fill":
        cwnd = max(INITIAL_CWND, bdp * draw(st.floats(1.0, 1.25)))
    elif regime == "pinned":
        cwnd = cap
    elif regime == "any":
        cwnd = draw(st.floats(INITIAL_CWND, 5e6))
        ssthresh = draw(st.one_of(st.just(math.inf),
                                  st.floats(INITIAL_CWND, 5e6)))
    return cwnd, ssthresh, rtt, bw


@st.composite
def curve_times(draw, curve):
    """``0``, a phase end (or one ulp either side of it), or anywhere."""
    ends = [end for _, _, end, _, _ in curve._phases]
    choice = draw(st.sampled_from(["zero", "end", "near-end", "any"]))
    if choice == "zero":
        return 0.0
    if choice == "any" or not ends:
        return draw(st.floats(0.0, 120.0))
    end = draw(st.sampled_from(ends))
    if choice == "end":
        return end
    return math.nextafter(end, draw(st.sampled_from([0.0, math.inf])))


class TestWindowCurve:
    @given(data=st.data(), state=window_states())
    @settings(max_examples=400, deadline=None)
    def test_bytes_at_is_the_window_integral_bit_for_bit(self, data,
                                                          state):
        curve = WindowCurve(*state)
        for _ in range(4):
            t = data.draw(curve_times(curve))
            assert curve.bytes_at(t) == integrate_window(
                *state, dt_limit=t)[0]

    @given(state=window_states(), t=st.floats(0.0, 30.0))
    @settings(max_examples=200, deadline=None)
    def test_rate_at_brackets_the_slope_and_never_falls(self, state, t):
        # A convex curve's secant over [t, t + h] lies between its slopes
        # at the two ends (up to the bytes' rounding error).
        curve = WindowCurve(*state)
        h = 1e-6
        upper = curve.bytes_at(t + h)
        slope = (upper - curve.bytes_at(t)) / h
        rounding = 8 * 2.0 ** -52 * upper / h
        assert curve.rate_at(t) <= curve.rate_at(t + h)
        assert curve.rate_at(t) * (1 - 1e-9) - rounding <= slope
        assert slope <= curve.rate_at(t + h) * (1 + 1e-9) + rounding

    def test_zero_bandwidth_delivers_nothing(self):
        curve = WindowCurve(4.0 * INITIAL_CWND, math.inf, 0.05, 0.0)
        assert curve.bytes_at(0.0) == curve.bytes_at(10.0) == 0.0
        assert curve.rate_at(10.0) == 0.0


# ----------------------------------------------------------------------
# The span solver
# ----------------------------------------------------------------------
@st.composite
def sender_states(draw, t0):
    """One subflow's ``(bw, rtt, cwnd, ssthresh, last_send_time)``."""
    bw = draw(bandwidths)
    rtt = draw(rtts)
    cap = max(bw * rtt * (1.0 + QUEUE_ALLOWANCE), INITIAL_CWND)
    cwnd = draw(st.one_of(st.just(float(INITIAL_CWND)), st.just(cap),
                          st.floats(INITIAL_CWND, 4e6)))
    ssthresh = draw(st.one_of(st.just(math.inf),
                              st.floats(INITIAL_CWND, 4e6)))
    last = draw(st.one_of(st.none(), st.floats(0.0, 0.02),
                          st.floats(0.0, 3.0)))
    return bw, rtt, cwnd, ssthresh, None if last is None else t0 - last


def connection(states, t0):
    paths = [Path(f"path{i}", BandwidthTrace.constant(bw), rtt)
             for i, (bw, rtt, _, _, _) in enumerate(states)]
    conn = MptcpConnection(Simulator(), paths)
    for sf, (_, _, cwnd, ssthresh, last) in zip(conn.subflows, states):
        sf.tcp.cwnd = cwnd
        sf.tcp.ssthresh = ssthresh
        sf.tcp.last_send_time = last
    return conn


@st.composite
def solves(draw):
    """``(connection, t0, span, sendable)`` as the kernel poses them.

    Either a bracket that holds the root well inside, or the
    ``_advance_to`` case: the span's potential falls at most ``_EPSILON``
    short of ``sendable``, so the root sits at or just past the span.
    """
    t0 = draw(st.floats(0.0, 100.0))
    states = draw(st.lists(sender_states(t0), min_size=2, max_size=3))
    conn = connection(states, t0)
    span = draw(st.floats(1e-4, 30.0))
    potential = sum(sf.potential(t0, span) for sf in conn.subflows)
    if draw(st.booleans()):
        sendable = potential * draw(st.floats(0.0, 1.0))
    else:
        sendable = potential + draw(st.sampled_from(
            [0.0, _EPSILON, draw(st.floats(0.0, _EPSILON))]))
    assume(sendable > _EPSILON)
    return conn, t0, span, sendable


def delivered(conn, t0, t):
    total = 0.0
    for sf in conn.subflows:
        cwnd, ssthresh = sf.tcp.window_after_restart(t0)
        total += integrate_window(cwnd, ssthresh, sf.tcp.rtt,
                                  sf.path.bandwidth_at(t0), dt_limit=t)[0]
    return total


class TestSolveSpan:
    @given(solve=solves())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_bisection_bit_for_bit(self, solve):
        conn, t0, span, sendable = solve
        got = conn._solve_span(conn.subflows, t0, span, sendable)
        want = oracle_solve_span(conn.subflows, t0, span, sendable)
        assert got == want and math.copysign(1.0, got) == math.copysign(
            1.0, want)

    @given(solve=solves())
    @settings(max_examples=200, deadline=None)
    def test_returns_the_first_instant_within_tolerance(self, solve):
        conn, t0, span, sendable = solve
        # The all-pinned shortcut divides instead of bisecting.
        assume(not all(sf.steady_rate(t0) is not None
                       for sf in conn.subflows))
        t = conn._solve_span(conn.subflows, t0, span, sendable)
        floor_rate = 0.0
        for sf in conn.subflows:
            cwnd, _ = sf.tcp.window_after_restart(t0)
            floor_rate += min(cwnd / sf.tcp.rtt, sf.path.bandwidth_at(t0))
        tolerance = max(1e-12, _EPSILON / max(floor_rate, 1.0))
        assert t <= span
        assert t == span or delivered(conn, t0, t) >= sendable
        assert delivered(conn, t0, t - tolerance) < sendable

    @pytest.mark.parametrize("certified", [True, False])
    def test_slow_start_pair_solves_like_the_bisection(self, monkeypatch,
                                                       certified):
        # Two fresh windows after idling: the common fleet case.  With
        # Newton's method cut off no band is certified, and the solve
        # falls back to evaluating every midpoint exactly.
        if not certified:
            monkeypatch.setattr(connection_module, "_NEWTON_ROUNDS", 0)
        states = [(1.0e6, 0.05, float(INITIAL_CWND), math.inf, None),
                  (2.5e6, 0.07, 9.0e5, 6.0e5, 10.0)]
        conn = connection(states, 12.0)
        got = conn._solve_span(conn.subflows, 12.0, 5.0, 1.5e6)
        assert got == oracle_solve_span(conn.subflows, 12.0, 5.0, 1.5e6)
        assert 0.0 < got < 5.0
