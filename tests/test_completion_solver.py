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
from repro.mptcp.connection import (_EPSILON, MptcpConnection, _delivered,
                                    _SpanPlan)
from repro.net.link import Path
from repro.net.simulator import Simulator
from repro.net.tcp import (_LN2, INITIAL_CWND, QUEUE_ALLOWANCE,
                           WindowCurve, integrate_window)
from repro.net.trace import BandwidthTrace
from repro.net.units import PACKET_SIZE


def oracle_solve_span(senders, t0, span, sendable):
    """The 80-round bisection ``_solve_span`` ran before window curves."""
    if len(senders) == 1:
        only = senders[0]
        return min(only.time_to_deliver(t0, sendable,
                                        only.path.bandwidth_at(t0)), span)
    # Steady state: every sender pinned at its ceiling means delivery
    # is linear at the combined rate — solve by division, not search.
    total_rate = 0.0
    for sf in senders:
        rate = sf.steady_rate(t0, sf.path.bandwidth_at(t0))
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


def oracle_integrate_window(cwnd, ssthresh, rtt, bw, dt_limit=math.inf,
                            bytes_limit=math.inf):
    """``integrate_window`` as it read with builtin ``min``/``max``."""
    bdp = bw * rtt
    ceiling = bdp * (1.0 + QUEUE_ALLOWANCE)
    cap = max(ceiling, INITIAL_CWND)
    c = cwnd
    if c > cap:
        c = cap
        ssthresh = max(c, INITIAL_CWND)
    delivered = 0.0
    elapsed = 0.0

    # Phase 1: slow start (rate = c/rtt, window doubles per RTT).
    target = min(ssthresh, bdp)
    if elapsed < dt_limit and delivered < bytes_limit and c < target:
        tau = rtt * math.log2(target / c)
        tau = min(tau, dt_limit - elapsed)
        budget = bytes_limit - delivered
        tau_bytes = rtt * math.log2(1.0 + budget * _LN2 / c)
        tau = min(tau, tau_bytes)
        delivered += c * (2.0 ** (tau / rtt) - 1.0) / _LN2
        c = min(c * 2.0 ** (tau / rtt), target)
        elapsed += tau

    # Phase 2: congestion avoidance below the BDP (rate = c/rtt, linear
    # growth of one segment per RTT).
    if elapsed < dt_limit and delivered < bytes_limit and c < bdp:
        tau = (bdp - c) * rtt / PACKET_SIZE
        tau = min(tau, dt_limit - elapsed)
        budget = bytes_limit - delivered
        half_a = PACKET_SIZE / (2.0 * rtt)
        tau_bytes = ((math.sqrt(c * c + 4.0 * half_a * budget * rtt) - c)
                     / (2.0 * half_a))
        tau = min(tau, tau_bytes)
        delivered += (c * tau + half_a * tau * tau) / rtt
        c = min(c + PACKET_SIZE * tau / rtt, bdp)
        elapsed += tau

    # Phase 3: between the BDP and the ceiling the rate is pinned at bw but
    # the window still grows (the standing-queue allowance filling up).
    if elapsed < dt_limit and delivered < bytes_limit and c < ceiling:
        tau = (ceiling - c) * rtt / PACKET_SIZE
        tau = min(tau, dt_limit - elapsed)
        if bw > 0:
            tau = min(tau, (bytes_limit - delivered) / bw)
        delivered += bw * tau
        c = min(c + PACKET_SIZE * tau / rtt, ceiling)
        elapsed += tau

    # Phase 4: pinned at the ceiling; rate = bw, no further growth.
    if elapsed < dt_limit and delivered < bytes_limit:
        if math.isfinite(dt_limit):
            tau = dt_limit - elapsed
            if bw > 0:
                tau = min(tau, (bytes_limit - delivered) / bw)
            delivered += bw * tau
            elapsed += tau
        elif bw > 0:
            tau = (bytes_limit - delivered) / bw
            delivered += bw * tau
            elapsed += tau
        else:
            elapsed = math.inf

    return delivered, elapsed, c, ssthresh


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


dt_limits = st.one_of(st.just(math.inf), st.floats(0.0, 30.0),
                      st.floats(0.0, 2.0), st.sampled_from(
                          [0.0, -0.0, -1.0, math.nan]))
bytes_limits = st.one_of(st.just(math.inf), st.floats(0.0, 5e7),
                         st.sampled_from([0.0, -1.0, math.nan]))


class TestIntegrateWindow:
    @given(state=window_states(), dt_limit=dt_limits,
           bytes_limit=bytes_limits)
    @settings(max_examples=1000, deadline=None)
    def test_matches_the_builtin_min_max_integral(self, state, dt_limit,
                                                  bytes_limit):
        got = integrate_window(*state, dt_limit=dt_limit,
                               bytes_limit=bytes_limit)
        want = oracle_integrate_window(*state, dt_limit=dt_limit,
                                       bytes_limit=bytes_limit)
        # ``repr`` tells NaN from NaN, -0.0 from 0.0 and an int window
        # from a float one.
        assert repr(got) == repr(want)


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
    potential = _SpanPlan(t0, conn.subflows).potential(span)
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
        got = conn._solve_span(conn._span_plan(t0), span, sendable)
        want = oracle_solve_span(conn.subflows, t0, span, sendable)
        assert got == want and math.copysign(1.0, got) == math.copysign(
            1.0, want)

    @given(solve=solves())
    @settings(max_examples=200, deadline=None)
    def test_returns_the_first_instant_within_tolerance(self, solve):
        conn, t0, span, sendable = solve
        # The all-pinned shortcut divides instead of bisecting.
        assume(not all(sf.steady_rate(t0, sf.path.bandwidth_at(t0))
                       is not None
                       for sf in conn.subflows))
        t = conn._solve_span(conn._span_plan(t0), span, sendable)
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
        got = conn._solve_span(conn._span_plan(12.0), 5.0, 1.5e6)
        assert got == oracle_solve_span(conn.subflows, 12.0, 5.0, 1.5e6)
        assert 0.0 < got < 5.0


# ----------------------------------------------------------------------
# What the span plan keeps between a prediction and its advance
# ----------------------------------------------------------------------
def spans_after(t0, span, solved):
    """Spans a later solve on the same plan may pose: the prediction's
    own, the advance's ``(t0 + s) - t0``, one ulp either side of each."""
    advance = (t0 + solved) - t0
    spans = {span, advance, math.nextafter(span, math.inf),
             math.nextafter(advance, math.inf),
             math.nextafter(advance, 0.0)}
    return sorted(s for s in spans if s > 0.0)


def same_bits(got, want):
    return got == want and math.copysign(1.0, got) == math.copysign(
        1.0, want)


class TestSpanPlanFacts:
    @given(solve=solves())
    @settings(max_examples=300, deadline=None)
    def test_a_reused_band_solves_like_a_fresh_one(self, solve):
        conn, t0, span, sendable = solve
        plan = conn._span_plan(t0)
        solved = conn._solve_span(plan, span, sendable)
        band = plan._band
        for later in spans_after(t0, span, solved):
            reused = conn._solve_span(plan, later, sendable)
            fresh = conn._solve_span(_SpanPlan(t0, conn.subflows), later,
                                     sendable)
            want = oracle_solve_span(conn.subflows, t0, later, sendable)
            assert same_bits(reused, want) and same_bits(fresh, want)
            # The later solve ran on the band the first one proved.
            assert plan._band is band

    @pytest.mark.parametrize("excess", [0.0, _EPSILON / 2, _EPSILON])
    def test_an_uncertified_right_edge_is_kept_open(self, excess):
        # The root sits at or just past the span, as in the advance that
        # runs at full potential: the band's right edge cannot be proved
        # inside the span, so the plan keeps it at +inf.
        states = [(1.0e6, 0.05, float(INITIAL_CWND), math.inf, None),
                  (2.5e6, 0.07, 9.0e5, 6.0e5, 10.0)]
        conn = connection(states, 12.0)
        plan = conn._span_plan(12.0)
        span = 1.5
        sendable = plan.potential(span) + excess
        solved = conn._solve_span(plan, span, sendable)
        assert plan._band[0] == sendable and plan._band[2] == math.inf
        assert same_bits(solved, oracle_solve_span(conn.subflows, 12.0,
                                                   span, sendable))
        for later in (math.nextafter(span, math.inf), 2.0 * span):
            assert same_bits(
                conn._solve_span(plan, later, sendable),
                oracle_solve_span(conn.subflows, 12.0, later, sendable))

    def test_a_new_sendable_proves_a_new_band(self):
        states = [(1.0e6, 0.05, float(INITIAL_CWND), math.inf, None),
                  (2.5e6, 0.07, 9.0e5, 6.0e5, 10.0)]
        conn = connection(states, 12.0)
        plan = conn._span_plan(12.0)
        conn._solve_span(plan, 5.0, 1.5e6)
        first = plan._band
        got = conn._solve_span(plan, 5.0, 1.0e6)
        assert plan._band is not first and plan._band[0] == 1.0e6
        assert same_bits(got, oracle_solve_span(conn.subflows, 12.0, 5.0,
                                                1.0e6))

    def test_each_predicted_completion_certifies_one_band(self,
                                                          monkeypatch):
        # Two cold senders, three transfers apart by idle gaps long
        # enough to restart both windows: every completion needs the
        # bisection, and the advance onto it reuses the prediction's band.
        calls = []
        certify = connection_module._certified_band

        def counted(*args):
            calls.append(args)
            return certify(*args)

        monkeypatch.setattr(connection_module, "_certified_band", counted)
        sim = Simulator()
        conn = MptcpConnection(sim, [
            Path("wifi", BandwidthTrace.constant(1.0e6), 0.05),
            Path("lte", BandwidthTrace.constant(2.5e6), 0.07)])
        transfers = []
        for start in (0.0, 20.0, 40.0):
            sim.schedule(start, lambda: transfers.append(
                conn.start_transfer(1.5e6)))
        sim.run(until=60.0)
        assert len(transfers) == 3
        assert all(t.complete for t in transfers)
        assert len(calls) == len(transfers)


@st.composite
def ceiling_cases(draw):
    """``(plan, span, threshold)`` around both the potential and the
    rate ceiling, over tiny bandwidths (``INITIAL_CWND`` above the
    window ceiling), idle restarts and above-ceiling windows."""
    t0 = draw(st.floats(0.0, 100.0))
    tiny = st.tuples(st.floats(1.0, 2e5), rtts,
                     st.floats(INITIAL_CWND, 4e6),
                     st.one_of(st.just(math.inf),
                               st.floats(INITIAL_CWND, 4e6)),
                     st.one_of(st.none(), st.floats(0.0, 3.0)))
    states = draw(st.lists(st.one_of(sender_states(t0), tiny.map(
        lambda s: s[:4] + (None if s[4] is None else t0 - s[4],))),
        min_size=1, max_size=3))
    conn = connection(states, t0)
    plan = conn._span_plan(t0)
    span = draw(st.floats(1e-4, 30.0))
    potential = _SpanPlan(t0, conn.subflows).potential(span)
    bound = sum(plan.rates) * span
    anchor = draw(st.sampled_from([potential, bound]))
    threshold = draw(st.one_of(
        st.just(anchor),
        st.builds(math.nextafter, st.just(anchor),
                  st.sampled_from([0.0, math.inf])),
        st.floats(0.999, 1.001).map(lambda f: anchor * f),
        st.floats(-1.0, 1e8)))
    return plan, span, threshold


class TestRateCeiling:
    @given(case=ceiling_cases())
    @settings(max_examples=500, deadline=None)
    def test_agrees_with_the_potential(self, case):
        plan, span, threshold = case
        want = _delivered(
            _SpanPlan(plan.t0, plan.senders).curves(), span) < threshold
        assert plan.falls_short(span, threshold) == want

    @given(solve=solves())
    @settings(max_examples=300, deadline=None)
    def test_a_certified_band_answers_like_the_potential(self, solve):
        # After a solve, a span past the band's right edge is proved to
        # reach the band's bytes; every answer must still be the curves'.
        conn, t0, span, sendable = solve
        plan = conn._span_plan(t0)
        solved = conn._solve_span(plan, span, sendable)
        curves = _SpanPlan(t0, conn.subflows).curves()
        later = spans_after(t0, span, solved)
        if plan._band is not None and math.isfinite(plan._band[2]):
            right = plan._band[2]
            later += [right, math.nextafter(right, math.inf)]
        for when in later:
            reach = _delivered(curves, when)
            for threshold in (sendable - _EPSILON, sendable,
                              math.nextafter(sendable, math.inf), reach,
                              math.nextafter(reach, math.inf)):
                want = reach < threshold
                assert plan.falls_short(when, threshold) == want

    @given(case=ceiling_cases())
    @settings(max_examples=200, deadline=None)
    def test_a_span_the_ceiling_settles_builds_no_curve(self, case):
        plan, span, threshold = case
        settled = sum(plan.rates) * span * (1.0 + 1e-9) < threshold
        assert plan.falls_short(span, threshold) or not settled
        assert (plan._curves is None) == settled
