"""Algorithm 1's one decision rule, :func:`repro.core.policy.enabled_prefix`.

The online scheduler, the slot model (Table 2) and the packet model all
decide through this one function, so its properties hold for all three:

* it equals, bit for bit, the two forms it replaced — the scheduler's
  N-path prefix loop and the slot and packet models' two-path test;
* the paper's relations: the result is a prefix of ``True``s that starts
  on the cheapest path; more time, or a faster path anywhere, never
  enables more paths; more remaining bytes never enable fewer.

The entry points that feed it reject non-finite sizes, windows and slots,
naming the argument, instead of silently switching scheduling off.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.offline import solve_offline
from repro.core.policy import enabled_prefix, prefer_wifi
from repro.core.scheduler import DeadlineAwareScheduler
from repro.core.tracesim import simulate_online, simulate_oracle
from repro.mptcp.packet_level import PacketLevelDownload
from repro.net.link import cellular_path, wifi_path
from repro.net.simulator import Simulator
from repro.net.units import mbps, megabytes

NAN = float("nan")
INF = float("inf")

# Any float at all, for the bit-for-bit oracles.
any_float = st.floats(allow_nan=True, allow_infinity=True)
# Non-negative finite magnitudes small enough that no sum or product
# overflows, for the paper's relations.
rate = st.floats(min_value=0.0, max_value=1e9)
remaining = st.floats(min_value=0.0, max_value=1e12)
time_left = st.floats(min_value=-1e3, max_value=1e6)
rate_lists = st.lists(rate, min_size=1, max_size=5)
# Each relation held over 3,000 examples when the rule was introduced;
# tier 1 runs fewer to stay fast.
EXAMPLES = 300


def scheduler_prefix(rates, remaining, time_left):
    """The scheduler's N-path prefix loop, as it read before the rule."""
    desired = []
    capacity_so_far = 0.0
    need_more = True
    for index, estimate in enumerate(rates):
        desired.append(True if index == 0 else need_more)
        capacity_so_far += estimate
        if max(time_left, 0.0) * capacity_so_far >= remaining:
            need_more = False
    return tuple(desired)


def two_path_prefix(estimate, remaining, time_left):
    """The slot and packet models' two-path test, as it read before."""
    can_make_it = max(time_left, 0.0) * estimate >= remaining
    return (True, not can_make_it)


def count_on(prefix):
    return sum(prefix)


class TestOracles:
    @given(rates=st.lists(any_float, max_size=5), remaining=any_float,
           time_left=any_float)
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_equals_the_scheduler_loop(self, rates, remaining, time_left):
        assert (enabled_prefix(rates, remaining, time_left)
                == scheduler_prefix(rates, remaining, time_left))

    @given(estimate=any_float, costly=any_float, remaining=any_float,
           time_left=any_float)
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_equals_the_two_path_test(self, estimate, costly, remaining,
                                      time_left):
        assert (enabled_prefix((estimate, costly), remaining, time_left)
                == two_path_prefix(estimate, remaining, time_left))


class TestPaperRelations:
    @given(rates=rate_lists, remaining=remaining, time_left=time_left)
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_result_is_a_prefix_starting_on(self, rates, remaining,
                                            time_left):
        prefix = enabled_prefix(rates, remaining, time_left)
        on = count_on(prefix)
        assert len(prefix) == len(rates)
        assert prefix[0] is True
        assert prefix == (True,) * on + (False,) * (len(rates) - on)

    @given(rates=rate_lists, remaining=remaining, time_left=time_left,
           extra=st.floats(min_value=0.0, max_value=1e6))
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_more_time_never_enables_more(self, rates, remaining,
                                          time_left, extra):
        assert (count_on(enabled_prefix(rates, remaining, time_left + extra))
                <= count_on(enabled_prefix(rates, remaining, time_left)))

    @given(rates=rate_lists, remaining=remaining, time_left=time_left,
           index=st.integers(min_value=0, max_value=4),
           extra=st.floats(min_value=0.0, max_value=1e9))
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_faster_path_never_enables_more(self, rates, remaining,
                                            time_left, index, extra):
        faster = list(rates)
        faster[index % len(rates)] += extra
        assert (count_on(enabled_prefix(faster, remaining, time_left))
                <= count_on(enabled_prefix(rates, remaining, time_left)))

    @given(rates=rate_lists, remaining=remaining, time_left=time_left,
           extra=st.floats(min_value=0.0, max_value=1e12))
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_more_remaining_never_enables_fewer(self, rates, remaining,
                                                time_left, extra):
        assert (count_on(enabled_prefix(rates, remaining + extra, time_left))
                >= count_on(enabled_prefix(rates, remaining, time_left)))

    def test_two_paths_is_algorithm_1_verbatim(self):
        # 1 MB/s for 4 s covers 4 MB but not 5 MB.
        assert enabled_prefix((1e6, 2e6), 4e6, 4.0) == (True, False)
        assert enabled_prefix((1e6, 2e6), 5e6, 4.0) == (True, True)
        # Past the (virtual) deadline every costlier path runs.
        assert enabled_prefix((1e6, 2e6, 3e6), 1.0, -1.0) == (True,) * 3


NON_FINITE = [NAN, INF]


class TestNonFiniteInputsRejected:
    @pytest.mark.parametrize("argument", ["size", "window"])
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_scheduler_arm(self, argument, bad):
        scheduler = DeadlineAwareScheduler(prefer_wifi())
        values = {"size": megabytes(1), "window": 4.0, argument: bad}
        with pytest.raises(ValueError, match=argument):
            scheduler.arm(**values)

    @pytest.mark.parametrize("simulate", [simulate_online, simulate_oracle])
    @pytest.mark.parametrize("argument", ["slot", "size", "deadline"])
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_slot_model(self, simulate, argument, bad):
        values = {"slot": 0.05, "size": megabytes(1), "deadline": 4.0,
                  argument: bad}
        with pytest.raises(ValueError, match=argument):
            simulate([mbps(3.0)] * 100, [mbps(2.0)] * 100, **values)

    @pytest.mark.parametrize("argument", ["size", "deadline"])
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_packet_model(self, argument, bad):
        values = {"size": megabytes(1), "deadline": 4.0, argument: bad}
        with pytest.raises(ValueError, match=argument):
            PacketLevelDownload(Simulator(), [wifi_path(bandwidth_mbps=3.8),
                                              cellular_path(
                                                  bandwidth_mbps=3.0)],
                                **values)

    @pytest.mark.parametrize("argument", ["slot", "size"])
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_offline_optimum(self, argument, bad):
        values = {"slot": 0.05, "size": megabytes(1), argument: bad}
        with pytest.raises(ValueError, match=argument):
            solve_offline({"wifi": [mbps(3.0)] * 100,
                           "cellular": [mbps(2.0)] * 100},
                          {"wifi": 0.0, "cellular": 1.0}, **values)

    def test_finite_inputs_still_accepted(self):
        result = simulate_online([mbps(3.0)] * 100, [mbps(2.0)] * 100,
                                 0.05, megabytes(1), 4.0)
        assert not result.missed
        assert math.isfinite(result.bytes_per_path["wifi"])
