"""``interface_energy`` against its earlier body.

The oracle is the previous implementation copied verbatim (renamed
``old_interface_energy``): it read every profile constant through the
profile and charged active power through ``active_power``.  The current
walk must give the same four sums, float for float, so the table and
figure energy numbers and the fleet registries stay where they are.
"""

import dataclasses
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.devices import GALAXY_NOTE, GALAXY_S3, InterfacePowerProfile
from repro.energy.model import EnergyBreakdown, RadioTimeline, interface_energy
from repro.mptcp.activity import ActivityLog


def old_interface_energy(activity, path, profile, session_end):
    """Energy of one interface over [0, session_end]."""
    if session_end <= 0:
        raise ValueError(f"session_end must be positive: {session_end!r}")
    width = activity.bin_width
    breakdown = EnergyBreakdown()

    #: End of the current high-power window (active burst + its tail).
    promoted_until = 0.0
    last_burst_end = None
    for start, num_bytes in activity.bursts(path, session_end):
        end = start + width
        if last_burst_end is None or start > promoted_until:
            # Entering active from idle: promotion, and close the previous
            # tail (charged fully below when we know the gap).
            breakdown.promotion += profile.promotion_energy
        if last_burst_end is not None:
            gap = max(0.0, start - last_burst_end)
            tail = min(gap, profile.tail_time)
            breakdown.tail += tail * profile.tail_power
            breakdown.idle += max(0.0, gap - tail) * profile.idle_power
        else:
            breakdown.idle += max(0.0, start) * profile.idle_power
        throughput_mbps = num_bytes * 8.0 / 1e6 / width
        breakdown.active += profile.active_power(throughput_mbps) * width
        last_burst_end = end
        promoted_until = end + profile.tail_time

    if last_burst_end is None:
        breakdown.idle += session_end * profile.idle_power
    else:
        gap = max(0.0, session_end - last_burst_end)
        tail = min(gap, profile.tail_time)
        breakdown.tail += tail * profile.tail_power
        breakdown.idle += max(0.0, gap - tail) * profile.idle_power
    return breakdown


def assert_same_sums(new, old):
    for spec in dataclasses.fields(EnergyBreakdown):
        assert getattr(new, spec.name) == getattr(old, spec.name), spec.name
    assert repr(dataclasses.astuple(new)) == repr(dataclasses.astuple(old))


_POWER = st.floats(0.0, 5.0)
_PROFILES = st.one_of(
    st.sampled_from([GALAXY_NOTE.lte, GALAXY_NOTE.wifi, GALAXY_S3.lte,
                     GALAXY_S3.wifi]),
    st.builds(InterfacePowerProfile, name=st.just("radio"),
              active_base=_POWER, downlink_per_mbps=st.floats(0.0, 1.0),
              # Tails of whole bins too, so a burst can start exactly
              # where the previous tail ends.
              tail_time=st.sampled_from([0.0, 0.25, 0.5, 1.0])
              | st.floats(0.0, 30.0), tail_power=_POWER,
              idle_power=st.floats(0.0, 0.5),
              promotion_energy=st.floats(0.0, 1.0)))


@given(deliveries=st.lists(st.tuples(st.floats(-5.0, 400.0),
                                     st.floats(1e-3, 1e9)), max_size=300),
       width=st.sampled_from([0.05, 0.1, 0.25, 1.0]),
       profile=_PROFILES, session_end=st.floats(1e-3, 450.0))
@settings(max_examples=200, deadline=None)
def test_recorded_bins_charge_the_same_energy(deliveries, width, profile,
                                              session_end):
    log = ActivityLog(width)
    for time, num_bytes in deliveries:
        log.record(time, "cellular", num_bytes)
    assert_same_sums(interface_energy(log, "cellular", profile, session_end),
                     old_interface_energy(log, "cellular", profile,
                                          session_end))
    timeline = RadioTimeline(log)
    assert_same_sums(
        interface_energy(timeline, "cellular", profile, session_end),
        old_interface_energy(timeline, "cellular", profile, session_end))


@given(bursts=st.lists(st.tuples(st.floats(-10.0, 500.0),
                                 st.floats(1e-6, 1e12)), max_size=200),
       width=st.floats(1e-3, 2.0), profile=_PROFILES,
       session_end=st.floats(1e-3, 600.0))
@settings(max_examples=200, deadline=None)
def test_any_burst_list_charges_the_same_energy(bursts, width, profile,
                                                session_end):
    # Unsorted and overlapping starts too: every branch of the walk.
    activity = SimpleNamespace(bin_width=width,
                               bursts=lambda path, until: bursts)
    assert_same_sums(interface_energy(activity, "wifi", profile, session_end),
                     old_interface_energy(activity, "wifi", profile,
                                          session_end))
