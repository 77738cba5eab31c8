"""Trace-replay radio energy computation.

Given the binned byte activity of one interface (from the transport's
:class:`~repro.mptcp.activity.ActivityLog`), the model walks the timeline
and charges:

* **active** energy for every bin that carried data, at the profile's
  throughput-dependent power,
* **tail** energy after each burst — the radio lingers in its high-power
  state for ``tail_time`` (or until the next burst, whichever comes first;
  bursts inside the tail keep the radio promoted, so no promotion cost is
  charged for them),
* **promotion** energy each time the radio enters the active state from
  idle,
* **idle** energy for everything else until the session ends.

This is exactly why MP-DASH's burst-then-idle traffic beats throttling
(Table 4): a 700 kbps trickle keeps the LTE radio pinned in its ~1.3 W
active state for the whole session, while MP-DASH pays for short bursts
plus tails and idles at ~31 mW in between.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..mptcp.activity import ActivityLog
from ..obs.events import (RADIO_ACTIVE, RADIO_IDLE, RADIO_TAIL,
                          RadioStateChange)
from .devices import DevicePowerProfile, InterfacePowerProfile


@dataclass
class EnergyBreakdown:
    """Joules spent per radio state."""

    active: float = 0.0
    tail: float = 0.0
    idle: float = 0.0
    promotion: float = 0.0

    @property
    def total(self) -> float:
        return self.active + self.tail + self.idle + self.promotion

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(self.active + other.active,
                               self.tail + other.tail,
                               self.idle + other.idle,
                               self.promotion + other.promotion)


def interface_energy(activity: ActivityLog, path: str,
                     profile: InterfacePowerProfile,
                     session_end: float) -> EnergyBreakdown:
    """Energy of one interface over [0, session_end]."""
    if session_end <= 0:
        raise ValueError(f"session_end must be positive: {session_end!r}")
    width = activity.bin_width
    # The profile's constants read once, and active_power inlined: bursts
    # carry bytes > 0 only, so its negative-throughput guard never fires.
    # Each accumulator must add its terms in this order, so that every
    # sum keeps its bits (tests/test_energy_walk.py holds the reference).
    active_base = profile.active_base
    downlink_per_mbps = profile.downlink_per_mbps
    tail_time = profile.tail_time
    tail_power = profile.tail_power
    idle_power = profile.idle_power
    promotion_energy = profile.promotion_energy
    active = tail_energy = idle = promotion = 0.0

    last_burst_end = None
    for start, num_bytes in activity.bursts(path, session_end):
        if last_burst_end is None:
            # Entering active from idle for the first time.
            promotion += promotion_energy
            idle += max(0.0, start) * idle_power
        else:
            if start > promoted_until:
                # Entering active from idle: promotion, and close the
                # previous tail (charged fully here now the gap is known).
                promotion += promotion_energy
            # max(0.0, x) and min(gap, tail_time) spelled out, with the
            # same outcomes: each keeps its first argument unless the
            # second compares strictly beyond it.
            gap = start - last_burst_end
            gap = gap if gap > 0.0 else 0.0
            tail = tail_time if tail_time < gap else gap
            tail_energy += tail * tail_power
            rest = gap - tail
            idle += (rest if rest > 0.0 else 0.0) * idle_power
        throughput_mbps = num_bytes * 8.0 / 1e6 / width
        active += (active_base + downlink_per_mbps * throughput_mbps) * width
        last_burst_end = start + width
        # End of the current high-power window (active burst + its tail).
        promoted_until = last_burst_end + tail_time

    if last_burst_end is None:
        idle += session_end * idle_power
    else:
        gap = max(0.0, session_end - last_burst_end)
        tail = min(gap, tail_time)
        tail_energy += tail * tail_power
        idle += max(0.0, gap - tail) * idle_power
    return EnergyBreakdown(active, tail_energy, idle, promotion)


def radio_transitions(activity: ActivityLog, path: str,
                      profile: InterfacePowerProfile,
                      session_end: float) -> List[Tuple[float, str]]:
    """The radio's idle/active/tail transitions as ``(time, state)``.

    Walks the same binned timeline :func:`interface_energy` charges:
    ``active → tail`` at each burst end, ``tail → idle`` when the tail
    expires before the next burst, and back to ``active`` at the next
    burst.  Every ``active`` transition that follows an ``idle`` one
    (including the first) is a promotion :func:`interface_energy` charged.
    """
    if session_end <= 0:
        raise ValueError(f"session_end must be positive: {session_end!r}")
    width = activity.bin_width
    changes: List[Tuple[float, str]] = []
    last_burst_end = None
    for start, _num_bytes in activity.bursts(path, session_end):
        if last_burst_end is None:
            changes.append((start, RADIO_ACTIVE))
        elif start > last_burst_end:
            changes.append((last_burst_end, RADIO_TAIL))
            tail_end = last_burst_end + profile.tail_time
            if start > tail_end:
                changes.append((tail_end, RADIO_IDLE))
            changes.append((start, RADIO_ACTIVE))
        last_burst_end = start + width
    if last_burst_end is not None:
        changes.append((last_burst_end, RADIO_TAIL))
        tail_end = last_burst_end + profile.tail_time
        if session_end > tail_end:
            changes.append((tail_end, RADIO_IDLE))
    return changes


class RadioTimeline:
    """An :class:`ActivityLog` whose bursts and radio transitions are
    walked once per path and horizon, for every reader to share.

    It stands in for the log in the functions above (same ``bin_width``,
    ``paths`` and ``bursts``); its lists are shared, so readers must not
    edit them, and ``walks.clear()`` drops them when the log gains bytes.
    """

    def __init__(self, activity: ActivityLog):
        self.activity = activity
        self.bin_width = activity.bin_width
        self.paths = activity.paths
        self.walks: Dict[tuple, list] = {}

    def bursts(self, path: str, until: float) -> List[Tuple[float, float]]:
        key = (path, until)
        if key not in self.walks:
            self.walks[key] = self.activity.bursts(path, until)
        return self.walks[key]

    def transitions(self, path: str, profile: InterfacePowerProfile,
                    until: float) -> List[Tuple[float, str]]:
        """:func:`radio_transitions` of ``path``, walked once."""
        key = (path, until, profile)
        if key not in self.walks:
            self.walks[key] = radio_transitions(self, path, profile, until)
        return self.walks[key]


def radio_state_events(activity: ActivityLog, path: str,
                       profile: InterfacePowerProfile,
                       session_end: float) -> List[RadioStateChange]:
    """:func:`radio_transitions` as typed bus events."""
    return [RadioStateChange(time, path, state) for time, state
            in radio_transitions(activity, path, profile, session_end)]


def session_energy(activity: ActivityLog, device: DevicePowerProfile,
                   session_end: float) -> Dict[str, EnergyBreakdown]:
    """Per-interface energy for a whole session; keys are path names plus
    ``"total"``; a path the device has no radio profile for gets none."""
    result: Dict[str, EnergyBreakdown] = {}
    total = EnergyBreakdown()
    for path in activity.paths():
        if not device.covers(path):
            continue
        breakdown = interface_energy(activity, path,
                                     device.for_interface(path), session_end)
        result[path] = breakdown
        total = total + breakdown
    result["total"] = total
    return result
