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
