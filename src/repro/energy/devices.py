"""Radio power profiles for the devices the paper models.

The paper computes radio energy by replaying network traces through the
multipath radio power model of Nika et al. [30], which itself builds on the
LTE measurements of Huang et al. (MobiSys 2012) [21]: a radio is
characterized by an active power that scales with throughput, a fixed
high-power *tail* after the last packet (LTE's RRC release timer), and a
low idle power (DRX cycles for LTE, PSM beacons for WiFi).

Numbers below follow the published LTE/WiFi measurements for the Samsung
Galaxy Note family; the Galaxy S III profile differs slightly (the paper
reports both devices "yielding similar results" and publishes the Note's).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class InterfacePowerProfile:
    """Power parameters of one radio interface (all powers in watts)."""

    name: str
    #: Baseline power while actively transferring.
    active_base: float
    #: Additional power per Mbps of downlink throughput.
    downlink_per_mbps: float
    #: High-power tail duration after the last packet (seconds).
    tail_time: float
    #: Power during the tail.
    tail_power: float
    #: Average power while idle-but-attached (DRX / PSM).
    idle_power: float
    #: One-time promotion cost entering the active state (joules).
    promotion_energy: float = 0.0

    def active_power(self, throughput_mbps: float) -> float:
        """Power while transferring at ``throughput_mbps`` downlink."""
        if throughput_mbps < 0:
            raise ValueError(
                f"throughput cannot be negative: {throughput_mbps!r}")
        return self.active_base + self.downlink_per_mbps * throughput_mbps


@dataclass(frozen=True)
class DevicePowerProfile:
    """A device: one LTE profile plus one WiFi profile."""

    name: str
    lte: InterfacePowerProfile
    wifi: InterfacePowerProfile

    def covers(self, interface: str) -> bool:
        """Whether this device has a radio profile for ``interface``;
        energy and radio states cover only such interfaces."""
        return interface in ("cellular", "wifi")

    def for_interface(self, interface: str) -> InterfacePowerProfile:
        if interface == "cellular":
            return self.lte
        if interface == "wifi":
            return self.wifi
        raise KeyError(f"unknown interface {interface!r} "
                       f"(known: cellular, wifi)")


#: Samsung Galaxy Note — LTE numbers from Huang et al. MobiSys 2012:
#: transfer power 1288 mW base + 52 mW/Mbps down, an 11.6 s RRC release
#: tail whose *average* power reflects connected-mode DRX sleeping between
#: cycles (the paper's model [30] explicitly accounts for DRX), and
#: RRC_IDLE DRX averaging ~31 mW.  WiFi active power on 802.11n hardware is
#: dominated by keeping the radio awake (~450 mW RX) and grows only mildly
#: with throughput; during a streaming session the WiFi radio never deep-
#: sleeps (PSM with traffic every beacon interval), so idle power stays
#: around 100 mW.
GALAXY_NOTE = DevicePowerProfile(
    name="galaxy_note",
    lte=InterfacePowerProfile(
        name="lte", active_base=1.288, downlink_per_mbps=0.052,
        tail_time=11.576, tail_power=0.500, idle_power=0.031,
        promotion_energy=0.315),  # 260 ms at 1210 mW
    wifi=InterfacePowerProfile(
        name="wifi", active_base=0.450, downlink_per_mbps=0.012,
        tail_time=0.238, tail_power=0.200, idle_power=0.100,
        promotion_energy=0.010),
)

#: Samsung Galaxy S III — same structure, slightly lower LTE powers and a
#: shorter tail (per-device RRC timer configuration).
GALAXY_S3 = DevicePowerProfile(
    name="galaxy_s3",
    lte=InterfacePowerProfile(
        name="lte", active_base=1.169, downlink_per_mbps=0.048,
        tail_time=10.2, tail_power=0.470, idle_power=0.029,
        promotion_energy=0.290),
    wifi=InterfacePowerProfile(
        name="wifi", active_base=0.420, downlink_per_mbps=0.011,
        tail_time=0.250, tail_power=0.190, idle_power=0.095,
        promotion_energy=0.010),
)

DEVICES = {profile.name: profile for profile in (GALAXY_NOTE, GALAXY_S3)}
