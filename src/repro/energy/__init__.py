"""Radio energy model: device power profiles and trace-replay computation."""

from .devices import (DEVICES, GALAXY_NOTE, GALAXY_S3, DevicePowerProfile,
                      InterfacePowerProfile)
from .model import (EnergyBreakdown, interface_energy, radio_state_events,
                    session_energy)

__all__ = [
    "DEVICES", "DevicePowerProfile", "EnergyBreakdown", "GALAXY_NOTE",
    "GALAXY_S3", "InterfacePowerProfile", "interface_energy",
    "radio_state_events", "session_energy",
]
