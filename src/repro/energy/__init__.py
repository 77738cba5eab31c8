"""Radio energy model: device power profiles and trace-replay computation."""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "devices": ("DEVICES GALAXY_NOTE GALAXY_S3 DevicePowerProfile "
                "InterfacePowerProfile"),
    "model": ("EnergyBreakdown interface_energy radio_state_events "
              "session_energy"),
})
