"""Network substrate: simulation kernel, bandwidth traces, paths, TCP."""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "link": "CELLULAR WIFI Path cellular_path wifi_path",
    "simulator": "Event PeriodicProcess SimulationError Simulator",
    "tcp": "INITIAL_CWND TcpState",
    "trace": "BandwidthTrace constant_mbps",
    "units": ("KB MB PACKET_SIZE kbps mbps megabytes milliseconds to_mbps "
              "to_megabytes"),
})
