"""MPTCP transport: subflows, DSS signaling, connection."""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "activity": "ActivityLog",
    "connection": "MptcpConnection PathController Transfer",
    "options": "SignalChannel",
    "proxy": "SplittingProxy",
    "subflow": "Subflow",
})
