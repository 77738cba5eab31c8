"""MPTCP transport: subflows, DSS signaling, connection."""

from .activity import ActivityLog
from .connection import MptcpConnection, PathController, Transfer
from .options import SignalChannel
from .proxy import SplittingProxy
from .subflow import Subflow

__all__ = [
    "ActivityLog", "MptcpConnection", "PathController", "SignalChannel",
    "Subflow", "Transfer", "SplittingProxy",
]
