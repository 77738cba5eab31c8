"""MPTCP transport: subflows, DSS signaling, connection."""

from .activity import ActivityLog
from .connection import MptcpConnection, PathController, Transfer
from .options import SignalChannel
from .proxy import SplittingProxy
from .packet_level import (PacketDownloadResult, PacketLevelDownload,
                           run_packet_download)
from .subflow import Subflow

__all__ = [
    "ActivityLog", "MptcpConnection", "PacketDownloadResult",
    "PacketLevelDownload", "PathController", "SignalChannel", "Subflow",
    "Transfer", "SplittingProxy", "run_packet_download",
]
