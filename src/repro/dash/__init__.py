"""DASH streaming stack: media model, manifest, HTTP, server, player."""

from .buffer import PlaybackBuffer
from .events import ChunkRecord, PlayerEventLog, StallRecord
from .http import HttpClient, HttpRequest, HttpResponse
from .manifest import Manifest, Representation
from .media import QualityLevel, VideoAsset
from .player import DashPlayer, PlayerAddon
from .server import DashServer

__all__ = [
    "ChunkRecord", "DashPlayer", "DashServer", "HttpClient", "HttpRequest",
    "HttpResponse", "Manifest", "PlaybackBuffer", "PlayerAddon",
    "PlayerEventLog", "QualityLevel", "Representation", "StallRecord",
    "VideoAsset",
]
