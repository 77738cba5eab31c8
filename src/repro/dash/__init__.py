"""DASH streaming stack: media model, manifest, HTTP, server, player."""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "buffer": "PlaybackBuffer",
    "events": "ChunkRecord PlayerEventLog StallRecord",
    "http": "HttpClient HttpRequest HttpResponse",
    "manifest": "Manifest Representation",
    "media": "QualityLevel VideoAsset",
    "player": "DashPlayer PlayerAddon",
    "server": "DashServer",
})
