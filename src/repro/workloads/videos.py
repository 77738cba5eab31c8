"""The paper's video dataset (Table 3).

Four DASH videos from the public dataset of Lederer et al. [26], each 10
minutes long with five quality levels; average encoding bitrates are
reproduced verbatim from Table 3.  Chunk durations default to 4 seconds
(the paper's main configuration; 6 and 10 s "obtain similar results").
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Tuple

from ..dash.media import VideoAsset

#: Average encoding bitrates in Mbps, lowest level first (Table 3).
VIDEO_LADDERS: Dict[str, Tuple[float, ...]] = {
    "big_buck_bunny": (0.58, 1.01, 1.47, 2.41, 3.94),
    "red_bull_playstreets": (0.50, 0.89, 1.50, 2.47, 3.99),
    "tears_of_steel": (0.50, 0.81, 1.51, 2.42, 4.01),
    "tears_of_steel_hd": (1.51, 2.42, 4.01, 6.03, 10.0),
}

#: Full playback length used throughout the evaluation (§7.3).
DEFAULT_DURATION = 600.0
DEFAULT_CHUNK_DURATION = 4.0


def video_names() -> List[str]:
    return sorted(VIDEO_LADDERS)


@lru_cache(maxsize=32)
def video_asset(name: str, chunk_duration: float = DEFAULT_CHUNK_DURATION,
                duration: float = DEFAULT_DURATION, seed: int = None,
                vbr_sigma: float = 0.12) -> VideoAsset:
    """Build one of the Table-3 videos as a :class:`VideoAsset`.

    The per-chunk VBR size pattern is synthesized deterministically from
    the video's name (override with ``seed``), so every session streaming
    "Big Buck Bunny" sees identical chunk sizes.  Assets are immutable,
    so calls with the same arguments share one cached instance.
    """
    try:
        ladder = VIDEO_LADDERS[name]
    except KeyError:
        raise KeyError(f"unknown video {name!r} "
                       f"(known: {video_names()})") from None
    if seed is None:
        # hash() is salted per process; derive a stable seed from the name.
        seed = sum(ord(c) * (i + 1) for i, c in enumerate(name)) % (2 ** 31)
    return VideoAsset.generate(name, chunk_duration, duration,
                               list(ladder), seed=seed, vbr_sigma=vbr_sigma)
