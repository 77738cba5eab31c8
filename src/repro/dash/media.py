"""DASH media model: quality levels, chunks, and video assets.

A DASH video is split into chunks of equal playout duration, each encoded at
several discrete bitrate levels (the paper's videos use 4-second chunks and
five levels; Table 3 lists the ladders).  Chunk sizes vary around
``bitrate × duration`` because encoders are variable-bitrate; the size
variation matters to MP-DASH because the rate-based deadline budgets each
chunk by its *actual* size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..net.units import mbps


@dataclass(frozen=True)
class QualityLevel:
    """One rung of the encoding ladder."""

    #: 0-based index; the paper numbers levels 1 (lowest) to 5 (highest).
    index: int
    #: Nominal (average) encoding bitrate, bytes/second.
    bitrate: float

    @property
    def bitrate_mbps(self) -> float:
        return self.bitrate * 8.0 / 1e6

    @property
    def paper_level(self) -> int:
        """1-based level number as the paper reports it."""
        return self.index + 1


class VideoAsset:
    """A fully described DASH video: ladder plus per-chunk sizes."""

    def __init__(self, name: str, chunk_duration: float,
                 levels: Sequence[QualityLevel],
                 chunk_sizes: Sequence[Sequence[float]]):
        if chunk_duration <= 0:
            raise ValueError(
                f"chunk duration must be positive: {chunk_duration!r}")
        if not levels:
            raise ValueError("a video needs at least one quality level")
        if len(chunk_sizes) != len(levels):
            raise ValueError("chunk_sizes must have one row per level")
        counts = {len(row) for row in chunk_sizes}
        if len(counts) != 1:
            raise ValueError(f"levels disagree on chunk count: {counts}")
        ordered = sorted(levels, key=lambda lv: lv.index)
        if [lv.index for lv in ordered] != list(range(len(levels))):
            raise ValueError("level indices must be 0..n-1")
        for lower, higher in zip(ordered, ordered[1:]):
            if higher.bitrate <= lower.bitrate:
                raise ValueError("level bitrates must be strictly increasing")
        self.name = name
        self.chunk_duration = chunk_duration
        # Tuples throughout: one asset may be shared by many sessions.
        self.levels: Tuple[QualityLevel, ...] = tuple(ordered)
        self._sizes = tuple(tuple(row) for row in chunk_sizes)

    # ------------------------------------------------------------------
    @classmethod
    def generate(cls, name: str, chunk_duration: float,
                 duration: float, bitrates_mbps: Sequence[float],
                 seed: int, vbr_sigma: float = 0.12) -> "VideoAsset":
        """Synthesize an asset with VBR chunk-size variation.

        Chunk sizes are lognormal around ``bitrate × duration`` with
        coefficient of variation ``vbr_sigma``, then rescaled per level so
        the *average* bitrate is exactly nominal (as Table 3 reports average
        encoding bitrates).  The size pattern is shared across levels (a
        complex scene is big at every level), which is how real encoders
        behave and what makes duration-based deadlines pay extra cellular on
        big chunks at every level.
        """
        if duration <= 0:
            raise ValueError(f"duration must be positive: {duration!r}")
        num_chunks = max(1, int(round(duration / chunk_duration)))
        rng = np.random.default_rng(seed)
        # One shared complexity factor per chunk position.
        sigma = max(vbr_sigma, 1e-6)
        factors = rng.lognormal(mean=-0.5 * np.log(1 + sigma ** 2),
                                sigma=np.sqrt(np.log(1 + sigma ** 2)),
                                size=num_chunks)
        factors = np.clip(factors, 0.5, 2.0)
        factors *= num_chunks / factors.sum()  # exact-mean normalization

        levels = [QualityLevel(i, mbps(rate))
                  for i, rate in enumerate(bitrates_mbps)]
        chunk_sizes = []
        for level in levels:
            nominal = level.bitrate * chunk_duration
            chunk_sizes.append([nominal * f for f in factors])
        return cls(name, chunk_duration, levels, chunk_sizes)

    # ------------------------------------------------------------------
    @property
    def num_chunks(self) -> int:
        return len(self._sizes[0])

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def duration(self) -> float:
        return self.num_chunks * self.chunk_duration

    def chunk_size(self, level: int, index: int) -> float:
        """Size in bytes of chunk ``index`` at quality ``level``."""
        self._check(level, index)
        return self._sizes[level][index]

    def level(self, index: int) -> QualityLevel:
        if not 0 <= index < self.num_levels:
            raise IndexError(f"level {index} out of range "
                             f"(0..{self.num_levels - 1})")
        return self.levels[index]

    def bitrates(self) -> List[float]:
        """Nominal bitrates (bytes/second), lowest first."""
        return [lv.bitrate for lv in self.levels]

    def highest_sustainable_level(self, throughput: float) -> int:
        """Highest level whose nominal bitrate fits within ``throughput``
        (bytes/second); level 0 if even the lowest does not fit."""
        best = 0
        for level in self.levels:
            if level.bitrate <= throughput:
                best = level.index
        return best

    def _check(self, level: int, index: int) -> None:
        if not 0 <= level < self.num_levels:
            raise IndexError(f"level {level} out of range "
                             f"(0..{self.num_levels - 1})")
        if not 0 <= index < self.num_chunks:
            raise IndexError(f"chunk {index} out of range "
                             f"(0..{self.num_chunks - 1})")

    def __repr__(self) -> str:
        rates = ", ".join(f"{lv.bitrate_mbps:.2f}" for lv in self.levels)
        return (f"<VideoAsset {self.name!r} {self.num_chunks}x"
                f"{self.chunk_duration:g}s levels=[{rates}]Mbps>")
