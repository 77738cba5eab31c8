"""BBA-C: the cellular-friendly BBA variant introduced by the paper (§5.2.2).

The original BBA aggressively probes for the highest rate the buffer can
justify, which makes it oscillate between the two rungs around the true
network capacity (Figure 3) — degrading QoE and, worse for MP-DASH, burning
cellular data to sustain the unsustainable upper rung.  BBA-C is BBA-2 with
one added constraint: *the selected bitrate may not exceed the measured
MPTCP throughput.*

The throughput used for the cap is the MP-DASH cross-layer estimate when
available (the transport sees all paths), otherwise a harmonic mean of the
player's recent chunk throughputs.
"""

from __future__ import annotations

from ..dash.events import ChunkRecord
from ..estimators.harmonic import HarmonicMean
from .base import AbrContext
from .bba import Bba


class BbaC(Bba):
    """BBA-2 with the selected rate capped at measured network capacity."""

    name = "bba-c"

    def __init__(self, window: int = 5, **bba_kwargs):
        super().__init__(**bba_kwargs)
        self._estimator = HarmonicMean(window)

    def reset(self) -> None:
        super().reset()
        self._estimator.reset()

    def on_chunk_downloaded(self, record: ChunkRecord) -> None:
        self._estimator.update(record.throughput)

    def _capacity(self, ctx: AbrContext):
        if ctx.override_throughput is not None:
            return ctx.override_throughput
        return self._estimator.predict()

    def choose_level(self, ctx: AbrContext) -> int:
        level = super().choose_level(ctx)
        capacity = self._capacity(ctx)
        if capacity is None:
            return level
        bitrates = ctx.manifest.bitrates()
        while level > 0 and bitrates[level] > capacity:
            level -= 1
        return level
