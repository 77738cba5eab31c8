"""FESTIVE rate adaptation (Jiang, Sekar, Zhang — CoNEXT 2012).

FESTIVE is the paper's representative *throughput-based* algorithm, chosen
for its robustness, fairness, and stability.  The pieces reproduced here
are the ones that shape MP-DASH's behaviour:

* **Harmonic-mean estimation** over the last ``window`` chunks' throughputs
  — robust to transient spikes (a single fast chunk barely moves it).
* **Efficiency factor**: the target bitrate is the highest level below
  ``efficiency × estimate`` (FESTIVE's p = 0.85), leaving headroom so the
  selected rate is sustainable.
* **Gradual switching**: levels move one rung at a time.
* **Delayed upswitch**: a switch up to level *k* happens only after the
  target has stayed above the current level for ``k`` consecutive chunks —
  higher levels require more evidence, FESTIVE's stability mechanism.
  Downswitches are immediate (falling behind risks stalls).

Under MP-DASH, the context's ``override_throughput`` (the transport's
aggregate multipath estimate) replaces the harmonic mean entirely, per
§5.2.1: the player's own samples under-estimate capacity whenever the
scheduler has the cellular path disabled.
"""

from __future__ import annotations

from ..dash.events import ChunkRecord
from ..estimators.harmonic import HarmonicMean
from .base import THROUGHPUT_BASED, AbrAlgorithm, AbrContext


class Festive(AbrAlgorithm):
    """Throughput-based adaptation with harmonic-mean smoothing."""

    name = "festive"
    category = THROUGHPUT_BASED

    def __init__(self, window: int = 5, efficiency: float = 0.85):
        if not 0 < efficiency <= 1:
            raise ValueError(f"efficiency must be in (0, 1]: {efficiency!r}")
        self.window = window
        self.efficiency = efficiency
        self._estimator = HarmonicMean(window)
        self._chunks_above_current = 0

    def reset(self) -> None:
        self._estimator.reset()
        self._chunks_above_current = 0

    def on_chunk_downloaded(self, record: ChunkRecord) -> None:
        self._estimator.update(record.throughput)

    def _estimate(self, ctx: AbrContext) -> float:
        if ctx.override_throughput is not None:
            return ctx.override_throughput
        value = self._estimator.predict()
        if value is not None:
            return value
        if ctx.measured_throughput is not None:
            return ctx.measured_throughput
        return 0.0

    def _target_level(self, ctx: AbrContext) -> int:
        usable = self.efficiency * self._estimate(ctx)
        level = 0
        for index, bitrate in enumerate(ctx.manifest.bitrates()):
            if bitrate <= usable:
                level = index
        return level

    def choose_level(self, ctx: AbrContext) -> int:
        current = ctx.current_level
        if current is None:
            return self.initial_level(ctx.manifest)
        target = self._target_level(ctx)
        if target > current:
            self._chunks_above_current += 1
            # Evidence requirement scales with the level being entered.
            if self._chunks_above_current >= current + 1:
                self._chunks_above_current = 0
                return current + 1
            return current
        self._chunks_above_current = 0
        if target < current:
            return current - 1  # gradual downswitch, immediate
        return current
