"""MPC rate adaptation (Yin et al., SIGCOMM 2015) — the §5.2.3 extension.

MPC is the *hybrid* category: it combines a throughput prediction with the
buffer occupancy by solving, at each chunk boundary, a small finite-horizon
optimization — pick the level sequence over the next ``horizon`` chunks
maximizing a QoE objective (average quality, minus switching penalty, minus
a large rebuffering penalty), then apply only the first decision and
re-solve at the next chunk (receding horizon).

The paper leaves MP-DASH + MPC as future work but sketches the design: the
chunk deadline becomes the chunk size over the minimum throughput the
chosen level requires, and the Φ/Ω machinery is reused from the
throughput-based rules.  This module implements the algorithm so that the
sketch is runnable; the adapter treats HYBRID like THROUGHPUT_BASED.

The implementation brute-forces the level tree with one pruning rule
(consecutive levels may differ by at most ``max_step``), which keeps the
search exact for the paper-scale 5-level ladders while bounding cost.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..dash.events import ChunkRecord
from ..estimators.harmonic import HarmonicMean
from .base import HYBRID, AbrAlgorithm, AbrContext


class Mpc(AbrAlgorithm):
    """Receding-horizon QoE optimization over predicted throughput."""

    name = "mpc"
    category = HYBRID

    def __init__(self, horizon: int = 4, switch_penalty: float = 1.0,
                 rebuffer_penalty: float = 40.0, window: int = 5,
                 max_step: int = 2, robust: bool = False):
        """``robust`` enables RobustMPC's error discounting: the prediction
        is divided by ``1 + max recent relative error``, so a predictor
        that has been over-optimistic lately gets trusted less."""
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1: {horizon!r}")
        if max_step < 1:
            raise ValueError(f"max_step must be >= 1: {max_step!r}")
        self.horizon = horizon
        self.switch_penalty = switch_penalty
        self.rebuffer_penalty = rebuffer_penalty
        self.max_step = max_step
        self.robust = robust
        self._estimator = HarmonicMean(window)
        self._recent_errors: List[float] = []
        self._error_window = window
        self._last_prediction: Optional[float] = None

    def reset(self) -> None:
        self._estimator.reset()
        self._recent_errors = []
        self._last_prediction = None

    def on_chunk_downloaded(self, record: ChunkRecord) -> None:
        if self._last_prediction is not None and record.throughput > 0:
            # Relative over-prediction; under-predictions are harmless.
            error = max(0.0, (self._last_prediction - record.throughput)
                        / record.throughput)
            self._recent_errors.append(error)
            if len(self._recent_errors) > self._error_window:
                self._recent_errors.pop(0)
        self._estimator.update(record.throughput)

    def _prediction(self, ctx: AbrContext) -> Optional[float]:
        if ctx.override_throughput is not None:
            value = ctx.override_throughput
        else:
            value = self._estimator.predict()
            if value is None:
                value = ctx.measured_throughput
        if value is None:
            return None
        self._last_prediction = value
        if self.robust and self._recent_errors:
            value = value / (1.0 + max(self._recent_errors))
        return value

    def choose_level(self, ctx: AbrContext) -> int:
        current = ctx.current_level
        if current is None:
            return self.initial_level(ctx.manifest)
        prediction = self._prediction(ctx)
        if prediction is None or prediction <= 0:
            return current

        bitrates = ctx.manifest.bitrates()
        chunk_duration = ctx.manifest.chunk_duration
        chunks_left = ctx.manifest.num_chunks - ctx.next_chunk_index
        steps = min(self.horizon, max(1, chunks_left))
        # With fewer samples than the smoothing window wants, a single fast
        # chunk would let the optimizer leap several rungs and stall a thin
        # startup buffer; move one rung at a time until the estimate is
        # grounded.
        max_step = self.max_step
        if self._estimator.sample_count < 3:
            max_step = 1
        return self._argmax_first(ctx, prediction, bitrates, chunk_duration,
                                  steps, current, max_step)

    # ------------------------------------------------------------------
    # Receding-horizon search
    # ------------------------------------------------------------------
    def _argmax_first(self, ctx: AbrContext, prediction: float,
                      bitrates, chunk_duration: float, steps: int,
                      current: int, max_step: Optional[int] = None) -> int:
        if max_step is None:
            max_step = self.max_step
        best = (-float("inf"), current)

        def recurse(depth: int, buffer_level: float, qoe: float,
                    previous: int, first: Optional[int]) -> None:
            nonlocal best
            if depth == steps:
                if qoe > best[0]:
                    best = (qoe, first if first is not None else current)
                return
            for level in self._neighbors(previous, len(bitrates), max_step):
                new_qoe, new_buffer = self._step(
                    qoe, buffer_level, previous, level, bitrates,
                    chunk_duration, prediction, ctx.buffer_capacity,
                    ctx.next_chunk_index + depth, ctx)
                recurse(depth + 1, new_buffer, new_qoe, level,
                        level if first is None else first)

        recurse(0, ctx.buffer_level, 0.0, current, None)
        # The closure refers to itself through this cell: clear it, so
        # each decision's search is freed by reference count.
        recurse = None
        return best[1]

    def _neighbors(self, level: int, num_levels: int,
                   max_step: Optional[int] = None) -> range:
        if max_step is None:
            max_step = self.max_step
        low = max(0, level - max_step)
        high = min(num_levels - 1, level + max_step)
        return range(low, high + 1)

    def _step(self, qoe: float, buffer_level: float, previous: int,
              level: int, bitrates, chunk_duration: float, prediction: float,
              capacity: float, chunk_index: int, ctx: AbrContext
              ) -> Tuple[float, float]:
        """Simulate downloading one chunk at ``level``; return updated QoE
        and buffer."""
        size = self._chunk_size(ctx, level, chunk_index, bitrates,
                                chunk_duration)
        download_time = size / prediction
        rebuffer = max(0.0, download_time - buffer_level)
        buffer_level = max(0.0, buffer_level - download_time)
        buffer_level = min(capacity, buffer_level + chunk_duration)
        quality = bitrates[level] * 8.0 / 1e6  # Mbps, the MPC q() choice
        previous_quality = bitrates[previous] * 8.0 / 1e6
        qoe += (quality
                - self.switch_penalty * abs(quality - previous_quality)
                - self.rebuffer_penalty * rebuffer)
        return qoe, buffer_level

    def _chunk_size(self, ctx: AbrContext, level: int, chunk_index: int,
                    bitrates, chunk_duration: float) -> float:
        """Future chunk size: nominal bitrate × duration (the manifest does
        not expose future VBR sizes to the player)."""
        return bitrates[level] * chunk_duration
