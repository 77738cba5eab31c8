"""Non-seasonal Holt-Winters (double exponential smoothing) predictor.

This is the estimator MP-DASH uses in the kernel (§6): more robust than EWMA
for non-stationary series because it models a local linear *trend* in
addition to the level.  Parameters follow He et al., "On the Predictability
of Large Transfer TCP Throughput" (SIGCOMM 2005), which the paper cites for
its settings.

Update equations, for observation ``y_t``::

    level_t = alpha * y_t + (1 - alpha) * (level_{t-1} + trend_{t-1})
    trend_t = beta * (level_t - level_{t-1}) + (1 - beta) * trend_{t-1}
    forecast = level_t + trend_t
"""

from __future__ import annotations

from typing import Optional

from .base import ThroughputEstimator

#: Smoothing parameters suggested by He et al. for TCP throughput series.
DEFAULT_ALPHA = 0.4
DEFAULT_BETA = 0.4


class HoltWinters(ThroughputEstimator):
    """Online non-seasonal Holt-Winters forecaster."""

    def __init__(self, alpha: float = DEFAULT_ALPHA,
                 beta: float = DEFAULT_BETA):
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1]: {alpha!r}")
        if not 0 < beta <= 1:
            raise ValueError(f"beta must be in (0, 1]: {beta!r}")
        self.alpha = alpha
        self.beta = beta
        self._level: Optional[float] = None
        self._trend: float = 0.0
        self._count = 0

    def update(self, observation: float) -> None:
        if observation < 0:
            raise ValueError(f"throughput cannot be negative: {observation!r}")
        if self._level is None:
            self._level = observation
            self._trend = 0.0
        else:
            previous_level = self._level
            self._level = (self.alpha * observation
                           + (1 - self.alpha) * (self._level + self._trend))
            self._trend = (self.beta * (self._level - previous_level)
                           + (1 - self.beta) * self._trend)
        self._count += 1

    def predict(self, horizon: int = 1) -> Optional[float]:
        """Forecast ``horizon`` steps ahead (never below zero)."""
        if self._level is None:
            return None
        return max(0.0, self._level + horizon * self._trend)

    def level(self) -> Optional[float]:
        return self.predict(0)

    def reset(self) -> None:
        self._level = None
        self._trend = 0.0
        self._count = 0

    @property
    def observations(self) -> int:
        return self._count

    def __repr__(self) -> str:
        if self._level is None:
            return "<HoltWinters cold>"
        return (f"<HoltWinters level={self._level:.1f} "
                f"trend={self._trend:+.1f} n={self._count}>")
