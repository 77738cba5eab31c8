"""Common interface for throughput estimators.

MP-DASH needs a running estimate of each subflow's throughput (the
``R_WiFi`` of Algorithm 1).  The paper uses a non-seasonal Holt-Winters
predictor; EWMA and harmonic-mean estimators are provided as baselines and
for the FESTIVE rate-adaptation algorithm (which specifies harmonic mean).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional


class ThroughputEstimator(ABC):
    """Online one-step-ahead predictor of a throughput series."""

    @abstractmethod
    def update(self, observation: float) -> None:
        """Feed one throughput observation (bytes/second)."""

    @abstractmethod
    def predict(self) -> Optional[float]:
        """Predicted next-step throughput, or None before any observation."""

    @abstractmethod
    def reset(self) -> None:
        """Discard all state."""

    def level(self) -> Optional[float]:
        """The estimate with no trend extrapolated, or None before any
        observation; trend-free estimators return their prediction."""
        return self.predict()

    def predict_or(self, default: float) -> float:
        """Prediction with a fallback for the cold-start case."""
        value = self.predict()
        return default if value is None else value
