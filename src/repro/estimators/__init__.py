"""Throughput estimators: Holt-Winters (the paper's choice), EWMA, harmonic."""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "base": "ThroughputEstimator",
    "ewma": "Ewma",
    "harmonic": "HarmonicMean",
    "holt_winters": "HoltWinters",
})
