"""Empirical CDF helpers for the field-study figures (Figures 9 and 10)."""

from __future__ import annotations

from typing import List, Sequence, Tuple

# numpy is imported inside the functions that use it, so reading a trace
# never loads it (docs/architecture.md, "Import boundary").


def empirical_cdf(values: Sequence[float]) -> Tuple[List[float], List[float]]:
    """Sorted values and their cumulative probabilities in (0, 1]."""
    if not values:
        raise ValueError("cannot build a CDF from no values")
    ordered = sorted(values)
    n = len(ordered)
    return ordered, [(i + 1) / n for i in range(n)]


def percentile(values: Sequence[float], p: float) -> float:
    """The p-th percentile (0 <= p <= 100), linear interpolation."""
    if not values:
        raise ValueError("cannot take a percentile of no values")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0, 100]: {p!r}")
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), p))


def quartile_summary(values: Sequence[float]) -> Tuple[float, float, float]:
    """(25th, 50th, 75th) percentiles — the format Figure 9 is quoted in."""
    return (percentile(values, 25), percentile(values, 50),
            percentile(values, 75))


def fraction_at_most(values: Sequence[float], threshold: float) -> float:
    """CDF evaluated at ``threshold``."""
    if not values:
        raise ValueError("cannot evaluate a CDF of no values")
    return sum(1 for v in values if v <= threshold) / len(values)
