"""Slot-granularity trace-driven simulation of Algorithm 1 (§7.2.2).

The paper evaluates the online scheduler against the offline optimum by
replaying bandwidth profiles through a discrete-time simulator: each slot
lasts one round-trip time, enabled interfaces deliver ``b(i, j)·d`` bytes,
the WiFi estimate comes from the Holt-Winters predictor, and Algorithm 1
decides per slot whether the cellular interface runs.  Once the deadline
passes, both interfaces are always used.

This module is that simulator.  It is deliberately separate from the full
event-driven transport (``repro.mptcp``): Table 2 isolates the *scheduling*
quality from TCP dynamics, exactly as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from ..estimators.base import ThroughputEstimator
from ..estimators.holt_winters import HoltWinters
from .policy import enabled_prefix, require_positive


@dataclass
class TraceSimResult:
    """Outcome of one trace-driven scheduling run."""

    #: Bytes delivered per interface name.
    bytes_per_path: Dict[str, float]
    #: Seconds from start until the last needed byte.
    finish_time: float
    #: Whether the transfer missed its deadline.
    missed: bool
    #: By how much (seconds); zero when met.
    miss_by: float
    total_bytes: float = 0.0

    def __post_init__(self) -> None:
        self.total_bytes = sum(self.bytes_per_path.values())

    def fraction_on(self, path: str) -> float:
        if self.total_bytes <= 0:
            return 0.0
        return self.bytes_per_path.get(path, 0.0) / self.total_bytes


def simulate_online(preferred: Sequence[float], costly: Sequence[float],
                    slot: float, size: float, deadline: float,
                    alpha: float = 1.0,
                    estimator_factory: Optional[
                        Callable[[], ThroughputEstimator]] = None,
                    preferred_name: str = "wifi",
                    costly_name: str = "cellular") -> TraceSimResult:
    """Run Algorithm 1 over recorded per-slot bandwidths.

    ``preferred`` and ``costly`` are per-slot bandwidths (bytes/second) of
    the preferred (WiFi) and costly (cellular) interfaces.  The preferred
    interface runs at full capacity throughout; the costly one starts
    disabled and is toggled by the deadline test each slot.  Slots past the
    recorded horizon wrap around, as in trace replay.
    """
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1]: {alpha!r}")
    require_positive(slot=slot, size=size, deadline=deadline)
    if not preferred or not costly:
        raise ValueError("bandwidth series cannot be empty")
    factory = estimator_factory if estimator_factory else HoltWinters
    estimator = factory()

    sent = 0.0
    sent_preferred = 0.0
    sent_costly = 0.0
    costly_enabled = False
    missed = False
    time = 0.0
    finish = 0.0
    j = 0
    while sent < size:
        bw_preferred = preferred[j % len(preferred)]
        bw_costly = costly[j % len(costly)]

        remaining_before = size - sent
        combined_rate = bw_preferred + (bw_costly if costly_enabled else 0.0)
        take_preferred = min(bw_preferred * slot, remaining_before)
        sent += take_preferred
        sent_preferred += take_preferred
        remaining = size - sent
        if costly_enabled and remaining > 0:
            take_costly = min(bw_costly * slot, remaining)
            sent += take_costly
            sent_costly += take_costly

        estimator.update(bw_preferred)
        time += slot
        j += 1
        if sent >= size:
            # Resolve completion within the final slot: both paths deliver
            # concurrently at their combined rate.
            if combined_rate > 0:
                finish = time - slot + remaining_before / combined_rate
            else:
                finish = time
            break

        if time >= deadline:
            # Deadline passed: MP-DASH deactivates, all interfaces run.
            missed = True
            costly_enabled = True
            continue

        _, costly_enabled = enabled_prefix(
            (estimator.predict_or(bw_preferred), bw_costly), size - sent,
            alpha * deadline - time)

    miss_by = max(0.0, finish - deadline)
    return TraceSimResult(
        bytes_per_path={preferred_name: sent_preferred,
                        costly_name: sent_costly},
        finish_time=finish, missed=missed or finish > deadline,
        miss_by=miss_by)


def simulate_oracle(preferred: Sequence[float], costly: Sequence[float],
                    slot: float, size: float, deadline: float,
                    preferred_name: str = "wifi",
                    costly_name: str = "cellular") -> TraceSimResult:
    """Algorithm 1 with perfect knowledge of future preferred-path bandwidth.

    §4 proves this yields the minimum cellular usage for N=2: with the true
    future capacity of the preferred path known, cellular is enabled exactly
    in the slots where the remaining WiFi capacity until the deadline cannot
    cover the remaining bytes.
    """
    require_positive(slot=slot, size=size, deadline=deadline)
    num_slots = max(1, int(round(deadline / slot)))

    def bw_at(series: Sequence[float], j: int) -> float:
        return series[j % len(series)]

    # Suffix sums of preferred-path capacity within the deadline window.
    future_preferred = [0.0] * (num_slots + 1)
    for j in range(num_slots - 1, -1, -1):
        future_preferred[j] = (future_preferred[j + 1]
                               + bw_at(preferred, j) * slot)

    sent = 0.0
    sent_preferred = 0.0
    sent_costly = 0.0
    time = 0.0
    finish = 0.0
    j = 0
    while sent < size:
        remaining_before = size - sent
        use_costly = False
        if j + 1 <= num_slots:
            wifi_this_slot = bw_at(preferred, j) * slot
            # Enable cellular this slot iff the preferred path alone cannot
            # finish within the remaining window (this slot included).
            if (wifi_this_slot + future_preferred[min(j + 1, num_slots)]
                    < remaining_before):
                use_costly = True
        else:
            # Past the deadline (infeasible instance): use everything.
            use_costly = True

        combined_rate = bw_at(preferred, j) + (
            bw_at(costly, j) if use_costly else 0.0)
        take_preferred = min(bw_at(preferred, j) * slot, remaining_before)
        sent += take_preferred
        sent_preferred += take_preferred
        remaining = size - sent
        if use_costly and remaining > 0:
            take_costly = min(bw_at(costly, j) * slot, remaining)
            sent += take_costly
            sent_costly += take_costly
        time += slot
        j += 1
        if sent >= size:
            if combined_rate > 0:
                finish = time - slot + remaining_before / combined_rate
            else:
                finish = time
            break

    miss_by = max(0.0, finish - deadline)
    return TraceSimResult(
        bytes_per_path={preferred_name: sent_preferred,
                        costly_name: sent_costly},
        finish_time=finish, missed=finish > deadline, miss_by=miss_by)
