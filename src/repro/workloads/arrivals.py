"""Session-arrival workload models for fleet-scale campaigns.

MP-DASH's evaluation makes *population* claims — QoE, cellular-byte
savings, and deadline-miss rates across many users, locations, and
devices — so the fleet layer needs a workload that describes who streams
what, where, and when.  :class:`SessionArrivals` is that description: a
lazy, deterministic catalog of sessions, each drawn from

* an **arrival process** over a campaign horizon — ``poisson``
  (homogeneous: conditioned on N arrivals in [0, T), the arrival times
  are iid uniform, the order-statistics property of the Poisson
  process) or ``diurnal`` (inhomogeneous: inverse-CDF sampling over a
  piecewise-constant 24-hour intensity curve tiled across the horizon);
* the 33-location field-study catalog (§2.2, uniform — which reproduces
  the paper's 64/15/21 scenario split in expectation);
* a device mix over the energy model's handset catalog; and
* a WiFi-only fraction modelling users with no cellular plan or with
  cellular disabled.

Determinism is *per-session*, not sequential: ``draw(i)`` derives its
RNG from the seed pair ``(seed, i)`` (a numpy ``SeedSequence`` spawn
key), so any shard of a fleet can materialize any session without
replaying the draws before it, and two fleets with the same seed agree
draw-for-draw no matter how the index space is partitioned.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import (Any, Dict, Iterator, List, Mapping, Optional, Sequence,
                    Tuple)

# numpy is imported inside the functions that use it, so reading a trace
# never loads it (docs/architecture.md, "Import boundary").

from .locations import Location, field_study_catalog

ARRIVAL_POISSON = "poisson"
ARRIVAL_DIURNAL = "diurnal"
ARRIVAL_MODELS = (ARRIVAL_POISSON, ARRIVAL_DIURNAL)

#: Relative arrival intensity per local hour (0-23): a residential
#: viewing curve with a deep overnight trough, a daytime plateau, and an
#: evening prime-time peak.  Only ratios matter — the fleet fixes the
#: total session count, and the curve shapes *when* those sessions start.
DIURNAL_CURVE = (
    0.35, 0.25, 0.18, 0.14, 0.12, 0.15,
    0.25, 0.45, 0.65, 0.75, 0.80, 0.85,
    0.90, 0.85, 0.80, 0.85, 0.90, 1.00,
    1.20, 1.40, 1.50, 1.30, 0.95, 0.60,
)

#: Default handset mix over :data:`repro.energy.devices.DEVICES`.
DEFAULT_DEVICE_MIX: Dict[str, float] = {"galaxy_note": 0.7,
                                        "galaxy_s3": 0.3}


@dataclass(frozen=True)
class SessionDraw:
    """Everything random about one session, resolved to plain values.

    A draw is deliberately *not* a config: it carries names and seeds,
    never live objects, so it is tiny, picklable, and independent of the
    experiment layer.  ``trace_seed`` seeds the session's private
    bandwidth traces — sessions at the same location see different
    channel realizations around the same measured means.
    """

    index: int
    arrival: float
    location: str
    scenario: int
    device: str
    wifi_only: bool
    trace_seed: int

    @property
    def arrival_hour(self) -> float:
        """Local hour-of-day of the arrival (horizon hours wrap at 24)."""
        return (self.arrival / 3600.0) % 24.0


class SessionArrivals:
    """A deterministic, lazily-materialized session workload.

    ``draw(i)`` is a pure function of ``(seed, i)`` and the constructor
    arguments — O(1) per call, no sequential RNG state — which is what
    lets the fleet engine hand disjoint index ranges to workers and
    still produce a byte-identical population for any sharding.
    """

    def __init__(self, sessions: int, arrival: str = ARRIVAL_POISSON,
                 horizon: float = 86400.0, seed: int = 0,
                 wifi_only_fraction: float = 0.05,
                 device_mix: Optional[Mapping[str, float]] = None):
        if sessions < 0:
            raise ValueError(f"sessions cannot be negative: {sessions!r}")
        if arrival not in ARRIVAL_MODELS:
            raise ValueError(f"unknown arrival model {arrival!r}; "
                             f"known: {', '.join(ARRIVAL_MODELS)}")
        if horizon <= 0:
            raise ValueError(f"horizon must be positive: {horizon!r}")
        if not 0.0 <= wifi_only_fraction <= 1.0:
            raise ValueError(f"wifi_only_fraction must be in [0, 1]: "
                             f"{wifi_only_fraction!r}")
        mix = dict(device_mix if device_mix is not None
                   else DEFAULT_DEVICE_MIX)
        if not mix or any(w < 0 for w in mix.values()) \
                or sum(mix.values()) <= 0:
            raise ValueError(f"device_mix needs positive weights: {mix!r}")
        self.sessions = int(sessions)
        self.arrival = arrival
        self.horizon = float(horizon)
        self.seed = int(seed)
        self.wifi_only_fraction = float(wifi_only_fraction)
        self.device_mix = mix
        self._locations: Sequence[Location] = field_study_catalog()
        # Device CDF in sorted-name order (dict order must not matter).
        names = sorted(mix)
        total = sum(mix[name] for name in names)
        self._device_names = names
        import numpy as np

        self._device_cdf = list(np.cumsum(
            [mix[name] / total for name in names]))
        self._hour_cdf: Optional[List[float]] = None
        if arrival == ARRIVAL_DIURNAL:
            self._hour_cdf = self._build_hour_cdf()

    def _build_hour_cdf(self) -> List[float]:
        """Cumulative arrival mass per hour cell, tiled over the horizon."""
        cells = max(1, math.ceil(self.horizon / 3600.0))
        weights = []
        for cell in range(cells):
            width = min(3600.0, self.horizon - cell * 3600.0)
            weights.append(DIURNAL_CURVE[cell % 24] * width)
        total = sum(weights)
        import numpy as np

        return list(np.cumsum([w / total for w in weights]))

    def _arrival_time(self, rng: Any) -> float:
        """An arrival time drawn from ``rng`` (a numpy ``Generator``)."""
        if self._hour_cdf is None:
            # Conditioned on the count, homogeneous-Poisson arrival
            # times are iid uniform over the horizon.
            return float(rng.uniform(0.0, self.horizon))
        cell = bisect_right(self._hour_cdf, float(rng.random()))
        cell = min(cell, len(self._hour_cdf) - 1)
        start = cell * 3600.0
        width = min(3600.0, self.horizon - start)
        return min(start + float(rng.random()) * width,
                   math.nextafter(self.horizon, 0.0))

    def _pick_device(self, u: float) -> str:
        cell = bisect_right(self._device_cdf, u)
        return self._device_names[min(cell, len(self._device_names) - 1)]

    def draw(self, index: int) -> SessionDraw:
        """Materialize session ``index`` — O(1), order-independent."""
        if not 0 <= index < self.sessions:
            raise IndexError(f"session index {index} outside "
                             f"[0, {self.sessions})")
        import numpy as np

        rng = np.random.default_rng((self.seed, index))
        arrival = self._arrival_time(rng)
        location = self._locations[int(rng.integers(len(self._locations)))]
        device = self._pick_device(float(rng.random()))
        wifi_only = bool(rng.random() < self.wifi_only_fraction)
        trace_seed = int(rng.integers(1, 2**31 - 1))
        return SessionDraw(index=index, arrival=arrival,
                           location=location.name,
                           scenario=location.scenario, device=device,
                           wifi_only=wifi_only, trace_seed=trace_seed)

    def draws(self, start: int = 0,
              stop: Optional[int] = None) -> Iterator[SessionDraw]:
        """Lazily yield draws for the index range ``[start, stop)``."""
        stop = self.sessions if stop is None else min(stop, self.sessions)
        for index in range(start, stop):
            yield self.draw(index)
