"""The 33-location field-study catalog (§2.2, §7.3.3, Table 5).

The paper measures open WiFi and commercial LTE at 33 public places in
three U.S. states and groups them into three scenarios relative to the top
1080p encoding bitrate (3.94 Mbps):

1. WiFi alone can **never** sustain the top bitrate — 64% of locations,
2. WiFi **sometimes** can, but not stably — 15%,
3. WiFi can **almost always** sustain it — 21%.

We cannot replay the authors' captures, so the catalog below synthesizes a
deterministic stand-in: the seven locations Table 5 names keep their exact
measured mean bandwidths and RTTs, and the remaining 26 are generated to
complete the 21/5/7 scenario split.  Scenario-1 locations get means below
the top bitrate, scenario-2 locations hover above it with heavy
fluctuation and dropout windows, scenario-3 locations sit comfortably
above.  Every trace is seeded by the location's index, so the whole field
study is exactly reproducible.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Tuple

# numpy is imported inside the functions that use it, so reading a trace
# never loads it (docs/architecture.md, "Import boundary").

from ..net.link import Path, cellular_path, wifi_path
from ..net.trace import BandwidthTrace
from ..net.units import mbps

#: Highest non-HD encoding bitrate (Big Buck Bunny level 5), Mbps.
TOP_BITRATE_MBPS = 3.94

SCENARIO_NEVER = 1
SCENARIO_SOMETIMES = 2
SCENARIO_ALWAYS = 3

#: Scenario population: 64% / 15% / 21% of 33 locations.
SCENARIO_COUNTS = {SCENARIO_NEVER: 21, SCENARIO_SOMETIMES: 5,
                   SCENARIO_ALWAYS: 7}


@dataclass(frozen=True)
class Location:
    """One field-study site."""

    name: str
    scenario: int
    wifi_mbps: float
    wifi_rtt_ms: float
    lte_mbps: float
    lte_rtt_ms: float
    #: WiFi fluctuation (std-dev as a fraction of the mean).
    wifi_sigma: float
    #: Dropout windows (start, end) overlaid on the WiFi trace.
    dropouts: tuple
    seed: int

    def wifi_trace(self, duration: float = 700.0) -> BandwidthTrace:
        trace = BandwidthTrace.random_walk(
            mbps(self.wifi_mbps), self.wifi_sigma, duration,
            interval=0.5, seed=self.seed)
        if self.dropouts:
            trace = BandwidthTrace.with_dropouts(
                trace, list(self.dropouts),
                floor_bytes_per_s=mbps(0.1 * self.wifi_mbps))
        return trace

    def lte_trace(self, duration: float = 700.0) -> BandwidthTrace:
        return BandwidthTrace.random_walk(
            mbps(self.lte_mbps), 0.15, duration,
            interval=0.5, seed=self.seed + 50_000)

    def paths(self, duration: float = 700.0) -> List[Path]:
        """WiFi + LTE paths for a streaming session at this location."""
        return [
            wifi_path(trace=self.wifi_trace(duration),
                      rtt_ms=self.wifi_rtt_ms),
            cellular_path(trace=self.lte_trace(duration),
                          rtt_ms=self.lte_rtt_ms),
        ]


#: The seven Table-5 locations with their measured means (BW Mbps, RTT ms).
TABLE5_LOCATIONS = [
    Location("hotel_hi", SCENARIO_NEVER, 2.92, 14.1, 11.0, 51.9,
             wifi_sigma=0.25, dropouts=(), seed=101),
    Location("hotel_ha", SCENARIO_NEVER, 2.96, 40.8, 14.0, 68.6,
             wifi_sigma=0.25, dropouts=(), seed=102),
    Location("food_market", SCENARIO_NEVER, 3.58, 75.4, 22.9, 53.4,
             wifi_sigma=0.10, dropouts=(), seed=103),
    Location("airport", SCENARIO_SOMETIMES, 5.97, 32.2, 12.1, 67.3,
             wifi_sigma=0.45, dropouts=((110.0, 130.0), (340.0, 365.0)),
             seed=104),
    Location("coffeehouse", SCENARIO_SOMETIMES, 6.04, 28.9, 18.1, 69.0,
             wifi_sigma=0.45, dropouts=((200.0, 218.0), (470.0, 490.0)),
             seed=105),
    Location("library", SCENARIO_ALWAYS, 17.8, 23.3, 5.18, 64.1,
             wifi_sigma=0.20, dropouts=(), seed=106),
    Location("electronics_store", SCENARIO_ALWAYS, 28.4, 10.8, 18.5, 59.4,
             wifi_sigma=0.15, dropouts=(), seed=107),
]

_GENERATED_KINDS = [
    "restaurant", "shopping_mall", "retailer", "grocery", "parking_lot",
    "food_court", "bookstore", "pharmacy", "gas_station", "bakery",
    "diner", "museum", "gym", "bus_station", "hardware_store", "cinema",
    "bar", "pizzeria", "tea_house", "office_building", "supermarket",
    "convenience_store", "department_store", "hotel_lobby", "university",
    "stadium",
]


def _generate_remaining() -> List[Location]:
    """Deterministically fill the catalog to the 21/5/7 scenario split."""
    named_counts = {s: sum(1 for loc in TABLE5_LOCATIONS
                           if loc.scenario == s)
                    for s in SCENARIO_COUNTS}
    needed = {s: SCENARIO_COUNTS[s] - named_counts[s]
              for s in SCENARIO_COUNTS}
    import numpy as np

    rng = np.random.default_rng(2016)
    generated: List[Location] = []
    kind_index = 0
    for scenario in (SCENARIO_NEVER, SCENARIO_SOMETIMES, SCENARIO_ALWAYS):
        for _ in range(needed[scenario]):
            kind = _GENERATED_KINDS[kind_index]
            kind_index += 1
            if scenario == SCENARIO_NEVER:
                # Comfortably below the 3.94 Mbps top bitrate even with
                # fluctuation: "never able to support the highest bitrate".
                wifi = float(rng.uniform(0.8, 3.2))
                sigma = float(rng.uniform(0.10, 0.20))
                dropouts = ()
            elif scenario == SCENARIO_SOMETIMES:
                wifi = float(rng.uniform(4.3, 7.0))
                sigma = float(rng.uniform(0.4, 0.55))
                start1 = float(rng.uniform(80, 250))
                start2 = float(rng.uniform(300, 520))
                dropouts = ((start1, start1 + float(rng.uniform(10, 30))),
                            (start2, start2 + float(rng.uniform(10, 30))))
            else:
                wifi = float(rng.uniform(9.0, 30.0))
                sigma = float(rng.uniform(0.1, 0.2))
                dropouts = ()
            lte = float(rng.uniform(5.0, 24.0))
            generated.append(Location(
                name=kind, scenario=scenario,
                wifi_mbps=round(wifi, 2),
                wifi_rtt_ms=round(float(rng.uniform(8, 80)), 1),
                lte_mbps=round(lte, 2),
                lte_rtt_ms=round(float(rng.uniform(45, 75)), 1),
                wifi_sigma=round(sigma, 3), dropouts=dropouts,
                seed=200 + kind_index))
    return generated


@functools.lru_cache(maxsize=None)
def field_study_catalog() -> Tuple[Location, ...]:
    """The full 33-location catalog (7 named from Table 5 + 26 generated),
    built once per process."""
    catalog = tuple(TABLE5_LOCATIONS) + tuple(_generate_remaining())
    counts = {s: sum(1 for loc in catalog if loc.scenario == s)
              for s in SCENARIO_COUNTS}
    assert counts == SCENARIO_COUNTS, counts
    assert len(catalog) == 33
    return catalog


def field_study_locations() -> List[Location]:
    """The full 33-location catalog as a fresh list."""
    return list(field_study_catalog())


def location_by_name(name: str) -> Location:
    for location in field_study_catalog():
        if location.name == name:
            return location
    raise KeyError(f"unknown location {name!r}")
