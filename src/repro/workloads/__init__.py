"""Workloads: videos, bandwidth profiles, locations, mobility, arrivals."""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "arrivals": ("ARRIVAL_DIURNAL ARRIVAL_MODELS ARRIVAL_POISSON "
                 "DEFAULT_DEVICE_MIX DIURNAL_CURVE SessionArrivals "
                 "SessionDraw"),
    "locations": ("Location SCENARIO_ALWAYS SCENARIO_COUNTS SCENARIO_NEVER "
                  "SCENARIO_SOMETIMES TABLE5_LOCATIONS TOP_BITRATE_MBPS "
                  "field_study_locations location_by_name"),
    "mobility": "MobilityScenario",
    "synthetic": ("BandwidthProfile coffeehouse_profile fast_food_profile "
                  "office_profile synthetic_profile table1_profiles"),
    "videos": ("DEFAULT_CHUNK_DURATION DEFAULT_DURATION VIDEO_LADDERS "
               "video_asset video_names"),
})
