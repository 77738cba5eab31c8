"""Tests for the workload catalog (videos, profiles, locations, mobility)."""

import pytest

from repro.net.units import mbps, to_mbps
from repro.workloads import (MobilityScenario, SCENARIO_ALWAYS,
                             SCENARIO_COUNTS, SCENARIO_NEVER,
                             SCENARIO_SOMETIMES, TABLE5_LOCATIONS,
                             TOP_BITRATE_MBPS, VIDEO_LADDERS,
                             coffeehouse_profile, fast_food_profile,
                             field_study_locations, location_by_name,
                             office_profile, synthetic_profile,
                             table1_profiles, video_asset, video_names)


class TestVideos:
    def test_table3_ladders_verbatim(self):
        assert VIDEO_LADDERS["big_buck_bunny"] == (0.58, 1.01, 1.47, 2.41,
                                                   3.94)
        assert VIDEO_LADDERS["tears_of_steel_hd"][-1] == 10.0

    def test_four_videos(self):
        assert len(video_names()) == 4

    def test_asset_matches_ladder(self):
        asset = video_asset("big_buck_bunny")
        assert asset.num_levels == 5
        assert asset.level(4).bitrate == pytest.approx(mbps(3.94))
        assert asset.num_chunks == 150  # 600 s / 4 s
        assert asset.chunk_duration == 4.0

    def test_asset_deterministic(self):
        a = video_asset("tears_of_steel")
        # A fresh build, past the cache, must match the shared one.
        b = video_asset.__wrapped__("tears_of_steel")
        assert a is not b
        assert all(a.chunk_size(level, index) == b.chunk_size(level, index)
                   for level in range(a.num_levels)
                   for index in range(a.num_chunks))

    def test_asset_is_shared_and_immutable(self):
        a = video_asset("big_buck_bunny", chunk_duration=4.0, duration=20.0)
        assert video_asset("big_buck_bunny", chunk_duration=4.0,
                           duration=20.0) is a
        assert isinstance(a.levels, tuple)
        with pytest.raises(TypeError):
            a.levels[0] = a.levels[1]

    def test_unknown_video_rejected(self):
        with pytest.raises(KeyError):
            video_asset("cats")

    def test_custom_chunk_duration(self):
        asset = video_asset("big_buck_bunny", chunk_duration=10.0)
        assert asset.num_chunks == 60


class TestSyntheticProfiles:
    def test_table1_complete(self):
        profiles = table1_profiles()
        assert len(profiles) == 5
        assert "synthetic-10pct" in profiles
        assert "office" in profiles

    def test_synthetic_means(self):
        p = synthetic_profile(0.10)
        assert p.wifi.mean_bandwidth() == pytest.approx(mbps(3.8), rel=0.05)
        assert p.cellular.mean_bandwidth() == pytest.approx(mbps(3.0),
                                                            rel=0.05)
        assert p.file_size == 5_000_000
        assert p.deadlines == (8.0, 9.0, 10.0)

    def test_sigma_changes_variability(self):
        calm = synthetic_profile(0.10, seed=1)
        wild = synthetic_profile(0.30, seed=1)

        def spread(trace):
            samples = trace.samples(0.25, 60.0)
            return max(samples) - min(samples)

        assert spread(wild.wifi) > spread(calm.wifi)

    def test_real_location_profiles_match_table1(self):
        assert fast_food_profile().wifi_mean_mbps == 5.2
        assert coffeehouse_profile().cellular_mean_mbps == 7.6
        assert office_profile().file_size == 50_000_000

    def test_slot_series_lengths_match(self):
        p = fast_food_profile()
        wifi, cell = p.slot_series(0.05, 20.0)
        assert len(wifi) == len(cell) == 400

    def test_invalid_sigma_rejected(self):
        with pytest.raises(ValueError):
            synthetic_profile(0.0)


class TestLocations:
    def test_catalog_has_33_locations(self):
        assert len(field_study_locations()) == 33

    def test_scenario_split_64_15_21(self):
        locations = field_study_locations()
        counts = {s: sum(1 for l in locations if l.scenario == s)
                  for s in (SCENARIO_NEVER, SCENARIO_SOMETIMES,
                            SCENARIO_ALWAYS)}
        assert counts == SCENARIO_COUNTS == {1: 21, 2: 5, 3: 7}

    def test_table5_values_verbatim(self):
        hotel = location_by_name("hotel_hi")
        assert hotel.wifi_mbps == 2.92
        assert hotel.lte_mbps == 11.0
        library = location_by_name("library")
        assert library.wifi_mbps == 17.8
        assert library.lte_rtt_ms == 64.1

    def test_scenario1_below_top_bitrate(self):
        for location in field_study_locations():
            if location.scenario == SCENARIO_NEVER:
                assert location.wifi_mbps < TOP_BITRATE_MBPS

    def test_scenario3_well_above_top_bitrate(self):
        for location in field_study_locations():
            if location.scenario == SCENARIO_ALWAYS:
                assert location.wifi_mbps > 1.5 * TOP_BITRATE_MBPS

    def test_scenario2_has_dropouts(self):
        for location in field_study_locations():
            if location.scenario == SCENARIO_SOMETIMES:
                assert location.dropouts

    def test_unique_names(self):
        names = [l.name for l in field_study_locations()]
        assert len(set(names)) == 33

    def test_catalog_deterministic(self):
        a = field_study_locations()
        b = field_study_locations()
        assert [(l.name, l.wifi_mbps, l.seed) for l in a] == \
            [(l.name, l.wifi_mbps, l.seed) for l in b]

    def test_paths_built_with_location_rtts(self):
        location = location_by_name("hotel_ha")
        wifi, lte = location.paths(duration=60.0)
        assert wifi.rtt == pytest.approx(0.0408)
        assert lte.rtt == pytest.approx(0.0686)
        assert to_mbps(wifi.mean_bandwidth()) == pytest.approx(
            location.wifi_mbps, rel=0.2)

    def test_unknown_location_rejected(self):
        with pytest.raises(KeyError):
            location_by_name("mars_base")


class TestMobility:
    def test_wifi_swings_lte_steady(self):
        scenario = MobilityScenario()
        wifi = scenario.wifi_trace(120.0)
        lte = scenario.lte_trace(120.0)
        wifi_samples = wifi.samples(1.0, 120.0)
        lte_samples = lte.samples(1.0, 120.0)
        assert max(wifi_samples) > 3 * min(wifi_samples)
        assert max(lte_samples) < 2 * min(lte_samples)

    def test_paths(self):
        scenario = MobilityScenario()
        paths = scenario.paths(60.0)
        assert [p.name for p in paths] == ["wifi", "cellular"]
        assert len(scenario.wifi_only_paths(60.0)) == 1
