"""Tests for preference policies."""

import pytest

from repro.core.policy import Preference, prefer_cellular, prefer_wifi
from repro.net.link import Path, cellular_path, wifi_path


class TestPreference:
    def test_primary_is_first(self):
        pref = Preference(["wifi", "cellular"])
        assert pref.primary == "wifi"

    def test_default_costs_follow_order(self):
        pref = Preference(["a", "b", "c"])
        assert pref.cost_of("a") < pref.cost_of("b") < pref.cost_of("c")

    def test_explicit_costs(self):
        pref = Preference(["wifi", "cellular"],
                          {"wifi": 0.0, "cellular": 5.0})
        assert pref.cost_of("cellular") == 5.0

    def test_rank(self):
        pref = Preference(["wifi", "cellular"])
        assert pref.rank("wifi") == 0
        assert pref.rank("cellular") == 1

    def test_unknown_interface_rejected(self):
        pref = prefer_wifi()
        with pytest.raises(KeyError):
            pref.cost_of("bluetooth")
        with pytest.raises(KeyError):
            pref.rank("bluetooth")

    def test_empty_order_rejected(self):
        with pytest.raises(ValueError):
            Preference([])

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Preference(["wifi", "wifi"])

    def test_costs_must_match_order(self):
        with pytest.raises(ValueError):
            Preference(["wifi", "cellular"],
                       {"wifi": 2.0, "cellular": 1.0})

    def test_missing_costs_rejected(self):
        with pytest.raises(ValueError):
            Preference(["wifi", "cellular"], {"wifi": 0.0})

    def test_apply_costs_stamps_paths(self):
        paths = [wifi_path(bandwidth_mbps=1.0),
                 cellular_path(bandwidth_mbps=1.0)]
        pref = Preference(["wifi", "cellular"],
                          {"wifi": 0.0, "cellular": 3.0})
        pref.apply_costs(paths)
        assert paths[0].cost == 0.0
        assert paths[1].cost == 3.0

    def test_equality(self):
        assert prefer_wifi() == prefer_wifi()
        assert prefer_wifi() != prefer_cellular()


class TestBuiltins:
    def test_prefer_wifi(self):
        pref = prefer_wifi()
        assert pref.primary == "wifi"
        assert pref.cost_of("wifi") < pref.cost_of("cellular")

    def test_prefer_cellular_is_symmetric(self):
        pref = prefer_cellular()
        assert pref.primary == "cellular"
        assert pref.cost_of("cellular") < pref.cost_of("wifi")
