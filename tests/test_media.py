"""Tests for the DASH media model."""

import pytest

from repro.dash.media import QualityLevel, VideoAsset
from repro.net.units import mbps


def make_asset(**kwargs):
    defaults = dict(name="test", chunk_duration=4.0, duration=60.0,
                    bitrates_mbps=[1.0, 2.0, 4.0], seed=1)
    defaults.update(kwargs)
    return VideoAsset.generate(**defaults)


class TestQualityLevel:
    def test_mbps_conversion(self):
        level = QualityLevel(0, mbps(4.0))
        assert level.bitrate_mbps == pytest.approx(4.0)



class TestGeneration:
    def test_chunk_count(self):
        asset = make_asset(duration=60.0, chunk_duration=4.0)
        assert asset.num_chunks == 15
        assert asset.duration == 60.0

    def test_level_count_and_order(self):
        asset = make_asset()
        assert asset.num_levels == 3
        rates = asset.bitrates()
        assert rates == sorted(rates)

    def test_mean_chunk_size_matches_nominal(self):
        asset = make_asset(duration=600.0)
        for level in range(asset.num_levels):
            nominal = asset.level(level).bitrate * asset.chunk_duration
            sizes = [asset.chunk_size(level, i)
                     for i in range(asset.num_chunks)]
            assert sum(sizes) / len(sizes) == pytest.approx(nominal,
                                                            rel=1e-6)

    def test_vbr_sizes_vary(self):
        asset = make_asset(vbr_sigma=0.2)
        sizes = {round(asset.chunk_size(0, i))
                 for i in range(asset.num_chunks)}
        assert len(sizes) > 1

    def test_size_pattern_shared_across_levels(self):
        """A complex scene is big at every level."""
        asset = make_asset()
        ratios = [asset.chunk_size(2, i) / asset.chunk_size(0, i)
                  for i in range(asset.num_chunks)]
        assert max(ratios) - min(ratios) < 1e-9

    def test_deterministic_per_seed(self):
        a = make_asset(seed=5)
        b = make_asset(seed=5)
        c = make_asset(seed=6)
        assert a.chunk_size(0, 3) == b.chunk_size(0, 3)
        assert a.chunk_size(0, 3) != c.chunk_size(0, 3)

    def test_invalid_duration_rejected(self):
        with pytest.raises(ValueError):
            make_asset(duration=0.0)


class TestValidation:
    def test_decreasing_bitrates_rejected(self):
        with pytest.raises(ValueError):
            VideoAsset("x", 4.0,
                       [QualityLevel(0, 200.0), QualityLevel(1, 100.0)],
                       [[800.0], [400.0]])

    def test_mismatched_rows_rejected(self):
        with pytest.raises(ValueError):
            VideoAsset("x", 4.0, [QualityLevel(0, 100.0)], [])

    def test_uneven_chunk_counts_rejected(self):
        with pytest.raises(ValueError):
            VideoAsset("x", 4.0,
                       [QualityLevel(0, 100.0), QualityLevel(1, 200.0)],
                       [[400.0], [800.0, 900.0]])

    def test_bad_level_indices_rejected(self):
        with pytest.raises(ValueError):
            VideoAsset("x", 4.0,
                       [QualityLevel(1, 100.0), QualityLevel(2, 200.0)],
                       [[400.0], [800.0]])

    def test_out_of_range_lookups_rejected(self):
        asset = make_asset()
        with pytest.raises(IndexError):
            asset.chunk_size(99, 0)
        with pytest.raises(IndexError):
            asset.chunk_size(0, 9999)
        with pytest.raises(IndexError):
            asset.level(99)
