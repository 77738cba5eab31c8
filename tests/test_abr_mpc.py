"""Tests for the MPC hybrid ABR (the §5.2.3 extension)."""

import pytest

from repro.abr import HYBRID, Mpc, make_abr, abr_names
from repro.abr.base import AbrContext
from repro.dash.events import ChunkRecord
from repro.dash.manifest import Manifest
from repro.dash.media import VideoAsset
from repro.net.units import mbps


@pytest.fixture
def manifest():
    asset = VideoAsset.generate("m", 4.0, 600.0,
                                [0.58, 1.01, 1.47, 2.41, 3.94], seed=0)
    return Manifest(asset)


def ctx(manifest, current_level, buffer_level, override=None,
        measured=None, index=10):
    return AbrContext(manifest=manifest, buffer_level=buffer_level,
                      buffer_capacity=40.0, next_chunk_index=index,
                      current_level=current_level,
                      measured_throughput=measured,
                      override_throughput=override, in_startup=False)


def feed(abr, throughput, n=5):
    for _ in range(n):
        abr.on_chunk_downloaded(ChunkRecord(
            index=0, level=0, size=1e6, duration=4.0, requested_at=0.0,
            completed_at=1.0, throughput=throughput))


class TestMpc:
    def test_category(self):
        assert Mpc.category == HYBRID

    def test_registered_in_factory(self):
        assert "mpc" in abr_names()
        assert isinstance(make_abr("mpc"), Mpc)

    def test_high_throughput_high_buffer_goes_up(self, manifest):
        abr = Mpc()
        feed(abr, mbps(10.0))
        level = abr.choose_level(ctx(manifest, 2, 30.0))
        assert level > 2

    def test_low_throughput_low_buffer_goes_down(self, manifest):
        abr = Mpc()
        feed(abr, mbps(0.6))
        level = abr.choose_level(ctx(manifest, 3, 5.0))
        assert level < 3

    def test_rebuffer_penalty_dominates(self, manifest):
        """Nearly empty buffer and weak throughput: MPC must not gamble on
        a high level even if quality terms would like it."""
        abr = Mpc(rebuffer_penalty=40.0)
        feed(abr, mbps(1.2))
        level = abr.choose_level(ctx(manifest, 4, 1.0))
        assert level <= 2

    def test_switch_penalty_discourages_thrash(self, manifest):
        smooth = Mpc(switch_penalty=50.0)
        feed(smooth, mbps(2.5))
        level = smooth.choose_level(ctx(manifest, 2, 20.0))
        assert abs(level - 2) <= 1

    def test_no_prediction_holds_level(self, manifest):
        abr = Mpc()
        assert abr.choose_level(ctx(manifest, 2, 20.0)) == 2

    def test_override_used_as_prediction(self, manifest):
        abr = Mpc()
        feed(abr, mbps(0.3))
        up = abr.choose_level(ctx(manifest, 2, 30.0, override=mbps(10.0)))
        assert up > 2

    def test_horizon_shrinks_near_video_end(self, manifest):
        abr = Mpc(horizon=5)
        feed(abr, mbps(5.0))
        # Last chunk: horizon collapses to 1; must still return a level.
        level = abr.choose_level(ctx(manifest, 2, 20.0,
                                     index=manifest.num_chunks - 1))
        assert 0 <= level < manifest.num_levels

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Mpc(horizon=0)
        with pytest.raises(ValueError):
            Mpc(max_step=0)

    def test_factory_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_abr("nope")
