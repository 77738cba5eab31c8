"""Kernel parity: the event-driven kernel against pinned tick outcomes.

The simulator once carried two clocks for the same fluid TCP model: a
10 ms tick loop (the reference) and the event-driven kernel, which
predicts decision points and advances spans in closed form.  The tick
loop is gone; its outcomes on this grid were recorded at full float
precision at commit cab8e3af43e9cac659221c01a4c2f7b7368af785 and live
below as literal reference data.  The event-driven kernel is held to
them under the contract the two kernels were compared with:

* **Exact** — discrete outcomes: chunk count, per-chunk quality levels
  (and therefore mean bitrate and switch count), stall count, deadline
  misses, and invariant verdicts.  A kernel that changed any of these
  would change the paper's conclusions.
* **O(tick_interval)** — continuous quantities: the tick kernel
  quantized completions to 10 ms grid points while the event-driven
  kernel resolves them exactly, so event timestamps differ by a few
  ticks and anything integrated from them inherits that error.  Startup
  delay and stall time agree within 50 ms, byte split (cellular
  fraction) within 0.05 absolute, energy within 5 % relative.

The grid deliberately sits away from ABR/scheduler decision
boundaries: at a knife edge a few milliseconds of completion-time
difference can legitimately flip a discrete decision, after which the
two runs tell different (both valid) stories.  That is a property of
the feedback loop, not a kernel bug.

Scheduler *flip counts* (enable/disable events) are intentionally not
compared: the tick kernel re-evaluated Algorithm 1 every 10 ms and
could oscillate around the threshold, while the event-driven kernel
evaluates only at predicted crossings.  The resulting byte split and
deadline outcomes — the quantities the paper reports — are asserted
instead.  ``repro.mptcp.packet_level`` remains the independent,
different-fidelity cross-check of the transport model.
"""

from __future__ import annotations

import pytest

from repro.experiments import SessionConfig, run_session
from repro.experiments.configs import FileDownloadConfig
from repro.experiments.runner import run_file_download
from repro.net.trace import BandwidthTrace, mbps

#: Documented tolerances (see module docstring).
STARTUP_TOL = 0.05       # seconds, O(tick_interval) completion skew
STALL_TIME_TOL = 0.05    # seconds
CELLULAR_FRAC_TOL = 0.05  # absolute fraction of bytes
ENERGY_REL_TOL = 0.05    # relative
DURATION_TOL = 0.5       # seconds of session wall-clock


def _grid():
    wander = BandwidthTrace.random_walk(mean_bytes_per_s=mbps(4.0),
                                        sigma_fraction=0.3, duration=200.0,
                                        interval=1.0, seed=7)
    return [
        ("vanilla-mptcp", dict(mpdash=False, wifi_mbps=3.8, lte_mbps=3.0)),
        ("mpdash-rate", dict(mpdash=True, deadline_mode="rate",
                             wifi_mbps=3.8, lte_mbps=3.0)),
        ("mpdash-duration", dict(mpdash=True, deadline_mode="duration",
                                 wifi_mbps=3.8, lte_mbps=3.0)),
        ("bba-abr", dict(abr="bba", mpdash=True, deadline_mode="rate",
                         wifi_mbps=3.8, lte_mbps=3.0)),
        ("wandering-wifi", dict(mpdash=True, deadline_mode="rate",
                                wifi_trace=wander, lte_mbps=3.0)),
        ("scarce-bandwidth", dict(mpdash=True, deadline_mode="rate",
                                  wifi_mbps=1.2, lte_mbps=1.0)),
        ("subflow-reestablish", dict(mpdash=True, deadline_mode="rate",
                                     wifi_mbps=3.8, lte_mbps=3.0,
                                     subflow_reestablish=True)),
        ("mpc-wifi-only", dict(abr="mpc", mpdash=False, wifi_mbps=2.8,
                               wifi_only=True)),
    ]


_LADDER = (2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4)

#: The tick kernel's outcome per grid config.  Every tick run passed
#: the invariant battery with no violation.
TICK = {
    "vanilla-mptcp": dict(
        chunk_count=16, levels=_LADDER, quality_switches=2,
        mean_bitrate=412928.421875, stall_count=0, total_stall_time=0,
        startup_delay=0.9600000000000005, session_duration=85.0,
        cellular_fraction=0.44039220487268954,
        energy_total=83.70746746645897, deadline_misses=None),
    "mpdash-rate": dict(
        chunk_count=16, levels=_LADDER, quality_switches=2,
        mean_bitrate=412928.421875, stall_count=0, total_stall_time=0,
        startup_delay=0.9600000000000005, session_duration=85.0,
        cellular_fraction=0.06101385668259945,
        energy_total=70.08969448497193, deadline_misses=0),
    "mpdash-duration": dict(
        chunk_count=16, levels=_LADDER, quality_switches=2,
        mean_bitrate=412928.421875, stall_count=0, total_stall_time=0,
        startup_delay=0.9600000000000005, session_duration=85.0,
        cellular_fraction=0.07869153354513748,
        energy_total=70.53649060445765, deadline_misses=0),
    "bba-abr": dict(
        chunk_count=16,
        levels=(4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 3, 4),
        quality_switches=2, mean_bitrate=491607.390625, stall_count=0,
        total_stall_time=0, startup_delay=0.9600000000000005,
        session_duration=85.0, cellular_fraction=0.3840174020685079,
        energy_total=88.16625016360034, deadline_misses=0),
    "wandering-wifi": dict(
        chunk_count=16,
        levels=(2, 2, 3, 3, 3, 3, 4, 3, 3, 3, 3, 3, 3, 3, 3, 4),
        quality_switches=4, mean_bitrate=315843.78125, stall_count=0,
        total_stall_time=0, startup_delay=0.9400000000000005,
        session_duration=85.0, cellular_fraction=0.1933983976719452,
        energy_total=72.02034258848118, deadline_misses=0),
    "scarce-bandwidth": dict(
        chunk_count=16, levels=(2,) * 16, quality_switches=0,
        mean_bitrate=187849.875, stall_count=0, total_stall_time=0,
        startup_delay=2.780000000000002, session_duration=85.0,
        cellular_fraction=0.2732493666817718,
        energy_total=99.57873696000033, deadline_misses=0),
    "subflow-reestablish": dict(
        chunk_count=16, levels=_LADDER, quality_switches=2,
        mean_bitrate=412928.421875, stall_count=0, total_stall_time=0,
        startup_delay=0.9600000000000005, session_duration=85.0,
        cellular_fraction=0.060446264364938766,
        energy_total=70.00609448497192, deadline_misses=0),
    "mpc-wifi-only": dict(
        chunk_count=16,
        levels=(3, 3, 4, 3, 3, 3, 3, 4, 4, 4, 3, 3, 3, 3, 4, 4),
        quality_switches=5, mean_bitrate=380208.921875, stall_count=0,
        total_stall_time=0, startup_delay=2.1800000000000015,
        session_duration=85.0, cellular_fraction=0.0,
        energy_total=38.34271616000015, deadline_misses=None),
}

#: The tick kernel's file downloads, keyed by (size, deadline).
TICK_DOWNLOADS = {
    (8e6, 30.0): dict(missed_deadline=False, duration=16.859999999999836,
                      cellular_fraction=0.0017342216601037928),
    (20e6, 10.0): dict(missed_deadline=True, duration=23.61000000000089,
                       cellular_fraction=0.4405686886640415),
}


def _run(**overrides):
    base = dict(video="big_buck_bunny", abr="festive", video_duration=80.0)
    base.update(overrides)
    return run_session(SessionConfig(**base), check=True)


def test_pins_cover_the_grid():
    assert set(TICK) == {name for name, _ in _grid()}


class TestSessionParity:
    @pytest.mark.parametrize("name,overrides",
                             _grid(), ids=[n for n, _ in _grid()])
    def test_qoe_and_energy_agree(self, name, overrides):
        tick, fast = TICK[name], _run(**overrides)
        mf = fast.metrics

        # Exact discrete outcomes.
        assert mf.chunk_count == tick["chunk_count"]
        assert mf.levels == list(tick["levels"])
        assert mf.quality_switches == tick["quality_switches"]
        assert mf.mean_bitrate == pytest.approx(tick["mean_bitrate"])
        assert mf.stall_count == tick["stall_count"]

        # O(tick_interval) continuous quantities.
        assert mf.total_stall_time == pytest.approx(
            tick["total_stall_time"], abs=STALL_TIME_TOL)
        assert mf.startup_delay == pytest.approx(
            tick["startup_delay"], abs=STARTUP_TOL)
        assert fast.session_duration == pytest.approx(
            tick["session_duration"], abs=DURATION_TOL)
        assert mf.cellular_fraction == pytest.approx(
            tick["cellular_fraction"], abs=CELLULAR_FRAC_TOL)
        assert mf.energy_total == pytest.approx(
            tick["energy_total"], rel=ENERGY_REL_TOL)

    @pytest.mark.parametrize("name,overrides",
                             _grid(), ids=[n for n, _ in _grid()])
    def test_deadline_misses_agree(self, name, overrides):
        fast = _run(**overrides)
        assert fast.scheduler_stats.get("deadline_misses") == \
            TICK[name]["deadline_misses"]

    @pytest.mark.parametrize("name,overrides",
                             _grid(), ids=[n for n, _ in _grid()])
    def test_invariant_verdicts_agree(self, name, overrides):
        fast = _run(**overrides)
        assert fast.check_report.ok
        assert {v.checker for v in fast.check_report.violations} == set()


class TestSeededFaultParity:
    """The monitor must flag a broken scheduler as it did under the tick
    kernel (only ``path-control``) — same fault pattern as
    test_determinism's seeded trace."""

    def test_both_kernels_flag_path_control(self):
        from repro.core.scheduler import DeadlineAwareScheduler

        orig = DeadlineAwareScheduler.on_transfer_start

        def faulty(scheduler, now, transfer, conn):
            orig(scheduler, now, transfer, conn)
            if scheduler.active:  # Algorithm 1 broken: everything off
                for name in conn.path_names():
                    conn.request_path_state(name, False)

        DeadlineAwareScheduler.on_transfer_start = faulty
        try:
            fast = _run(mpdash=True, deadline_mode="rate",
                        wifi_mbps=3.8, lte_mbps=3.0)
        finally:
            DeadlineAwareScheduler.on_transfer_start = orig
        assert not fast.check_report.ok
        assert {v.checker for v in fast.check_report.violations} == {"path-control"}


class TestFileDownloadParity:
    @pytest.mark.parametrize("size,deadline", [
        (8e6, 30.0),   # comfortable: WiFi alone meets it
        (20e6, 10.0),  # impossible: both paths flat out, still missed
    ])
    def test_download_outcomes_agree(self, size, deadline):
        tick = TICK_DOWNLOADS[(size, deadline)]
        fast = run_file_download(FileDownloadConfig(size=size,
                                                     deadline=deadline))
        assert fast.missed_deadline == tick["missed_deadline"]
        assert fast.duration == pytest.approx(tick["duration"], abs=0.1)
        assert fast.cellular_fraction == pytest.approx(
            tick["cellular_fraction"], abs=CELLULAR_FRAC_TOL)
