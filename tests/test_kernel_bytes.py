"""Byte pins for the event-driven kernel's rare branches.

``tests/test_view_bytes.py`` pins constant-rate sessions and perfbench's
goldens pin fleet-shaped ones.  These digests hold the exact JSONL
trace of every ``tests/test_kernel_parity.py`` grid config (wandering
bandwidth, scarce paths, subflow re-establishment, a WiFi-only MPC
session), plus instantaneous signaling, a throttled cellular path over a
wandering trace, and one deadline-bounded file download.  A kernel
change that moves any event, timestamp or byte count in those branches
moves a digest.

To print the current digests::

    PYTHONPATH=src python -m tests.test_kernel_bytes
"""

import hashlib

import pytest

from repro.experiments import SessionConfig, run_session
from repro.experiments import runner
from repro.experiments.configs import FileDownloadConfig
from repro.net.simulator import Simulator
from repro.net.trace import BandwidthTrace, mbps
from repro.obs import dumps_jsonl
from repro.obs.trace_export import TraceMeta, TraceRecorder

from tests.test_kernel_parity import _grid


def _session(**overrides) -> str:
    base = dict(video="big_buck_bunny", abr="festive", video_duration=80.0,
                record_trace=True)
    base.update(overrides)
    result = run_session(SessionConfig(**base))
    return dumps_jsonl(result.events, result.trace_meta)


def _file_download(monkeypatch) -> str:
    """An 8 MB download whose 15 s deadline needs cellular near the end."""
    recorders = []

    def recording_simulator():
        sim = Simulator()
        recorders.append(TraceRecorder(sim.bus))
        return sim

    monkeypatch.setattr(runner, "Simulator", recording_simulator)
    result = runner.run_file_download(FileDownloadConfig(size=8e6,
                                                         deadline=15.0))
    (recorder,) = recorders
    return dumps_jsonl(recorder.events,
                       TraceMeta(session_duration=result.duration))


def _configs():
    configs = dict(_grid())
    configs["instant-signaling"] = dict(mpdash=True, deadline_mode="rate",
                                        wifi_mbps=3.8, lte_mbps=3.0,
                                        signaling_delay=0.0)
    configs["lte-throttle"] = dict(
        mpdash=False, wifi_mbps=2.0, lte_throttle=mbps(2.0),
        lte_trace=BandwidthTrace.random_walk(
            mean_bytes_per_s=mbps(3.0), sigma_fraction=0.4,
            duration=200.0, interval=1.0, seed=11))
    return configs


#: sha256 of each trace, computed before the kernel computed each span's
#: inputs once per watermark; they must never move.
PINNED = {
    "bba-abr":
        "54b67ec1bb3e08023ae2ed9db521e8bedc152def6ce7051cc107d210d40e8d38",
    "file-download":
        "7d08ce6f080ce68eba927ebbac0d271e2467bb9ca7d48556614a75f33d4a541e",
    "instant-signaling":
        "3204e943de2185fe343b3d2940857a1b36f399399c16d69b11e4bf86e3458222",
    "lte-throttle":
        "76cdada02b626cb00f934cc0c98a45a93717b62c606c54230e596b8416d25db8",
    "mpc-wifi-only":
        "19d39c69498950b7c3c74b895510369fb33f93bf347f936e76864fc99d401ccc",
    "mpdash-duration":
        "270bdc7556fbcb167dda9fe10ca151717afe527088c6bfb15ea32b328281e06b",
    "mpdash-rate":
        "4fd0201919d60b53a49d5bc26cdf00a0223d167df3aeaaee673c3b3e8d88283d",
    "scarce-bandwidth":
        "5330b7370bd2ec80cc74cfffdb7d712a8c6a3fb0e99ffe0c616879223783dcb0",
    "subflow-reestablish":
        "55ee946580a402e1fa0c5a097b99adb66899939504b18b64855c77b7dad8bf67",
    "vanilla-mptcp":
        "a3b5dc43b9015bf84e5394a8f63e56d6023d1fb0f8ef7bd8a363b4a80b8aa43d",
    "wandering-wifi":
        "34d26ce6bf8a9564b4fc9a84e10433042040d01b8684c910c3074727cb32e186",
}

_DOWNLOAD = "file-download"


def _trace(name: str, monkeypatch) -> str:
    if name == _DOWNLOAD:
        return _file_download(monkeypatch)
    return _session(**_configs()[name])


def test_pins_cover_every_config():
    assert set(PINNED) == set(_configs()) | {_DOWNLOAD}


@pytest.mark.parametrize("name", sorted(set(_configs()) | {_DOWNLOAD}))
def test_kernel_trace_bytes_are_pinned(name, monkeypatch):
    text = _trace(name, monkeypatch)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[name]


if __name__ == "__main__":
    patcher = pytest.MonkeyPatch()
    try:
        for config_name in sorted(set(_configs()) | {_DOWNLOAD}):
            digest = hashlib.sha256(
                _trace(config_name, patcher).encode()).hexdigest()
            print(f'    "{config_name}":\n        "{digest}",')
            patcher.undo()
    finally:
        patcher.undo()
