"""Fuzz the fleet checkpoint and anomaly-manifest loaders.

A campaign's checkpoint and its flight recorder's ``anomalies.json``
are truncated or bit-flipped, then loaded the way ``--resume`` and
``repro triage`` load them.  A damaged checkpoint either restores
exactly the state it held (the damage touched nothing the loader reads)
or is refused with a warning, and the campaign starts clean; it never
raises and never restores a different registry.  ``repro triage`` on a
damaged manifest exits 0 or 2 with a one-line error, never with a
traceback.
"""

import contextlib
import functools
import io
import json
import os
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.experiments.fleet import (FleetConfig, checkpoint_path,
                                     load_checkpoint, run_fleet)
from repro.obs.recorder import RecorderConfig, find_manifests

#: Three shards; the checkpoint holds the first two.
CONFIG = FleetConfig(sessions=8, shard_size=3, video_duration=6.0, seed=11)


def _damage(data: bytes, kind: str, position: int) -> bytes:
    if kind == "truncate":
        return data[:position % (len(data) + 1)]
    bit = position % (8 * len(data))
    damaged = bytearray(data)
    damaged[bit // 8] ^= 1 << (bit % 8)
    return bytes(damaged)


def _load(data: bytes):
    """``(state, warnings)`` of ``load_checkpoint`` on ``data``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "checkpoint.json")
        with open(path, "wb") as handle:
            handle.write(data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            state = load_checkpoint(path, _intact_key())
    return state, [str(w.message) for w in caught]


@functools.lru_cache(maxsize=None)
def _checkpoint_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        run_fleet(CONFIG, checkpoint_dir=tmp, checkpoint_every=1,
                  stop_after=2)
        with open(checkpoint_path(tmp), "rb") as handle:
            return handle.read()


@functools.lru_cache(maxsize=None)
def _intact_key() -> str:
    return json.loads(_checkpoint_bytes())["fleet_key"]


def _comparable(state):
    return dict(state, registry=state["registry"].to_dict())


@functools.lru_cache(maxsize=None)
def _intact_state():
    state, caught = _load(_checkpoint_bytes())
    assert caught == [] and state["shards_done"] == 2
    return _comparable(state)


@functools.lru_cache(maxsize=None)
def _baseline_registry() -> str:
    return run_fleet(CONFIG).registry_json()


class TestCheckpointFuzz:
    @given(kind=st.sampled_from(("truncate", "flip")),
           position=st.integers(min_value=0, max_value=2**24))
    @settings(max_examples=300, deadline=None)
    def test_damage_restores_the_same_state_or_warns(self, kind, position):
        state, caught = _load(_damage(_checkpoint_bytes(), kind, position))
        if state is None:
            assert len(caught) == 1 and "unreadable" in caught[0]
        else:
            assert caught == []
            assert _comparable(state) == _intact_state()

    def test_a_flipped_registry_digit_is_refused(self):
        # The damage the unverified loader resumed from: a count in the
        # registry changes by one and the JSON still parses.
        data = _checkpoint_bytes()
        start = data.index(b'"registry"')
        digit = next(i for i in range(start, len(data))
                     if data[i:i + 1].isdigit())
        state, caught = _load(_damage(data, "flip", 8 * digit))
        assert state is None and "sha256 mismatch" in caught[0]

    @pytest.mark.parametrize("damage", ["intact", "truncate", "flip"])
    def test_resume_lands_on_the_uninterrupted_registry(self, tmp_path,
                                                        damage):
        data = _checkpoint_bytes()
        if damage == "truncate":
            data = data[:len(data) // 2]
        elif damage == "flip":
            data = _damage(data, "flip", 8 * data.index(b'"counts"') + 9)
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / os.path.basename(checkpoint_path(str(ckpt)))).write_bytes(
            data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_fleet(CONFIG, checkpoint_dir=str(ckpt),
                               resume=True)
        unreadable = [w for w in caught if "unreadable" in str(w.message)]
        assert result.completed
        assert result.registry_json() == _baseline_registry()
        if damage == "intact":
            assert result.resumed_shards == 2 and unreadable == []
        else:
            assert result.resumed_shards == 0 and len(unreadable) == 1


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    """A recorded campaign's manifest path and its intact bytes."""
    records = str(tmp_path_factory.mktemp("records"))
    run_fleet(FleetConfig(sessions=6, shard_size=3, video_duration=8.0,
                          seed=3, fault_session=2),
              recorder=RecorderConfig(artifact_dir=records))
    (path,) = find_manifests(records)
    with open(path, "rb") as handle:
        return records, path, handle.read()


def _triage(records: str):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["triage", "--record-dir", records, "--json"])
    return code, out.getvalue(), err.getvalue()


class TestManifestFuzz:
    @given(kind=st.sampled_from(("truncate", "flip")),
           position=st.integers(min_value=0, max_value=2**24))
    @settings(max_examples=200, deadline=None)
    def test_triage_exits_cleanly_on_damage(self, manifest, kind,
                                            position):
        records, path, data = manifest
        try:
            with open(path, "wb") as handle:
                handle.write(_damage(data, kind, position))
            code, out, err = _triage(records)
        finally:
            with open(path, "wb") as handle:
                handle.write(data)
        assert code in (0, 2)
        if code == 0:
            assert json.loads(out)["records"] is not None
        else:
            assert out == ""
            assert err.startswith("repro triage: ")
            assert err.count("\n") == 1

    def test_every_renamed_key_exits_cleanly(self, manifest):
        # A flip inside a key name keeps the JSON valid but drops the
        # field; a dropped ``index`` once escaped as a KeyError.
        records, path, data = manifest
        payload = json.loads(data)
        names = set(payload)
        for record in payload["records"]:
            names.update(record)
        cases = 0
        try:
            for name in sorted(names):
                quoted = f'"{name}":'.encode()
                at = data.find(quoted)
                while at >= 0:
                    with open(path, "wb") as handle:
                        handle.write(_damage(data, "flip", 8 * (at + 1)))
                    code, _, err = _triage(records)
                    assert code == 0 or (code == 2 and err.startswith(
                        "repro triage: ")), (name, err)
                    cases += 1
                    at = data.find(quoted, at + 1)
        finally:
            with open(path, "wb") as handle:
                handle.write(data)
        assert cases > len(names)

    def test_intact_manifest_triages(self, manifest):
        records, _, _ = manifest
        code, out, _ = _triage(records)
        assert code == 0
        assert any(r["index"] == 2 for r in json.loads(out)["records"])
