"""The on-disk ``repro.ckpt/2`` store: atomicity, integrity, pruning."""

from __future__ import annotations

import json
import os

import pytest

from repro.common.config import SimulationConfig
from repro.common.errors import CheckpointError
from repro.ckpt.store import FORMAT, CheckpointStore


def _config() -> SimulationConfig:
    cfg = SimulationConfig(num_tiles=2)
    cfg.validate()
    return cfg


def _write(store: CheckpointStore, turn: int,
           blob: bytes = b"coordinator-state") -> str:
    return store.write(turn=turn, backend="inproc", config=_config(),
                       blobs={"coordinator": blob})


def test_write_read_roundtrip(tmp_path):
    store = CheckpointStore(str(tmp_path))
    path = _write(store, 40, b"state-at-40")
    assert os.path.basename(path) == "ckpt-00000040"
    manifest, blobs = store.read()
    assert manifest["format"] == FORMAT
    assert manifest["turn"] == 40
    assert manifest["backend"] == "inproc"
    assert manifest["config"] == _config().to_dict()
    assert blobs == {"coordinator": b"state-at-40"}


def test_shard_blobs_travel_with_the_coordinator(tmp_path):
    store = CheckpointStore(str(tmp_path))
    store.write(turn=8, backend="mp", config=_config(),
                blobs={"coordinator": b"coord", "shard0": b"s0",
                       "shard1": b"s1"})
    manifest, blobs = store.read()
    assert sorted(blobs) == ["coordinator", "shard0", "shard1"]
    assert sorted(manifest["files"]) == [
        "coordinator.pkl", "shard0.pkl", "shard1.pkl"]
    for meta in manifest["files"].values():
        assert set(meta) == {"sha256", "size"}


def test_latest_pointer_tracks_newest(tmp_path):
    store = CheckpointStore(str(tmp_path))
    assert store.latest() is None
    _write(store, 20)
    _write(store, 60)
    assert store.latest() == "ckpt-00000060"
    manifest, _ = store.read()
    assert manifest["turn"] == 60


def test_latest_falls_back_when_pointer_is_stale(tmp_path):
    store = CheckpointStore(str(tmp_path))
    _write(store, 20)
    with open(tmp_path / "LATEST", "w") as fh:
        fh.write("ckpt-99999999\n")  # points at nothing
    assert store.latest() == "ckpt-00000020"


def test_prune_keeps_only_newest(tmp_path):
    store = CheckpointStore(str(tmp_path), keep=2)
    for turn in (10, 20, 30, 40):
        _write(store, turn)
    assert store.list() == ["ckpt-00000030", "ckpt-00000040"]
    # The survivors are still fully readable.
    manifest, _ = store.read("ckpt-00000030")
    assert manifest["turn"] == 30


def test_rewriting_same_turn_replaces_cleanly(tmp_path):
    store = CheckpointStore(str(tmp_path))
    _write(store, 20, b"first")
    _write(store, 20, b"second")
    _, blobs = store.read("ckpt-00000020")
    assert blobs["coordinator"] == b"second"


def test_missing_root_reports_no_checkpoint(tmp_path):
    store = CheckpointStore(str(tmp_path / "empty"))
    with pytest.raises(CheckpointError, match="no checkpoint"):
        store.read()


def test_corrupt_blob_is_rejected(tmp_path):
    store = CheckpointStore(str(tmp_path))
    path = _write(store, 20, b"pristine")
    with open(os.path.join(path, "coordinator.pkl"), "wb") as fh:
        fh.write(b"Xristine")  # same size, different bytes
    with pytest.raises(CheckpointError, match="corrupt"):
        store.read()


def test_truncated_blob_is_rejected(tmp_path):
    store = CheckpointStore(str(tmp_path))
    path = _write(store, 20, b"full-length-state")
    manifest_path = os.path.join(path, "manifest.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    # Forge the checksum so only the size check can object.
    import hashlib
    short = b"full"
    meta = manifest["files"]["coordinator.pkl"]
    meta["sha256"] = hashlib.sha256(short).hexdigest()
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    with open(os.path.join(path, "coordinator.pkl"), "wb") as fh:
        fh.write(short)
    with pytest.raises(CheckpointError, match="truncated"):
        store.read()


def test_unknown_format_version_is_rejected(tmp_path):
    store = CheckpointStore(str(tmp_path))
    path = _write(store, 20)
    manifest_path = os.path.join(path, "manifest.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    manifest["format"] = "repro.ckpt/99"
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(CheckpointError, match="unsupported"):
        store.read()


def test_previous_format_version_is_rejected(tmp_path):
    """A ``repro.ckpt/1`` snapshot pickles the older simulator layout;
    resuming it must fail up front, not partway through the run."""
    store = CheckpointStore(str(tmp_path))
    path = _write(store, 20)
    manifest_path = os.path.join(path, "manifest.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    manifest["format"] = "repro.ckpt/1"
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(CheckpointError, match="unsupported"):
        store.read()


def test_checkpoint_without_coordinator_is_rejected(tmp_path):
    store = CheckpointStore(str(tmp_path))
    store.write(turn=4, backend="mp", config=_config(),
                blobs={"shard0": b"orphan"})
    with pytest.raises(CheckpointError, match="coordinator"):
        store.read()


def test_half_written_staging_dir_is_invisible(tmp_path):
    """A crash mid-write leaves only a ``.tmp`` dir, which readers and
    ``list()`` never see."""
    store = CheckpointStore(str(tmp_path))
    _write(store, 20)
    os.makedirs(tmp_path / "ckpt-00000040.tmp")
    assert store.list() == ["ckpt-00000020"]
    assert store.latest() == "ckpt-00000020"
