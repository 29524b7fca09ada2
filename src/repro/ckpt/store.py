"""On-disk checkpoint layout: the ``repro.ckpt/2`` format.

A checkpoint directory tree looks like::

    <ckpt-dir>/
        LATEST              # name of the newest complete checkpoint
        ckpt-000240/
            manifest.json   # format, turn, backend, config, checksums
            coordinator.pkl # the pickled simulator
            shard0.pkl      # one per mp worker (mp backend only)
            shard1.pkl

Write protocol: blobs and manifest land in a ``.tmp`` directory that
is renamed into place, then ``LATEST`` is replaced via rename — so a
crash mid-write can never leave a half checkpoint that ``LATEST``
points at, and a reader always sees either the old or the new state.
Every blob's sha256 travels in the manifest and is re-verified on
read; corruption surfaces as :class:`~repro.common.errors.
CheckpointError` instead of an unpickling crash deep in a resume.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import CheckpointError

#: Version tag written into (and required from) every manifest.  Bump
#: it whenever the pickled simulator's layout changes, so a snapshot
#: of another layout is refused on read rather than failing mid-resume.
#: ``/2``: the host cost model's jitter buffer and bound charge sink,
#: and the per-class core cost tables.
FORMAT = "repro.ckpt/2"

_MANIFEST = "manifest.json"
_LATEST = "LATEST"
_PREFIX = "ckpt-"


class CheckpointStore:
    """Reads and writes checkpoints under one root directory."""

    def __init__(self, root: str, keep: int = 2) -> None:
        self.root = root
        self.keep = max(int(keep), 1)
        os.makedirs(root, exist_ok=True)

    # -- writing --------------------------------------------------------------

    def write(self, turn: int, backend: str, config: Any,
              blobs: Dict[str, bytes]) -> str:
        """Commit one checkpoint atomically; returns its directory."""
        name = f"{_PREFIX}{turn:08d}"
        final = os.path.join(self.root, name)
        staging = final + ".tmp"
        if os.path.exists(staging):
            shutil.rmtree(staging)
        os.makedirs(staging)
        files: Dict[str, Dict[str, Any]] = {}
        for key, blob in sorted(blobs.items()):
            filename = f"{key}.pkl"
            with open(os.path.join(staging, filename), "wb") as fh:
                fh.write(blob)
            files[filename] = {
                "sha256": hashlib.sha256(blob).hexdigest(),
                "size": len(blob),
            }
        manifest = {
            "format": FORMAT,
            "turn": int(turn),
            "backend": backend,
            "config": config.to_dict(),
            "files": files,
        }
        with open(os.path.join(staging, _MANIFEST), "w",
                  encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
        if os.path.exists(final):
            shutil.rmtree(final)
        os.replace(staging, final)
        self._write_latest(name)
        self._prune()
        return final

    def _write_latest(self, name: str) -> None:
        staging = os.path.join(self.root, _LATEST + ".tmp")
        with open(staging, "w", encoding="utf-8") as fh:
            fh.write(name + "\n")
        os.replace(staging, os.path.join(self.root, _LATEST))

    def _prune(self) -> None:
        names = self.list()
        for name in names[:-self.keep]:
            shutil.rmtree(os.path.join(self.root, name),
                          ignore_errors=True)

    # -- reading --------------------------------------------------------------

    def list(self) -> List[str]:
        """Complete checkpoints, oldest first (names sort by turn)."""
        out = []
        for entry in sorted(os.listdir(self.root)):
            if not entry.startswith(_PREFIX):
                continue
            if os.path.isfile(os.path.join(self.root, entry, _MANIFEST)):
                out.append(entry)
        return out

    def latest(self) -> Optional[str]:
        """Name of the newest complete checkpoint, or ``None``."""
        pointer = os.path.join(self.root, _LATEST)
        if os.path.isfile(pointer):
            with open(pointer, encoding="utf-8") as fh:
                name = fh.read().strip()
            if name and os.path.isfile(
                    os.path.join(self.root, name, _MANIFEST)):
                return name
        names = self.list()
        return names[-1] if names else None

    def read(self, name: Optional[str] = None
             ) -> Tuple[Dict[str, Any], Dict[str, bytes]]:
        """Load and verify one checkpoint (the latest by default).

        Returns ``(manifest, blobs)`` with blobs keyed by their
        manifest name minus the ``.pkl`` suffix.  Raises
        :class:`CheckpointError` on a missing checkpoint, an unknown
        format version, or any checksum mismatch.
        """
        if name is None:
            name = self.latest()
            if name is None:
                raise CheckpointError(
                    f"no checkpoint found under {self.root!r}")
        path = os.path.join(self.root, name)
        manifest_path = os.path.join(path, _MANIFEST)
        if not os.path.isfile(manifest_path):
            raise CheckpointError(f"{path!r} is not a checkpoint "
                                  f"(no {_MANIFEST})")
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        if manifest.get("format") != FORMAT:
            raise CheckpointError(
                f"{name}: unsupported snapshot format "
                f"{manifest.get('format')!r} (expected {FORMAT!r})")
        blobs: Dict[str, bytes] = {}
        for filename, meta in manifest.get("files", {}).items():
            blob_path = os.path.join(path, filename)
            try:
                with open(blob_path, "rb") as fh:
                    blob = fh.read()
            except OSError as exc:
                raise CheckpointError(
                    f"{name}: missing blob {filename}: {exc}") from exc
            digest = hashlib.sha256(blob).hexdigest()
            if digest != meta.get("sha256"):
                raise CheckpointError(
                    f"{name}: {filename} is corrupt (sha256 {digest} "
                    f"!= manifest {meta.get('sha256')})")
            if len(blob) != meta.get("size"):
                raise CheckpointError(
                    f"{name}: {filename} truncated ({len(blob)} bytes, "
                    f"manifest says {meta.get('size')})")
            key = filename[:-4] if filename.endswith(".pkl") else filename
            blobs[key] = blob
        if "coordinator" not in blobs:
            raise CheckpointError(
                f"{name}: manifest lists no coordinator blob")
        return manifest, blobs
