"""Versioned model registry with validation-gated atomic hot-swap.

A diagnosis fleet must be able to pick up a re-trained model without
restarting — and must *never* pick up a bad one.  :class:`ModelRegistry`
stores every published :class:`~repro.core.model_builder.BuiltModel` as an
immutable, CRC-protected artifact (``model-<version>.pkl``) and points a
single ``CURRENT`` stamp at the live version.  The swap is safe by
construction:

1. **Validation gate first.**  ``publish()`` runs
   :func:`~repro.core.model_builder.validate_built_network` (structure,
   CPT column sums, finiteness) plus a small parity smoke — the candidate's
   prior marginals from variable elimination against those from the
   junction tree — *before* anything is renamed.  A failing candidate
   raises :class:`~repro.exceptions.ModelPublishError` and the registry is
   untouched: rollback means the swap never happened.
2. **Atomic artifacts.**  The model pickle is written to a tmp file,
   ``fsync``-able, checksummed, and ``os.rename``d; ``CURRENT`` (a tiny
   JSON stamp carrying version, filename and model fingerprint) is flipped
   last, also via rename.  A crash at any instant leaves either the old
   stamp or the new one — never a half-written model behind a live stamp.
3. **Cheap polling.**  Workers call :meth:`current_version` between chunks
   (one small file read); a bump tells them to reload, which builds a
   fresh engine and so drops their evidence caches.

Loads verify the stamp (UTF-8 JSON with a non-negative integer version)
and the artifact's magic and CRC32, and raise a structured
:class:`~repro.exceptions.ModelRegistryError` on any defect — a corrupt
registry refuses to serve rather than serving garbage.
"""

from __future__ import annotations

import json
import os
import pickle
import struct
import time
import zlib
from pathlib import Path

import numpy as np

from repro.core.model_builder import BuiltModel, validate_built_network
from repro.exceptions import (ModelPublishError, ModelRegistryError,
                              ReproError)
from repro.persist.fingerprint import model_fingerprint

try:  # pragma: no cover - always present on supported platforms
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None

#: Model-artifact header: magic + uint32 CRC32 of the pickled payload.
MODEL_MAGIC = b"RPM1"
_MODEL_HEADER = struct.Struct("<4sI")

_CURRENT_FILE = "CURRENT"
_LOCK_FILE = "LOCK.registry"

#: Absolute tolerance of the publish-time VE-vs-junction-tree smoke.
_PARITY_ATOL = 1e-9


def atomic_write_bytes(path: Path, data: bytes, *, sync: bool = False) -> None:
    """Write ``data`` to ``path`` atomically (tmp file + ``os.rename``)."""
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        if sync:
            os.fsync(handle.fileno())
    os.replace(tmp, path)


def _smoke_parity(model: BuiltModel) -> None:
    """Compare the candidate's prior marginals under VE and the junction tree.

    Uses the empty evidence (prior marginals over every variable): it runs
    both exact engines' full contraction pipelines over every CPT without
    needing any case data, so a network that validates structurally but
    computes garbage (NaN tables slipped past, broken state ordering), or
    an engine that disagrees with the other, is caught here, before the
    swap.
    """
    from repro.bayesnet.inference import JunctionTree, VariableElimination

    variables = list(model.network.nodes)
    want = VariableElimination(model.network).posteriors(variables, {})
    got = JunctionTree(model.network).posteriors(variables, {})
    for variable in variables:
        for state, probability in want[variable].items():
            other = got[variable].get(state, np.nan)
            if not np.isclose(other, probability, atol=_PARITY_ATOL,
                              rtol=0.0):
                raise ModelPublishError(
                    f"publish-time parity smoke failed: junction-tree "
                    f"P({variable}={state}) = {other!r} vs variable "
                    f"elimination {probability!r}")


class ModelRegistry:
    """Durable, versioned store of published diagnosis models.

    Parameters
    ----------
    path:
        Registry directory (created if missing); safe to share across
        processes on one host.
    sync:
        When true, artifact writes are ``fsync``ed before the rename —
        survives power loss, not just process death.
    keep:
        How many superseded model artifacts to retain (the current version
        is always kept).  Older artifacts are pruned after a successful
        publish.
    """

    def __init__(self, path: str | Path, *, sync: bool = False,
                 keep: int = 3) -> None:
        self.path = Path(path)
        if self.path.exists() and not self.path.is_dir():
            raise ModelRegistryError(
                f"registry path {self.path} exists and is not a directory")
        self.path.mkdir(parents=True, exist_ok=True)
        self.sync = bool(sync)
        self.keep = max(int(keep), 0)
        self._lock_handle = open(self.path / _LOCK_FILE, "a+b")

    # ------------------------------------------------------------------ state
    def _read_stamp(self) -> dict | None:
        """The ``CURRENT`` stamp, ``None`` when nothing was published.

        Any defect of the stamp — bytes that are not UTF-8 JSON, a missing
        field, a version that is not a non-negative integer — raises
        :class:`~repro.exceptions.ModelRegistryError`, the one error a
        registry reader has to handle.
        """
        path = self.path / _CURRENT_FILE
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        try:
            stamp = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ModelRegistryError(
                f"registry stamp {path} is not valid UTF-8 JSON: {error}"
                ) from error
        if not isinstance(stamp, dict) or "version" not in stamp:
            raise ModelRegistryError(
                f"registry stamp {path} is missing its version field")
        version = stamp["version"]
        if type(version) is not int or version < 0:
            raise ModelRegistryError(
                f"registry stamp {path} carries version {version!r}, not a "
                f"non-negative integer")
        return stamp

    def current_version(self) -> int:
        """Return the live model version (0 when nothing was published).

        This is the cheap poll workers run between chunks: one small file
        read, no locking, no deserialisation.
        """
        stamp = self._read_stamp()
        return stamp["version"] if stamp else 0

    def current_fingerprint(self) -> str | None:
        """Content fingerprint of the live model (None when empty)."""
        stamp = self._read_stamp()
        return stamp.get("fingerprint") if stamp else None

    def versions(self) -> list[int]:
        """All versions whose artifacts are still on disk, ascending."""
        found = []
        for entry in self.path.iterdir():
            name = entry.name
            if name.startswith("model-") and name.endswith(".pkl"):
                middle = name[len("model-"):-len(".pkl")]
                if middle.isdigit():
                    found.append(int(middle))
        return sorted(found)

    def _model_path(self, version: int) -> Path:
        return self.path / f"model-{version:06d}.pkl"

    def _locked_exclusive(self):
        if fcntl is not None:
            fcntl.flock(self._lock_handle, fcntl.LOCK_EX)

    def _unlock(self):
        if fcntl is not None:
            fcntl.flock(self._lock_handle, fcntl.LOCK_UN)

    # ---------------------------------------------------------------- publish
    def publish(self, model: BuiltModel, *, validate: bool = True) -> int:
        """Validate ``model``, persist it, and atomically make it current.

        Returns the new version number.  On any validation failure the
        registry's current version is untouched and
        :class:`~repro.exceptions.ModelPublishError` is raised — rollback
        by never happening.
        """
        if validate:
            try:
                validate_built_network(model.description, model.network,
                                       context="publish candidate")
                _smoke_parity(model)
            except ModelPublishError:
                raise
            except ReproError as error:
                raise ModelPublishError(
                    f"publish candidate failed validation: {error}"
                    ) from error
        fingerprint = model_fingerprint(model.network)
        payload = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
        blob = _MODEL_HEADER.pack(MODEL_MAGIC, zlib.crc32(payload)) + payload
        self._locked_exclusive()
        try:
            version = self.current_version() + 1
            artifact = self._model_path(version)
            atomic_write_bytes(artifact, blob, sync=self.sync)
            stamp = {"version": version, "file": artifact.name,
                     "fingerprint": fingerprint,
                     "published_at": time.time()}
            atomic_write_bytes(self.path / _CURRENT_FILE,
                               json.dumps(stamp).encode(), sync=self.sync)
            self._prune(version)
            return version
        finally:
            self._unlock()

    def _prune(self, current: int) -> None:
        floor = current - self.keep
        for version in self.versions():
            if version < floor:
                try:
                    os.unlink(self._model_path(version))
                except FileNotFoundError:
                    pass

    # ------------------------------------------------------------------- load
    def load(self) -> tuple[int, BuiltModel] | tuple[int, None]:
        """Return ``(version, model)`` for the live version.

        ``(0, None)`` when nothing was published yet.  Raises
        :class:`~repro.exceptions.ModelRegistryError` when the stamp points
        at a missing or corrupt artifact — the registry never hands back a
        model it cannot prove intact.
        """
        stamp = self._read_stamp()
        if stamp is None:
            return 0, None
        version = stamp["version"]
        return version, self.load_version(version)

    def load_version(self, version: int) -> BuiltModel:
        """Load one specific version, verifying magic and CRC32."""
        artifact = self._model_path(version)
        try:
            blob = artifact.read_bytes()
        except FileNotFoundError:
            raise ModelRegistryError(
                f"registry artifact {artifact} is missing") from None
        if len(blob) < _MODEL_HEADER.size:
            raise ModelRegistryError(
                f"registry artifact {artifact} is truncated "
                f"({len(blob)} bytes)")
        magic, crc = _MODEL_HEADER.unpack_from(blob)
        if magic != MODEL_MAGIC:
            raise ModelRegistryError(
                f"registry artifact {artifact} does not carry the model "
                f"magic (found {magic!r})")
        payload = blob[_MODEL_HEADER.size:]
        if zlib.crc32(payload) != crc:
            raise ModelRegistryError(
                f"registry artifact {artifact} failed its CRC32 check; "
                f"refusing to deserialise a corrupt model")
        try:
            model = pickle.loads(payload)
        except Exception as error:  # noqa: BLE001 - wrapped structurally
            raise ModelRegistryError(
                f"registry artifact {artifact} does not unpickle: {error}"
                ) from error
        if not isinstance(model, BuiltModel):
            raise ModelRegistryError(
                f"registry artifact {artifact} holds a "
                f"{type(model).__name__}, not a BuiltModel")
        return model

    def close(self) -> None:
        self._lock_handle.close()

    def __enter__(self) -> "ModelRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
