"""Durable model state: fingerprints and the model registry.

Covers content fingerprinting, the atomic tmp-file-and-rename write, the
validation-gated :class:`~repro.persist.ModelRegistry` and its publish-time
engine-parity smoke, the registry shared across instances and reopens, and
the registry loader under damage: every bit flip and truncation of the
``CURRENT`` stamp, and a seeded sample of them on a model artifact, must
raise :class:`~repro.exceptions.ModelRegistryError` or read back the
published model, and each artifact defect names the file it found.  The
worker's registry handle (payload fallback, throttled version poll) is
driven here in-process too; the ``kill -9`` crash-recovery scenarios and
served ``persist_dir`` behaviour live in ``test_persist_chaos.py``.
"""

from __future__ import annotations

import copy
import json
import logging
import os
import pickle
import struct
import zlib

import numpy as np
import pytest

from repro.bayesnet.inference import JunctionTree
from repro.exceptions import ModelPublishError, ModelRegistryError
from repro.persist import ModelRegistry, model_fingerprint
from repro.persist.registry import MODEL_MAGIC, atomic_write_bytes
from repro.serving.worker import _PersistRuntime
from repro.testing import FaultInjector, flip_byte, truncate_tail


def rolled_model(model):
    """A copy of ``model`` whose first CPT is rolled: another fingerprint."""
    candidate = copy.deepcopy(model)
    cpd = candidate.network.get_cpd(candidate.network.nodes[0]).copy()
    cpd.table[...] = np.roll(cpd.table, 1, axis=0)
    candidate.network.add_cpd(cpd)
    assert model_fingerprint(candidate.network) \
        != model_fingerprint(model.network)
    return candidate


# ---------------------------------------------------------------------------
# Content fingerprints
# ---------------------------------------------------------------------------

class TestFingerprint:
    def test_deterministic_and_content_addressed(self, sprinkler_network):
        first = model_fingerprint(sprinkler_network)
        assert first == model_fingerprint(sprinkler_network)
        assert first == model_fingerprint(copy.deepcopy(sprinkler_network))
        assert len(first) == 64  # hex SHA-256

    def test_parameter_change_changes_the_fingerprint(self, sprinkler_network):
        perturbed = copy.deepcopy(sprinkler_network)
        cpd = perturbed.get_cpd("rain")
        cpd.table[...] = [[0.7, 0.1], [0.3, 0.9]]
        assert model_fingerprint(perturbed) \
            != model_fingerprint(sprinkler_network)


# ---------------------------------------------------------------------------
# Atomic writes
# ---------------------------------------------------------------------------

class TestAtomicWrite:
    def test_writes_the_bytes_and_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "blob"
        atomic_write_bytes(target, b"payload")
        assert target.read_bytes() == b"payload"
        assert list(tmp_path.iterdir()) == [target]

    def test_last_writer_wins(self, tmp_path):
        target = tmp_path / "blob"
        atomic_write_bytes(target, b"first, longer payload")
        atomic_write_bytes(target, b"second")
        assert target.read_bytes() == b"second"
        assert list(tmp_path.iterdir()) == [target]

    def test_failed_rename_leaves_the_old_contents(self, tmp_path,
                                                   monkeypatch):
        target = tmp_path / "blob"
        atomic_write_bytes(target, b"old")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            atomic_write_bytes(target, b"new")
        assert target.read_bytes() == b"old"


# ---------------------------------------------------------------------------
# ModelRegistry
# ---------------------------------------------------------------------------

class TestModelRegistry:
    def test_empty_registry_reads_as_version_zero(self, tmp_path):
        with ModelRegistry(tmp_path / "models") as registry:
            assert registry.current_version() == 0
            assert registry.current_fingerprint() is None
            assert registry.load() == (0, None)
            assert registry.versions() == []

    def test_publish_load_round_trip(self, regulator_built_model, tmp_path):
        with ModelRegistry(tmp_path / "models") as registry:
            version = registry.publish(regulator_built_model)
            assert version == 1
            assert registry.current_version() == 1
            assert registry.current_fingerprint() \
                == model_fingerprint(regulator_built_model.network)
            loaded_version, loaded = registry.load()
            assert loaded_version == 1
            assert model_fingerprint(loaded.network) \
                == model_fingerprint(regulator_built_model.network)

    def test_republish_bumps_and_prunes(self, regulator_built_model,
                                        tmp_path):
        with ModelRegistry(tmp_path / "models", keep=2) as registry:
            for expected in (1, 2, 3, 4):
                assert registry.publish(regulator_built_model,
                                        validate=False) == expected
            assert registry.current_version() == 4
            # `keep` counts superseded artifacts besides the current one.
            assert registry.versions() == [2, 3, 4]

    def test_validation_gate_rejects_a_poisoned_model(
            self, regulator_built_model, tmp_path):
        candidate = copy.deepcopy(regulator_built_model)
        node = candidate.network.nodes[0]
        candidate.network.get_cpd(node).table[...] = np.nan
        with ModelRegistry(tmp_path / "models") as registry:
            registry.publish(regulator_built_model)
            with pytest.raises(ModelPublishError):
                registry.publish(candidate)
            # Rollback is structural: the swap never happened.
            assert registry.current_version() == 1
            assert registry.current_fingerprint() \
                == model_fingerprint(regulator_built_model.network)

    def test_engine_disagreement_is_refused_before_the_swap(
            self, regulator_built_model, tmp_path):
        """The publish smoke alone: the candidate validates structurally, but
        its junction-tree prior marginals drift 1e-6 from variable
        elimination's."""
        def drifted(posteriors):
            variable, states = next(iter(posteriors.items()))
            state = next(iter(states))
            return {**posteriors,
                    variable: {**states, state: states[state] + 1e-6}}

        candidate = copy.deepcopy(regulator_built_model)
        cpd = candidate.network.get_cpd(candidate.network.nodes[0]).copy()
        cpd.table[...] = np.roll(cpd.table, 1, axis=0)
        candidate.network.add_cpd(cpd)
        with ModelRegistry(tmp_path / "models") as registry:
            registry.publish(regulator_built_model)
            live = registry.current_fingerprint()
            assert model_fingerprint(candidate.network) != live
            with FaultInjector() as chaos:
                chaos.perturb_result(JunctionTree, "posteriors", drifted)
                with pytest.raises(ModelPublishError,
                                   match="parity smoke"):
                    registry.publish(candidate)
            assert registry.current_version() == 1
            assert registry.current_fingerprint() == live
            # Once the engines agree again, the same candidate publishes.
            assert registry.publish(candidate) == 2

    def test_corrupt_artifact_refuses_to_load(self, regulator_built_model,
                                              tmp_path):
        with ModelRegistry(tmp_path / "models") as registry:
            version = registry.publish(regulator_built_model)
            artifact = tmp_path / "models" / f"model-{version:06d}.pkl"
            flip_byte(artifact, artifact.stat().st_size // 2)
            with pytest.raises(ModelRegistryError):
                registry.load_version(version)

    def test_garbage_stamp_is_a_structured_error(self, tmp_path):
        with ModelRegistry(tmp_path / "models") as registry:
            (tmp_path / "models" / "CURRENT").write_text("{not json")
            with pytest.raises(ModelRegistryError):
                registry.current_version()


# ---------------------------------------------------------------------------
# ModelRegistry: one directory, many instances, reopens and failed writes
# ---------------------------------------------------------------------------

class TestRegistrySharing:
    def test_published_model_survives_a_reopen(self, regulator_built_model,
                                               tmp_path):
        fingerprint = model_fingerprint(regulator_built_model.network)
        with ModelRegistry(tmp_path / "models") as registry:
            registry.publish(regulator_built_model, validate=False)
        with ModelRegistry(tmp_path / "models") as reopened:
            assert reopened.current_version() == 1
            assert reopened.current_fingerprint() == fingerprint
            version, model = reopened.load()
            assert version == 1
            assert model_fingerprint(model.network) == fingerprint
            assert reopened.publish(regulator_built_model,
                                    validate=False) == 2

    def test_sibling_instances_share_one_version_sequence(
            self, regulator_built_model, tmp_path):
        candidate = rolled_model(regulator_built_model)
        with ModelRegistry(tmp_path / "models") as first, \
                ModelRegistry(tmp_path / "models") as second:
            assert first.publish(regulator_built_model, validate=False) == 1
            assert second.current_version() == 1
            assert second.publish(candidate, validate=False) == 2
            assert first.current_version() == 2
            version, model = first.load()
            assert version == 2
            assert model_fingerprint(model.network) \
                == model_fingerprint(candidate.network)

    def test_last_publish_wins_and_older_versions_stay_loadable(
            self, regulator_built_model, tmp_path):
        candidate = rolled_model(regulator_built_model)
        with ModelRegistry(tmp_path / "models") as registry:
            registry.publish(regulator_built_model, validate=False)
            registry.publish(candidate, validate=False)
            assert registry.current_fingerprint() \
                == model_fingerprint(candidate.network)
            assert model_fingerprint(registry.load()[1].network) \
                == model_fingerprint(candidate.network)
            assert model_fingerprint(registry.load_version(1).network) \
                == model_fingerprint(regulator_built_model.network)

    def test_stamp_names_the_live_artifact_and_fingerprint(
            self, regulator_built_model, tmp_path):
        with ModelRegistry(tmp_path / "models") as registry:
            registry.publish(regulator_built_model, validate=False)
            stamp = json.loads((registry.path / "CURRENT").read_text())
        assert stamp["version"] == 1
        assert stamp["file"] == "model-000001.pkl"
        assert (tmp_path / "models" / stamp["file"]).is_file()
        assert stamp["fingerprint"] \
            == model_fingerprint(regulator_built_model.network)
        assert isinstance(stamp["published_at"], float)

    def test_keep_zero_retains_only_the_current_artifact(
            self, regulator_built_model, tmp_path):
        with ModelRegistry(tmp_path / "models", keep=0) as registry:
            for _ in range(3):
                registry.publish(regulator_built_model, validate=False)
            assert registry.versions() == [3]
            assert registry.load()[0] == 3

    def test_versions_ignore_foreign_files(self, regulator_built_model,
                                           tmp_path):
        with ModelRegistry(tmp_path / "models") as registry:
            registry.publish(regulator_built_model, validate=False)
            for name in ("model-abc.pkl", "model-.pkl", "notes.txt",
                         "model-000002.pkl.tmp.123"):
                (registry.path / name).write_bytes(b"x")
            assert registry.versions() == [1]
            assert registry.publish(regulator_built_model,
                                    validate=False) == 2

    def test_a_file_in_place_of_the_directory_is_refused(self, tmp_path):
        occupied = tmp_path / "models"
        occupied.write_text("not a registry")
        with pytest.raises(ModelRegistryError, match="not a directory"):
            ModelRegistry(occupied)

    @pytest.mark.parametrize("sync", [False, True])
    def test_sync_fsyncs_each_write_before_its_rename(
            self, regulator_built_model, tmp_path, monkeypatch, sync):
        events = []
        fsync, replace = os.fsync, os.replace

        def recording_fsync(fd):
            events.append("fsync")
            fsync(fd)

        def recording_replace(src, dst):
            events.append(f"rename {os.path.basename(dst)}")
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        with ModelRegistry(tmp_path / "models", sync=sync) as registry:
            registry.publish(regulator_built_model, validate=False)
        renames = ["rename model-000001.pkl", "rename CURRENT"]
        if sync:
            assert events == ["fsync", renames[0], "fsync", renames[1]]
        else:
            assert events == renames

    def test_failed_stamp_write_keeps_the_previous_version(
            self, regulator_built_model, tmp_path, monkeypatch):
        """The stamp flips last: a publish that dies before it leaves the
        old version live, and the next publish takes the next version."""
        candidate = rolled_model(regulator_built_model)
        replace = os.replace

        def refuse_the_stamp(src, dst):
            if os.path.basename(dst) == "CURRENT":
                raise OSError("stamp rename refused")
            replace(src, dst)

        with ModelRegistry(tmp_path / "models") as registry:
            registry.publish(regulator_built_model, validate=False)
            with monkeypatch.context() as patch:
                patch.setattr(os, "replace", refuse_the_stamp)
                with pytest.raises(OSError, match="stamp rename refused"):
                    registry.publish(candidate, validate=False)
            version, model = registry.load()
            assert version == 1
            assert model_fingerprint(model.network) \
                == model_fingerprint(regulator_built_model.network)
            assert registry.publish(candidate, validate=False) == 2
            assert registry.current_fingerprint() \
                == model_fingerprint(candidate.network)


# ---------------------------------------------------------------------------
# ModelRegistry: damaged stamps and artifacts
# ---------------------------------------------------------------------------

def assert_published_or_refused(registry: ModelRegistry, version: int,
                                fingerprint: str) -> None:
    """Each read refuses with ``ModelRegistryError`` or reads ``version``."""
    try:
        assert registry.current_version() == version
    except ModelRegistryError:
        pass
    try:
        loaded_version, model = registry.load()
    except ModelRegistryError:
        return
    assert loaded_version == version
    assert model_fingerprint(model.network) == fingerprint


class TestRegistryDamage:
    @pytest.fixture
    def published(self, regulator_built_model, tmp_path):
        with ModelRegistry(tmp_path / "models") as registry:
            version = registry.publish(regulator_built_model)
            yield (registry, version,
                   model_fingerprint(regulator_built_model.network))

    @staticmethod
    def damaged_copies(path, offsets, lengths):
        """Yield once per damage: each offset flipped, then each truncation
        length, restoring the intact bytes in between."""
        intact = path.read_bytes()
        for offset in offsets:
            path.write_bytes(intact)
            flip_byte(path, offset)
            yield
        for length in lengths:
            path.write_bytes(intact)
            truncate_tail(path, len(intact) - length)
            yield
        path.write_bytes(intact)

    def test_every_stamp_flip_and_truncation_is_refused(self, published):
        registry, version, fingerprint = published
        stamp = registry.path / "CURRENT"
        size = stamp.stat().st_size
        for _ in self.damaged_copies(stamp, range(size), range(size)):
            assert_published_or_refused(registry, version, fingerprint)
        assert registry.current_version() == version

    def test_sampled_artifact_flips_and_truncations_are_refused(
            self, published):
        registry, version, fingerprint = published
        artifact = registry.path / f"model-{version:06d}.pkl"
        size = artifact.stat().st_size
        rng = np.random.default_rng(20)
        # The 8-byte header (magic, CRC32) and the last byte every time,
        # plus a seeded sample of the payload.
        offsets = [*range(8), *rng.integers(8, size, 48).tolist(), size - 1]
        lengths = [*range(9), *rng.integers(9, size, 48).tolist(), size - 1]
        for _ in self.damaged_copies(artifact, offsets, lengths):
            assert_published_or_refused(registry, version, fingerprint)
        assert registry.load()[0] == version

    @pytest.mark.parametrize("version", ['"1"', "-1", "1.5", "true", "null"])
    def test_stamp_version_must_be_a_non_negative_integer(self, tmp_path,
                                                          version):
        with ModelRegistry(tmp_path / "models") as registry:
            (registry.path / "CURRENT").write_text(
                f'{{"version": {version}, "file": "model-000001.pkl"}}')
            with pytest.raises(ModelRegistryError, match="version"):
                registry.current_version()
            with pytest.raises(ModelRegistryError, match="version"):
                registry.load()

    @pytest.mark.parametrize("stamp", ["{}", "[1]", "1",
                                       '{"file": "model-000001.pkl"}'])
    def test_stamp_without_a_version_field_is_refused(self, tmp_path, stamp):
        with ModelRegistry(tmp_path / "models") as registry:
            (registry.path / "CURRENT").write_text(stamp)
            with pytest.raises(ModelRegistryError,
                               match="missing its version field"):
                registry.current_version()
            with pytest.raises(ModelRegistryError,
                               match="missing its version field"):
                registry.load()

    @staticmethod
    def sealed(payload: bytes) -> bytes:
        """An artifact with an intact header over ``payload``."""
        return struct.pack("<4sI", MODEL_MAGIC, zlib.crc32(payload)) + payload

    @pytest.mark.parametrize("damage, message", [
        ("missing", "is missing"),
        ("truncated", r"is truncated \(5 bytes\)"),
        ("magic", "does not carry the model magic"),
        ("crc", "failed its CRC32 check"),
        ("unpickle", "does not unpickle"),
        ("foreign", "holds a dict, not a BuiltModel"),
    ])
    def test_each_artifact_defect_names_the_file(self, published, damage,
                                                 message):
        registry, version, _ = published
        artifact = registry.path / f"model-{version:06d}.pkl"
        if damage == "missing":
            artifact.unlink()
        elif damage == "truncated":
            truncate_tail(artifact, artifact.stat().st_size - 5)
        elif damage == "magic":
            flip_byte(artifact, 0)
        elif damage == "crc":
            flip_byte(artifact, artifact.stat().st_size - 1)
        elif damage == "unpickle":
            artifact.write_bytes(self.sealed(b"not a pickle"))
        else:
            artifact.write_bytes(self.sealed(pickle.dumps({"model": None})))
        for read in (registry.load, lambda: registry.load_version(version)):
            with pytest.raises(ModelRegistryError, match=message) as caught:
                read()
            assert str(artifact) in str(caught.value)
        # The stamp itself is intact: the poll still reads the version.
        assert registry.current_version() == version


# ---------------------------------------------------------------------------
# The worker's registry handle
# ---------------------------------------------------------------------------

class TestWorkerRegistryRuntime:
    @pytest.fixture
    def runtime(self, tmp_path):
        handle = _PersistRuntime(str(tmp_path), poll_interval=0.0)
        yield handle
        handle.registry.close()

    def test_an_empty_registry_serves_the_payload_model(
            self, runtime, regulator_built_model):
        assert runtime.resolve_model(regulator_built_model) \
            is regulator_built_model
        assert runtime.model_version == 0
        assert runtime.poll_reload() is None

    def test_the_published_model_wins_over_the_payload(
            self, runtime, regulator_built_model):
        candidate = rolled_model(regulator_built_model)
        runtime.registry.publish(candidate, validate=False)
        served = runtime.resolve_model(regulator_built_model)
        assert model_fingerprint(served.network) \
            == model_fingerprint(candidate.network)
        assert runtime.model_version == 1
        assert runtime.poll_reload() is None  # already on version 1

    def test_an_unreadable_registry_falls_back_to_the_payload(
            self, runtime, regulator_built_model, caplog):
        runtime.registry.publish(regulator_built_model, validate=False)
        flip_byte(runtime.registry.path / "CURRENT", 1)
        with caplog.at_level(logging.WARNING, logger="repro.serving"):
            served = runtime.resolve_model(regulator_built_model)
        assert served is regulator_built_model
        assert runtime.model_version == 0
        assert "model registry unreadable" in caplog.text

    def test_each_publish_is_picked_up_once(self, runtime,
                                            regulator_built_model):
        candidate = rolled_model(regulator_built_model)
        runtime.resolve_model(regulator_built_model)
        for version, model in ((1, regulator_built_model), (2, candidate)):
            runtime.registry.publish(model, validate=False)
            reloaded = runtime.poll_reload()
            assert model_fingerprint(reloaded.network) \
                == model_fingerprint(model.network)
            assert runtime.model_version == version
            assert runtime.poll_reload() is None

    def test_the_poll_is_throttled(self, tmp_path, regulator_built_model):
        runtime = _PersistRuntime(str(tmp_path), poll_interval=3600.0)
        try:
            runtime.resolve_model(regulator_built_model)
            assert runtime.poll_reload() is None  # the first poll runs
            runtime.registry.publish(regulator_built_model, validate=False)
            # Within the interval the stamp is not read, bump or not.
            assert runtime.poll_reload() is None
            assert runtime.model_version == 0
        finally:
            runtime.registry.close()

    def test_a_corrupt_new_artifact_is_retried_until_a_good_publish(
            self, runtime, regulator_built_model, caplog):
        candidate = rolled_model(regulator_built_model)
        runtime.registry.publish(regulator_built_model, validate=False)
        runtime.resolve_model(candidate)
        assert runtime.model_version == 1
        runtime.registry.publish(candidate, validate=False)
        flip_byte(runtime.registry.path / "model-000002.pkl", 0)
        with caplog.at_level(logging.WARNING, logger="repro.serving"):
            assert runtime.poll_reload() is None
            assert runtime.poll_reload() is None
        assert runtime.model_version == 1
        assert caplog.text.count("model registry poll failed; keeping "
                                 "version 1") == 2
        runtime.registry.publish(candidate, validate=False)
        reloaded = runtime.poll_reload()
        assert model_fingerprint(reloaded.network) \
            == model_fingerprint(candidate.network)
        assert runtime.model_version == 3
