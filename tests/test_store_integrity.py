"""Integrity-checked columnar-store persistence (format 2).

:meth:`DeviceResultStore.save` writes every plane atomically and records
its byte length and CRC32 in a magic-carrying metadata file; ``load``
verifies and raises a structured
:class:`~repro.exceptions.StoreCorruptionError` naming the defect instead
of serving garbage measurement planes.  Round-trip parity itself is covered
in ``test_columnar_store.py``; this file covers the corruption paths.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.ate import DeviceResultStore
from repro.exceptions import ATEError, StoreCorruptionError
from repro.testing import flip_byte, truncate_tail


@pytest.fixture(scope="module")
def saved(regulator_population, tmp_path_factory):
    store = regulator_population.to_store()
    path = store.save(tmp_path_factory.mktemp("store") / "pop")
    return store, path


def reconstructed(path, **kwargs):
    return DeviceResultStore.load(path, **kwargs)


def corrupt_copy(saved_path, tmp_path):
    """Clone the saved store so each test can damage its own copy."""
    import shutil
    clone = tmp_path / "clone"
    shutil.copytree(saved_path, clone)
    return clone


class TestFormat2:
    def test_round_trip_is_verified_and_exact(self, saved):
        store, path = saved
        meta = json.loads((path / "meta.json").read_text())
        assert meta["format"] == 2
        assert meta["magic"] == "RDRS2"
        assert set(meta["planes"]) >= {"values", "passed", "device_ids"}
        loaded = reconstructed(path, verify=True)
        assert np.array_equal(store.values, loaded.values)
        assert np.array_equal(store.passed, loaded.passed)

    def test_truncated_plane_is_always_detected(self, saved, tmp_path):
        clone = corrupt_copy(saved[1], tmp_path)
        truncate_tail(clone / "values.npy", 64)
        with pytest.raises(StoreCorruptionError) as excinfo:
            reconstructed(clone)
        assert excinfo.value.kind == "truncated"
        # The size check is one stat per plane: it runs even unverified.
        with pytest.raises(StoreCorruptionError):
            reconstructed(clone, verify=False)

    def test_flipped_bit_fails_the_crc_check(self, saved, tmp_path):
        clone = corrupt_copy(saved[1], tmp_path)
        plane = clone / "values.npy"
        flip_byte(plane, plane.stat().st_size - 1)
        with pytest.raises(StoreCorruptionError) as excinfo:
            reconstructed(clone)
        assert excinfo.value.kind == "bad-crc"
        assert excinfo.value.path == str(plane)

    def test_missing_plane_is_structural(self, saved, tmp_path):
        clone = corrupt_copy(saved[1], tmp_path)
        (clone / "passed.npy").unlink()
        with pytest.raises(StoreCorruptionError) as excinfo:
            reconstructed(clone)
        assert excinfo.value.kind == "missing-plane"

    def test_wrong_magic_is_rejected(self, saved, tmp_path):
        clone = corrupt_copy(saved[1], tmp_path)
        meta = json.loads((clone / "meta.json").read_text())
        meta["magic"] = "BOGUS"
        (clone / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(StoreCorruptionError) as excinfo:
            reconstructed(clone)
        assert excinfo.value.kind == "bad-magic"

    def test_verify_false_skips_only_the_crc_pass(self, saved, tmp_path):
        clone = corrupt_copy(saved[1], tmp_path)
        plane = clone / "values.npy"
        flip_byte(plane, plane.stat().st_size - 1)
        # Same length, rotten payload: only the CRC pass can see it.
        loaded = reconstructed(clone, verify=False)
        assert loaded.values.shape == saved[0].values.shape


class TestLegacyFormat1:
    def test_loads_unverified(self, saved, tmp_path):
        clone = corrupt_copy(saved[1], tmp_path)
        meta = json.loads((clone / "meta.json").read_text())
        meta["format"] = 1
        del meta["magic"]
        del meta["planes"]
        (clone / "meta.json").write_text(json.dumps(meta))
        loaded = reconstructed(clone)
        assert np.array_equal(saved[0].values, loaded.values)


def same_store(loaded, store) -> bool:
    """Every plane and every per-test field equal to the saved store's."""
    planes = ("device_ids", "values", "passed", "test_numbers",
              "fault_index", "fault_blocks", "fault_modes", "fault_severities")
    return (all(np.array_equal(getattr(loaded, name), getattr(store, name))
                for name in planes)
            and [loaded.test_names, loaded.blocks, loaded.conditions]
            == [store.test_names, store.blocks, store.conditions]
            and np.array_equal(loaded.lowers, store.lowers)
            and np.array_equal(loaded.uppers, store.uppers))


class TestMetadataFuzz:
    """Every single-byte, single-bit and truncation defect of ``meta.json``
    raises an :class:`ATEError` or loads the saved store unchanged."""

    @pytest.fixture(scope="class")
    def small(self, regulator_program, tmp_path_factory):
        from repro.ate import PopulationGenerator
        from repro.circuits import BehavioralSimulator, build_voltage_regulator
        circuit = build_voltage_regulator()
        simulator = BehavioralSimulator(
            circuit.netlist, process_variation=circuit.process_variation,
            seed=5)
        population = PopulationGenerator(
            simulator, regulator_program, circuit.fault_universe,
            circuit.block_weights, seed=6).generate(failed_count=4,
                                                    passing_count=1)
        store = population.to_store()
        path = store.save(tmp_path_factory.mktemp("meta-fuzz") / "pop")
        return store, path

    def outcomes(self, store, path, damaged):
        meta = path / "meta.json"
        pristine = meta.read_bytes()
        outcomes = {"raised": 0, "equal": 0}
        try:
            for content in damaged(pristine):
                if content is not None:
                    meta.write_bytes(content)
                try:
                    loaded = DeviceResultStore.load(path, mmap=False)
                except ATEError:
                    outcomes["raised"] += 1
                else:
                    assert same_store(loaded, store)
                    outcomes["equal"] += 1
                meta.write_bytes(pristine)
        finally:
            meta.write_bytes(pristine)
        return outcomes

    def test_the_saved_metadata_records_its_crc(self, small):
        meta = json.loads((small[1] / "meta.json").read_text())
        assert isinstance(meta["meta_crc32"], int)
        assert same_store(DeviceResultStore.load(small[1]), small[0])

    def test_every_flipped_byte_is_detected(self, small):
        store, path = small

        def flips(pristine):
            for offset in range(len(pristine)):
                flip_byte(path / "meta.json", offset)
                yield None

        outcomes = self.outcomes(store, path, flips)
        assert outcomes["equal"] == 0
        assert outcomes["raised"] == (path / "meta.json").stat().st_size

    def test_flipped_low_bits_raise_or_load_the_saved_store(self, small):
        store, path = small
        size = (path / "meta.json").stat().st_size
        offsets = np.random.default_rng(22).choice(size, size=min(size, 300),
                                                   replace=False)

        def flips(pristine):
            for offset in sorted(offsets.tolist()):
                for bit in range(7):
                    damaged = bytearray(pristine)
                    damaged[offset] ^= 1 << bit
                    yield bytes(damaged)

        outcomes = self.outcomes(store, path, flips)
        assert sum(outcomes.values()) == 7 * len(offsets)
        assert outcomes["raised"] > 0

    def test_every_truncation_is_detected(self, small):
        store, path = small

        def truncations(pristine):
            for length in range(len(pristine)):
                yield pristine[:length]

        outcomes = self.outcomes(store, path, truncations)
        assert outcomes["equal"] == 0

    def test_legacy_metadata_without_a_crc_still_loads(self, small, tmp_path):
        clone = corrupt_copy(small[1], tmp_path)
        meta = json.loads((clone / "meta.json").read_text())
        del meta["meta_crc32"]
        (clone / "meta.json").write_text(json.dumps(meta))
        assert same_store(DeviceResultStore.load(clone), small[0])
