"""Columnar device-population store.

The paper's Dlog2BBN flow consumes "no-stop on fail" ATE datalogs from a
large defective-device population.  At that scale, one Python
``Measurement`` object per executed specification test is the dominant cost
of the training half of the pipeline, so this module stores a population
the way the batched tester produces it: as ``(tests, devices)``
value/verdict planes plus a small per-test metadata table, with the injected
ground-truth faults in ragged parallel arrays.

The store is the array-native interchange format between the ATE layer and
the learning layer:

* :meth:`ATETester.test_devices_store <repro.ate.tester.ATETester.test_devices_store>`
  fills the planes directly from the batched simulator output, without
  materialising row objects;
* :meth:`DeviceResultStore.to_results` / :meth:`DeviceResultStore.from_results`
  convert to/from the per-device row objects, bit-for-bit;
* :meth:`DeviceResultStore.save` / :meth:`DeviceResultStore.load` persist the
  planes as ``.npy`` files that can be memory-mapped, so ATE-scale datalogs
  stream from disk without per-record Python objects;
* :meth:`CaseGenerator.case_matrix <repro.core.case_generation.CaseGenerator.case_matrix>`
  discretises the planes straight into an integer case matrix for the
  batched estimators.
"""

from __future__ import annotations

import json
import os
import zlib
from collections.abc import Mapping, Sequence
from pathlib import Path

import numpy as np

from repro.ate.datalog import DeviceDatalog
from repro.ate.tester import DeviceResult, Measurement
from repro.circuits.faults import BlockFault, FaultMode
from repro.exceptions import ATEError, StoreCorruptionError

_META_FILE = "meta.json"
_ARRAY_FILES = ("values", "passed", "device_ids",
                "fault_index", "fault_blocks", "fault_modes",
                "fault_severities")

#: Header magic carried by format-2 store metadata.
STORE_MAGIC = "RDRS2"


def _meta_crc32(meta: Mapping) -> int:
    """CRC32 of the canonical JSON of every metadata field but its own."""
    return zlib.crc32(json.dumps(
        {key: value for key, value in meta.items() if key != "meta_crc32"},
        sort_keys=True, separators=(",", ":")).encode("ascii"))


class DeviceResultStore:
    """A device population as ``(tests, devices)`` planes.

    Parameters
    ----------
    device_ids:
        One identifier per device (the columns of the planes).
    values / passed:
        ``(tests, devices)`` measured values and pass/fail verdicts.
    test_numbers / test_names / blocks / lowers / uppers / conditions:
        Per-test metadata (the rows of the planes), shared by every device:
        test identity, the measured block, the specification limits and the
        forced conditions.
    fault_index / fault_blocks / fault_modes / fault_severities:
        Ragged ground-truth fault encoding: entry ``k`` says device column
        ``fault_index[k]`` carries ``BlockFault(fault_blocks[k],
        fault_modes[k], fault_severities[k])``.  Entries are ordered by
        device, then by fault-map insertion order, so per-device fault dicts
        round-trip exactly.
    """

    def __init__(self, device_ids: Sequence[str],
                 values: np.ndarray, passed: np.ndarray,
                 test_numbers: Sequence[int], test_names: Sequence[str],
                 blocks: Sequence[str], lowers: Sequence[float],
                 uppers: Sequence[float],
                 conditions: Sequence[Mapping[str, float]],
                 fault_index: np.ndarray | Sequence[int] = (),
                 fault_blocks: Sequence[str] = (),
                 fault_modes: Sequence[str] = (),
                 fault_severities: np.ndarray | Sequence[float] = ()) -> None:
        self.device_ids = np.asarray(device_ids, dtype=np.str_)
        self.values = np.asarray(values, dtype=float)
        self.passed = np.asarray(passed, dtype=bool)
        self.test_numbers = np.asarray(test_numbers, dtype=np.int64)
        self.test_names = [str(name) for name in test_names]
        self.blocks = [str(block) for block in blocks]
        self.lowers = np.asarray(lowers, dtype=float)
        self.uppers = np.asarray(uppers, dtype=float)
        self.conditions = [dict(mapping) for mapping in conditions]
        self.fault_index = np.asarray(fault_index, dtype=np.int64)
        self.fault_blocks = np.asarray(fault_blocks, dtype=np.str_)
        self.fault_modes = np.asarray(fault_modes, dtype=np.str_)
        self.fault_severities = np.asarray(fault_severities, dtype=float)
        tests, devices = self.values.shape if self.values.ndim == 2 else (-1, -1)
        if self.values.ndim != 2 or self.passed.shape != (tests, devices):
            raise ATEError(
                "store planes must be (tests, devices) arrays of equal shape")
        if len(self.device_ids) != devices:
            raise ATEError(
                f"store has {devices} device columns but "
                f"{len(self.device_ids)} device ids")
        for name, row in (("test_numbers", self.test_numbers),
                          ("test_names", self.test_names),
                          ("blocks", self.blocks),
                          ("lowers", self.lowers),
                          ("uppers", self.uppers),
                          ("conditions", self.conditions)):
            if len(row) != tests:
                raise ATEError(
                    f"store has {tests} test rows but {len(row)} {name}")
        faults = len(self.fault_index)
        if not (len(self.fault_blocks) == len(self.fault_modes)
                == len(self.fault_severities) == faults):
            raise ATEError("store fault arrays must have equal length")
        if faults and devices >= 0:
            if self.fault_index.min() < 0 or self.fault_index.max() >= devices:
                raise ATEError("store fault_index out of device range")

    # ------------------------------------------------------------------ shape
    @property
    def test_count(self) -> int:
        """Number of specification tests (plane rows)."""
        return self.values.shape[0]

    @property
    def device_count(self) -> int:
        """Number of devices (plane columns)."""
        return self.values.shape[1]

    def __len__(self) -> int:
        return self.device_count

    # ---------------------------------------------------------------- queries
    def failed_mask(self) -> np.ndarray:
        """Boolean ``(devices,)`` mask of devices failing at least one test."""
        return ~self.passed.all(axis=0)

    def select(self, devices: np.ndarray | Sequence[int]) -> "DeviceResultStore":
        """Return a new store holding only the selected device columns.

        ``devices`` is a boolean mask or an integer index array over the
        device columns.
        """
        devices = np.asarray(devices)
        if devices.dtype == bool:
            devices = np.flatnonzero(devices)
        remap = np.full(self.device_count, -1, dtype=np.int64)
        remap[devices] = np.arange(len(devices))
        keep = np.flatnonzero(remap[self.fault_index] >= 0) \
            if len(self.fault_index) else np.empty(0, dtype=np.int64)
        return DeviceResultStore(
            self.device_ids[devices], self.values[:, devices],
            self.passed[:, devices], self.test_numbers, self.test_names,
            self.blocks, self.lowers, self.uppers, self.conditions,
            remap[self.fault_index[keep]], self.fault_blocks[keep],
            self.fault_modes[keep], self.fault_severities[keep])

    # ------------------------------------------------------------ row objects
    @classmethod
    def from_results(cls, results: Sequence[DeviceResult]) -> "DeviceResultStore":
        """Build a store from per-device row objects.

        Every device must have executed the same program (same test
        identity, limits and conditions in the same order) — the invariant
        the batched tester guarantees and the case generator's program
        signature grouping checks per group.
        """
        results = list(results)
        if not results:
            raise ATEError("cannot build a store from an empty result list")
        first = results[0].measurements
        signature = [(m.test_number, m.test_name, m.block, m.lower, m.upper,
                      tuple(sorted(m.conditions.items()))) for m in first]
        tests, devices = len(first), len(results)
        values = np.empty((tests, devices), dtype=float)
        passed = np.empty((tests, devices), dtype=bool)
        fault_index: list[int] = []
        fault_blocks: list[str] = []
        fault_modes: list[str] = []
        fault_severities: list[float] = []
        for column, result in enumerate(results):
            rows = result.measurements
            if [(m.test_number, m.test_name, m.block, m.lower, m.upper,
                 tuple(sorted(m.conditions.items()))) for m in rows] != signature:
                raise ATEError(
                    f"device {result.device_id!r} ran a different test program "
                    f"than device {results[0].device_id!r}; a columnar store "
                    "requires a homogeneous population")
            values[:, column] = [m.value for m in rows]
            passed[:, column] = [m.passed for m in rows]
            for fault in result.faults.values():
                fault_index.append(column)
                fault_blocks.append(fault.block)
                fault_modes.append(fault.mode.value)
                fault_severities.append(fault.severity)
        return cls([result.device_id for result in results], values, passed,
                   [m.test_number for m in first], [m.test_name for m in first],
                   [m.block for m in first], [m.lower for m in first],
                   [m.upper for m in first],
                   [dict(m.conditions) for m in first],
                   fault_index, fault_blocks, fault_modes, fault_severities)

    def to_results(self) -> list[DeviceResult]:
        """Materialise per-device row objects from the planes.

        One shared (read-only) conditions dict per test keeps row
        materialisation cheap and preserves the identity-keyed condition
        label cache in the case generator.
        """
        tests, devices = self.values.shape
        numbers = [int(n) for n in self.test_numbers]
        lowers = [float(v) for v in self.lowers]
        uppers = [float(v) for v in self.uppers]
        conditions = [dict(mapping) for mapping in self.conditions]
        value_rows = self.values.tolist()
        passed_rows = self.passed.tolist()
        fault_dicts: list[dict[str, BlockFault]] = [{} for _ in range(devices)]
        for k in range(len(self.fault_index)):
            block = str(self.fault_blocks[k])
            fault_dicts[int(self.fault_index[k])][block] = BlockFault(
                block, FaultMode(str(self.fault_modes[k])),
                float(self.fault_severities[k]))
        results = [DeviceResult(device_id=str(device_id), measurements=[],
                                faults=fault_dicts[column])
                   for column, device_id in enumerate(self.device_ids)]
        for row in range(tests):
            number, name = numbers[row], self.test_names[row]
            block, shared = self.blocks[row], conditions[row]
            lower, upper = lowers[row], uppers[row]
            row_values, row_passed = value_rows[row], passed_rows[row]
            for column in range(devices):
                results[column].measurements.append(Measurement(
                    test_number=number, test_name=name, block=block,
                    value=row_values[column], lower=lower, upper=upper,
                    passed=row_passed[column], conditions=shared))
        return results

    def to_datalogs(self) -> list[DeviceDatalog]:
        """Convert the store into ASCII-serialisable device datalogs."""
        datalogs = []
        for column, result in enumerate(self.to_results()):
            datalogs.append(result.to_datalog())
        return datalogs

    # ------------------------------------------------------------ persistence
    def save(self, path: str | Path) -> Path:
        """Save the store as a directory of ``.npy`` planes plus metadata.

        The value/verdict planes (the only arrays that grow with the
        population) are stored as plain ``.npy`` files so :meth:`load` can
        memory-map them.  Every plane is written to a tmp file and
        ``os.rename``d, its byte length and CRC32 are recorded in the
        metadata (format 2, with header magic and its own CRC32), and the
        metadata file itself is committed last, also atomically — so a crash
        mid-save leaves either the previous consistent store or a detectable
        mismatch, never silently truncated arrays.
        """
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        arrays = {"values": self.values, "passed": self.passed,
                  "device_ids": self.device_ids,
                  "fault_index": self.fault_index,
                  "fault_blocks": self.fault_blocks,
                  "fault_modes": self.fault_modes,
                  "fault_severities": self.fault_severities}
        planes = {}
        for name, array in arrays.items():
            target = path / f"{name}.npy"
            tmp = path / f"{name}.npy.tmp.{os.getpid()}"
            with open(tmp, "wb") as handle:
                # Through a handle: np.save would append ".npy" to a bare
                # tmp path, breaking the rename.
                np.save(handle, array, allow_pickle=False)
            blob = tmp.read_bytes()
            planes[name] = {"bytes": len(blob),
                            "crc32": zlib.crc32(blob)}
            os.replace(tmp, target)
        meta = {"format": 2,
                "magic": STORE_MAGIC,
                "planes": planes,
                "test_numbers": [int(n) for n in self.test_numbers],
                "test_names": self.test_names,
                "blocks": self.blocks,
                "lowers": [float(v) for v in self.lowers],
                "uppers": [float(v) for v in self.uppers],
                "conditions": [{block: float(value)
                                for block, value in mapping.items()}
                               for mapping in self.conditions]}
        meta["meta_crc32"] = _meta_crc32(meta)
        meta_tmp = path / f"{_META_FILE}.tmp.{os.getpid()}"
        meta_tmp.write_text(json.dumps(meta), encoding="ascii")
        os.replace(meta_tmp, path / _META_FILE)
        return path

    @classmethod
    def load(cls, path: str | Path, *, mmap: bool = True,
             verify: bool = True) -> "DeviceResultStore":
        """Load a store saved by :meth:`save`.

        With ``mmap=True`` (default) the planes are memory-mapped read-only,
        so opening an ATE-scale population costs O(metadata) — pages stream
        in as the estimators touch them.

        Format-2 stores carry header magic plus per-plane byte lengths and
        CRC32 checksums; a truncated or bit-flipped plane raises a
        structured :class:`~repro.exceptions.StoreCorruptionError` naming
        the defect instead of silently yielding garbage arrays.  Length
        checks are one ``stat`` per plane and always run; the CRC pass
        reads each plane once (the pages stay hot for the mmap) and can be
        skipped with ``verify=False`` when open cost must stay
        O(metadata).  So does metadata that is undecodable, incomplete or
        fails its CRC32 (checked when recorded).  Legacy format-1 stores (no
        checksums recorded) still load unverified.
        """
        path = Path(path)
        meta_path = path / _META_FILE
        if not meta_path.exists():
            raise ATEError(f"no columnar store at {path} (missing {_META_FILE})")
        try:
            meta = json.loads(meta_path.read_bytes().decode("ascii"))
            version = meta.get("format")
            if version not in (1, 2):
                raise ATEError(
                    f"unsupported columnar store format {version!r}")
            if version == 2 and meta.get("magic") != STORE_MAGIC:
                raise StoreCorruptionError(
                    f"columnar store at {path} does not carry the store "
                    f"magic {STORE_MAGIC!r} (found {meta.get('magic')!r})",
                    kind="bad-magic", path=str(meta_path))
            if version == 2 and "meta_crc32" in meta \
                    and meta["meta_crc32"] != _meta_crc32(meta):
                raise StoreCorruptionError(
                    f"metadata of the columnar store at {path} failed its "
                    f"CRC32 check", kind="bad-crc", path=str(meta_path))
            planes = meta.get("planes", {}) if version == 2 else {}
            expected = {name: (int(planes[name]["bytes"]),
                               int(planes[name]["crc32"]))
                        for name in _ARRAY_FILES if name in planes}
            fields = [meta[name] for name in ("test_numbers", "test_names",
                      "blocks", "lowers", "uppers", "conditions")]
        except (ValueError, KeyError, TypeError, AttributeError) as error:
            raise StoreCorruptionError(
                f"metadata of the columnar store at {path} cannot be "
                f"decoded, parsed or read in full: {error!r}",
                kind="bad-meta", path=str(meta_path)) from None
        mode = "r" if mmap else None
        arrays = {}
        for name in _ARRAY_FILES:
            file = path / f"{name}.npy"
            if not file.exists():
                error_cls = StoreCorruptionError if version == 2 else ATEError
                raise error_cls(
                    f"columnar store at {path} is missing {name}.npy",
                    **({"kind": "missing-plane", "path": str(file)}
                       if version == 2 else {}))
            if name in expected:
                size, crc = expected[name]
                if file.stat().st_size != size:
                    raise StoreCorruptionError(
                        f"plane {name}.npy of the store at {path} is "
                        f"{file.stat().st_size} byte(s), expected {size} — "
                        f"truncated or torn write", kind="truncated",
                        path=str(file))
                if verify and zlib.crc32(file.read_bytes()) != crc:
                    raise StoreCorruptionError(
                        f"plane {name}.npy of the store at {path} failed "
                        f"its CRC32 check — refusing to serve corrupted "
                        f"measurements", kind="bad-crc", path=str(file))
            arrays[name] = np.load(file, mmap_mode=mode, allow_pickle=False)
        return cls(arrays["device_ids"], arrays["values"], arrays["passed"],
                   *fields, arrays["fault_index"], arrays["fault_blocks"],
                   arrays["fault_modes"], arrays["fault_severities"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DeviceResultStore(tests={self.test_count}, "
                f"devices={self.device_count}, faults={len(self.fault_index)})")


def store_from_datalogs(datalogs: Sequence[DeviceDatalog]) -> DeviceResultStore:
    """Build a columnar store from parsed per-device datalogs.

    The ground-truth ``injected_faults`` metadata written by
    :meth:`DeviceResult.to_datalog` is decoded back into fault entries
    (severity is not serialised by the label format and defaults to 1.0).
    """
    if not datalogs:
        raise ATEError("cannot build a store from an empty datalog list")
    results = []
    for datalog in datalogs:
        faults: dict[str, BlockFault] = {}
        labels = datalog.metadata.get("injected_faults", "")
        if labels:
            for label in labels.split(","):
                block, _, mode = label.partition(":")
                if not block or not mode:
                    raise ATEError(
                        f"malformed injected_faults label {label!r} for "
                        f"device {datalog.device_id!r}")
                faults[block] = BlockFault(block, FaultMode(mode))
        measurements = [Measurement(
            test_number=record.test_number, test_name=record.test_name,
            block=record.block, value=record.value, lower=record.lower,
            upper=record.upper, passed=record.passed,
            conditions=dict(record.conditions)) for record in datalog.records]
        results.append(DeviceResult(device_id=datalog.device_id,
                                    measurements=measurements, faults=faults))
    return DeviceResultStore.from_results(results)
