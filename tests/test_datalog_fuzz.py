"""Differential fuzzing of the columnar datalog reader.

:func:`read_columnar` reads a lot in one vectorised pass over its bytes.
The reference here is the line-by-line reader it replaced, kept as the
oracle: for every mutated lot, both readers must return identical stores,
or both must raise :class:`DatalogError` for the same line.  No other
exception may escape either of them.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ate import datalog
from repro.ate.datalog import read_columnar, write_datalog
from repro.ate.store import DeviceResultStore
from repro.circuits.faults import FaultMode
from repro.exceptions import DatalogError

_REQUIRED = ("DEVICE", "TEST", "NAME", "BLOCK", "VALUE", "LO", "HI", "RESULT")


def read_columnar_oracle(path: str | Path) -> DeviceResultStore:
    """Read a datalog line by line into a columnar store (the reference).

    Every device must repeat the first device's program (TEST, NAME,
    BLOCK, LO, HI and COND, as text) in order; once the first device is
    complete, devices may interleave.  The first defective line raises
    :class:`DatalogError` with its line number: a non-ASCII byte, a
    malformed or missing field, a malformed program row of the first
    device (parsed as it is read), a deviating record or a non-numeric
    VALUE.  Short devices, an empty file and malformed or unknown fault
    labels are checked after the last line.
    """
    path = Path(path)

    def fail(line_number: int, message: str) -> DatalogError:
        return DatalogError(f"{path}:{line_number}: {message}",
                            path=str(path), line_number=line_number)

    program: list[tuple] = []
    rows: list[tuple] = []              # parsed program rows
    program_done = False
    device_ids: list[str] = []
    device_column: dict[str, int] = {}
    cursor: dict[str, int] = {}
    cells: dict[tuple[int, int], tuple[float, bool]] = {}
    fault_labels: dict[str, tuple[str, int]] = {}

    # latin-1 maps every byte to one character, so a non-ASCII byte is
    # found on its own line; the newline handling is Python's universal
    # newlines, as for any text file.
    with path.open(encoding="latin-1") as handle:
        for line_number, line in enumerate(handle, 1):
            if not line.isascii():
                raise fail(line_number, "non-ASCII byte")
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                parts = stripped.split(maxsplit=4)
                if (len(parts) >= 4 and parts[1] == "DEVICE"
                        and "=" in parts[3]):
                    key, _, value = " ".join(parts[3:]).partition("=")
                    if key.strip() == "injected_faults":
                        fault_labels[parts[2]] = (value.strip(), line_number)
                continue
            fields: dict[str, str] = {}
            for part in stripped.split("|"):
                if not part:
                    continue
                key, sep, value = part.partition("=")
                if not sep:
                    raise fail(line_number,
                               f"malformed datalog field {part!r}")
                fields[key] = value
            missing = [key for key in _REQUIRED if key not in fields]
            if missing:
                raise fail(line_number,
                           f"datalog line is missing fields {missing}")
            device_id = fields["DEVICE"]
            column = device_column.get(device_id)
            if column is None:
                column = len(device_ids)
                device_column[device_id] = column
                device_ids.append(device_id)
                cursor[device_id] = 0
                if program:
                    program_done = True
            row = cursor[device_id]
            signature = (fields["TEST"], fields["NAME"], fields["BLOCK"],
                         fields["LO"], fields["HI"], fields.get("COND", ""))
            if not program_done and column == 0:
                try:
                    number = int(signature[0])
                    lower, upper = float(signature[3]), float(signature[4])
                except ValueError:
                    raise fail(line_number,
                               "cannot parse numeric field") from None
                conditions: dict[str, float] = {}
                for piece in signature[5].split(";"):
                    if not piece:
                        continue
                    block, _, value = piece.partition(":")
                    try:
                        if not block or not value:
                            raise ValueError(piece)
                        conditions[block] = float(value)
                    except ValueError:
                        raise fail(line_number,
                                   f"malformed condition {piece!r}") from None
                program.append(signature)
                rows.append((number, signature[1], signature[2], lower,
                             upper, conditions))
            elif row >= len(program) or program[row] != signature:
                raise fail(line_number,
                           f"device {device_id!r} deviates from the program")
            try:
                value = float(fields["VALUE"])
            except ValueError:
                raise fail(line_number, "cannot parse numeric field VALUE"
                           ) from None
            cells[row, column] = (value, fields["RESULT"].upper() == "P")
            cursor[device_id] = row + 1

    if not program:
        raise DatalogError(f"datalog file {path} contains no records")
    if any(cursor[device] != len(program) for device in device_ids):
        raise DatalogError(f"{path}: devices have fewer records than the "
                           "program of the first device")
    values = np.empty((len(program), len(device_ids)))
    passed = np.empty((len(program), len(device_ids)), dtype=bool)
    for (row, column), (value, verdict) in cells.items():
        values[row, column] = value
        passed[row, column] = verdict
    faults = []
    for device_id, (labels, line_number) in fault_labels.items():
        column = device_column.get(device_id)
        if column is None or not labels:
            continue
        for label in labels.split(","):
            block, _, mode = label.partition(":")
            if not block or not mode:
                raise fail(line_number, f"malformed label {label!r}")
            try:
                faults.append((column, block, FaultMode(mode).value))
            except ValueError:
                raise fail(line_number, f"unknown mode {mode!r}") from None
    faults.sort(key=lambda fault: fault[0])
    number, name, block, lower, upper, conditions = zip(*rows)
    return DeviceResultStore(
        device_ids, values, passed, number, name, block, lower, upper,
        conditions, [fault[0] for fault in faults],
        [fault[1] for fault in faults], [fault[2] for fault in faults],
        [1.0] * len(faults))


def outcome(reader, path: Path):
    """A reader's store, or the line of the DatalogError it raises."""
    try:
        return reader(path)
    except DatalogError as exc:
        return exc.line_number


def assert_same_store(left: DeviceResultStore, right: DeviceResultStore):
    """Every plane bit-identical; ids, program rows and faults equal."""
    assert left.values.tobytes() == right.values.tobytes()
    assert left.passed.tobytes() == right.passed.tobytes()
    assert list(left.device_ids) == list(right.device_ids)
    assert left.test_numbers.tobytes() == right.test_numbers.tobytes()
    assert left.test_names == right.test_names
    assert left.blocks == right.blocks
    assert left.lowers.tobytes() == right.lowers.tobytes()
    assert left.uppers.tobytes() == right.uppers.tobytes()
    # repr keeps a NaN condition comparable and tells -0.0 from 0.0.
    assert repr(left.conditions) == repr(right.conditions)
    assert left.fault_index.tobytes() == right.fault_index.tobytes()
    assert list(left.fault_blocks) == list(right.fault_blocks)
    assert list(left.fault_modes) == list(right.fault_modes)


@pytest.fixture(scope="module")
def small_lot(regulator_population) -> bytes:
    """A four-device lot as the writer emits it."""
    with tempfile.TemporaryDirectory() as directory:
        path = write_datalog(regulator_population.to_datalogs()[:4],
                             Path(directory) / "lot.dlog")
        return path.read_bytes()


def _lines(data: bytes) -> list[bytes]:
    return data.split(b"\n")


#: Bytes that mean something to a reader: line ends, separators, padding,
#: NUL, a verdict, number syntax and bytes outside ASCII.
_SPECIAL = st.sampled_from(list(b"\r\n|=:;# \t\x0b\x1c\x00pP.e-_9\x85\xff"))


def _place(line: bytes, draw) -> int:
    """A byte of ``line``, often at the edge of a field or a key."""
    edges = sorted({0, len(line) - 1, *(
        at + step for at, byte in enumerate(line) if byte in b"|="
        for step in (-1, 1))} & set(range(len(line))))
    return draw(st.one_of(st.sampled_from(edges),
                          st.integers(0, len(line) - 1)))


def mutate(data: bytes, draw, kind: str) -> bytes:
    """Apply one mutation of ``kind`` at a drawn place."""
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data)))]
    if kind == "crlf":
        return data.replace(b"\n", b"\r\n")
    lines = _lines(data)
    at = draw(st.integers(0, len(lines) - 1))
    line = lines[at]
    fields = line.split(b"|")
    if kind == "replace" and line:
        where = _place(line, draw)
        byte = draw(st.one_of(_SPECIAL, st.integers(0, 255)))
        lines[at] = line[:where] + bytes([byte]) + line[where + 1:]
    elif kind == "rekey" and len(fields) > 1:
        # Give one field the key of another: a repeated or missing field.
        i = draw(st.integers(0, len(fields) - 1))
        j = draw(st.integers(0, len(fields) - 1))
        key = fields[j].partition(b"=")[0]
        fields[i] = key + b"=" + fields[i].partition(b"=")[2]
        lines[at] = b"|".join(fields)
    elif kind == "value" and len(fields) > 1:
        # Rewrite one value, most often one the reader takes as it stands.
        i = draw(st.one_of(
            st.sampled_from([i for i in (0, 4, 8) if i < len(fields)]),
            st.integers(0, len(fields) - 1)))
        key, sep, value = fields[i].partition(b"=")
        value = draw(st.one_of(
            st.sampled_from([b"", b"p", b"nan", b"-0", b"1e5", b"1_0", b"1e",
                             b"vp1:", b"vp1:x"]),
            st.just(value.lower()),
            st.builds(lambda byte: value + bytes([byte]), _SPECIAL),
            st.builds(lambda byte: bytes([byte]) + value, _SPECIAL)))
        fields[i] = key + sep + value
        lines[at] = b"|".join(fields)
    elif kind == "swap" and len(fields) > 1:
        i = draw(st.integers(0, len(fields) - 1))
        j = draw(st.integers(0, len(fields) - 1))
        fields[i], fields[j] = fields[j], fields[i]
        lines[at] = b"|".join(fields)
    elif kind == "delete":
        del lines[at]
    elif kind == "duplicate":
        lines.insert(at, line)
    elif kind == "blank":
        lines.insert(at, draw(st.sampled_from([b"", b"  ", b"\t", b"\r"])))
    elif kind == "pad":
        lines[at] = (draw(st.sampled_from([b" ", b"\t", b"\x0b", b""]))
                     + line
                     + draw(st.sampled_from([b" ", b"\t", b"\x1c", b""])))
    elif kind == "interleave":
        # Riffle one stretch of lines into the next one, line by line.
        end = min(len(lines), at + 2 * draw(st.integers(1, 30)))
        middle = (at + end) // 2
        riffled = [line for pair in zip(lines[at:middle], lines[middle:end])
                   for line in pair]
        lines[at:at + len(riffled)] = riffled
    return b"\n".join(lines)


#: Byte-level mutations are listed more than once: they are drawn more often.
MUTATIONS = ("truncate", "replace", "replace", "value", "value", "rekey",
             "swap", "delete", "duplicate", "crlf", "blank", "pad",
             "interleave")


@given(st.data())
def test_read_columnar_agrees_with_the_line_by_line_oracle(small_lot, data):
    lot = small_lot
    for kind in data.draw(st.lists(st.sampled_from(MUTATIONS), min_size=1,
                                   max_size=3), label="mutations"):
        lot = mutate(lot, data.draw, kind)
    # Small chunks put chunk edges inside lines, runs and the program.
    chunk = data.draw(st.sampled_from([datalog._CHUNK_BYTES, 4096, 97]),
                      label="chunk bytes")
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "mutated.dlog"
        path.write_bytes(lot)
        expected = outcome(read_columnar_oracle, path)
        with mock.patch.object(datalog, "_CHUNK_BYTES", chunk):
            got = outcome(read_columnar, path)
    if isinstance(expected, DeviceResultStore):
        assert isinstance(got, DeviceResultStore), got
        assert_same_store(expected, got)
    else:
        assert got == expected


def _edit_record(device: int, field: bytes, value: bytes | None = None,
                 key: bytes | None = None):
    """Rewrite ``field`` in the first record of the ``device``-th device.

    ``value`` replaces the field's value, ``key`` its key.
    """
    def edit(lines: list[bytes]) -> None:
        records = [at for at, line in enumerate(lines)
                   if line.startswith(b"DEVICE=")]
        ids = list(dict.fromkeys(lines[at].split(b"|")[0] for at in records))
        at = next(at for at in records
                  if lines[at].split(b"|")[0] == ids[device])
        parts = lines[at].split(b"|")
        for index, part in enumerate(parts):
            name, _, text = part.partition(b"=")
            if name == field:
                parts[index] = (key or name) + b"=" + (
                    text if value is None else value)
        lines[at] = b"|".join(parts)
    return edit


def _edit_line(at: int, change):
    def edit(lines: list[bytes]) -> None:
        lines[at] = change(lines[at])
    return edit


#: Lines just off the writer's layout, and values the array path must read
#: exactly as ``float`` and ``str.upper`` do.
EDGE_CASES = {
    "lower-case verdict": _edit_record(2, b"RESULT", b"p"),
    "two-letter verdict": _edit_record(2, b"RESULT", b"PP"),
    "VALUE ending in NUL": _edit_record(2, b"VALUE", b"1.5\x00"),
    "VALUE with NUL inside": _edit_record(2, b"VALUE", b"1\x005"),
    "padded VALUE": _edit_record(2, b"VALUE", b" 1.5\t"),
    "VALUE with underscore": _edit_record(2, b"VALUE", b"1_0.5"),
    "VALUE nan": _edit_record(2, b"VALUE", b"nan"),
    "long VALUE": _edit_record(2, b"VALUE", b"0" * 40 + b"1.5"),
    "long DEVICE": _edit_record(2, b"DEVICE", b"D" * 80),
    "VALUE repeated where UNITS is": _edit_record(2, b"UNITS", key=b"VALUE"),
    "TEST repeated where UNITS is": _edit_record(2, b"UNITS", key=b"TEST"),
    "VALUE repeated where COND is": _edit_record(2, b"COND", key=b"VALUE"),
    "COND of a later device": _edit_record(2, b"COND", b"vp1:13.5"),
    "COND of the first device": _edit_record(0, b"COND", b"vp1:x"),
    "UNITS of a later device": _edit_record(2, b"UNITS", b"mV"),
    "trailing file separator": _edit_line(5, lambda line: line + b"\x1c"),
    "lone CR in a record": _edit_line(5, lambda line: line.replace(
        b"|HI=", b"|\rHI=", 1)),
    "empty field": _edit_line(5, lambda line: line.replace(b"|", b"||", 1)),
    "long COND in every record": lambda lines: lines.__setitem__(
        slice(None), [line.replace(b"|COND=", b"|COND=" + b"vx:1;" * 60)
                      for line in lines]),
}


@pytest.mark.parametrize("edit", list(EDGE_CASES.values()),
                         ids=list(EDGE_CASES))
def test_edge_cases_read_alike(small_lot, tmp_path, edit):
    lines = _lines(small_lot)
    edit(lines)
    path = tmp_path / "edited.dlog"
    path.write_bytes(b"\n".join(lines))
    expected = outcome(read_columnar_oracle, path)
    got = outcome(read_columnar, path)
    if isinstance(expected, DeviceResultStore):
        assert isinstance(got, DeviceResultStore), got
        assert_same_store(expected, got)
    else:
        assert got == expected


def test_unmutated_lot_reads_alike(small_lot, tmp_path):
    path = tmp_path / "lot.dlog"
    path.write_bytes(small_lot)
    assert_same_store(read_columnar_oracle(path), read_columnar(path))


def test_interleaved_devices_read_alike(small_lot, tmp_path):
    """Once the first device is complete, later devices may interleave."""
    records = [line for line in _lines(small_lot)
               if line.startswith(b"DEVICE=")]
    devices = list(dict.fromkeys(line.split(b"|")[0] for line in records))
    runs = [[line for line in records if line.split(b"|")[0] == device]
            for device in devices]
    riffled = [line for group in zip(*runs[1:]) for line in group]
    path = tmp_path / "interleaved.dlog"
    path.write_bytes(b"\n".join(runs[0] + riffled) + b"\n")
    store = read_columnar(path)
    assert store.device_count == len(devices)
    assert_same_store(read_columnar_oracle(path), store)
