"""ASCII ATE datalogs: records, writer and parser.

Dlog2BBN, the paper's model builder, "converts ATE test files into cases".
The proprietary log format is not public, so this module defines a simple
ASCII datalog that carries the same information a production datalog does —
device identity, test number/name, forced conditions, measured value, limits
and the pass/fail verdict — and a parser that reads it back.  The case
generator consumes parsed datalogs, never simulator objects, so the pipeline
is the same whether the log came from the behavioural simulator or from a
real tester (after format conversion).

Format (one record per line, ``|``-separated key=value fields)::

    DEVICE=VR-0001|TEST=110|NAME=reg1_nominal|BLOCK=reg1|VALUE=8.4987|LO=8.0|HI=9.0|UNITS=V|RESULT=P|COND=vp1:13.5;vp2:8.0

A file is ASCII; lines end at LF, CRLF or a lone CR.  Blank lines are
ignored, and lines starting with ``#`` are comments; the writer records
device metadata in them (``# DEVICE VR-0001 injected_faults=reg1:dead``).
Fields may come in any order and a line may carry padding whitespace, but
the writer emits exactly the order above; :func:`read_columnar` reads lines
in that layout with array operations and any other line on its own.
UNITS is informational: devices may differ in it.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Mapping
from pathlib import Path

import numpy as np

from repro.exceptions import DatalogError


@dataclasses.dataclass(frozen=True)
class DatalogRecord:
    """One measurement record of one device.

    Attributes
    ----------
    device_id:
        Identifier of the device under test.
    test_number / test_name:
        The ATE test that produced the record.
    block:
        The observable model variable the test measures.
    value:
        The measured value.
    lower / upper:
        The specification limits applied.
    passed:
        The pass/fail verdict.
    conditions:
        The forced values of the controllable blocks during the test.
    units:
        Measurement units.
    """

    device_id: str
    test_number: int
    test_name: str
    block: str
    value: float
    lower: float
    upper: float
    passed: bool
    conditions: Mapping[str, float]
    units: str = "V"

    def to_line(self) -> str:
        """Serialise the record to one datalog line."""
        conditions = ";".join(f"{block}:{value:g}"
                              for block, value in self.conditions.items())
        return ("DEVICE={device}|TEST={number}|NAME={name}|BLOCK={block}|"
                "VALUE={value:.6g}|LO={lower:g}|HI={upper:g}|UNITS={units}|"
                "RESULT={result}|COND={conditions}").format(
                    device=self.device_id, number=self.test_number,
                    name=self.test_name, block=self.block, value=self.value,
                    lower=self.lower, upper=self.upper, units=self.units,
                    result="P" if self.passed else "F", conditions=conditions)

    @classmethod
    def from_line(cls, line: str) -> "DatalogRecord":
        """Parse one datalog line, as :func:`read_columnar` reads it."""
        try:
            fields = _record_fields(line.strip())
            conditions = _conditions(fields.get("COND", ""))
            try:
                number, value = int(fields["TEST"]), float(fields["VALUE"])
                lower, upper = float(fields["LO"]), float(fields["HI"])
            except ValueError:
                raise _LineError("cannot parse numeric field") from None
        except _LineError as exc:
            raise DatalogError(f"{exc} in line {line!r}") from None
        return cls(device_id=fields["DEVICE"], test_number=number,
                   test_name=fields["NAME"], block=fields["BLOCK"],
                   value=value, lower=lower, upper=upper,
                   passed=fields["RESULT"].upper() == "P",
                   conditions=conditions, units=fields.get("UNITS", "V"))


@dataclasses.dataclass
class DeviceDatalog:
    """The complete no-stop-on-fail datalog of one device.

    Attributes
    ----------
    device_id:
        Identifier of the device.
    records:
        One record per executed specification test, in execution order.
    metadata:
        Free-form annotations (e.g. the injected fault for simulated devices,
        kept out of the learning path and used only for scoring).
    """

    device_id: str
    records: list[DatalogRecord] = dataclasses.field(default_factory=list)
    metadata: dict[str, str] = dataclasses.field(default_factory=dict)

    def add(self, record: DatalogRecord) -> None:
        """Append a record, enforcing that it belongs to this device."""
        if record.device_id != self.device_id:
            raise DatalogError(
                f"record for device {record.device_id!r} added to datalog of "
                f"{self.device_id!r}")
        self.records.append(record)

    @property
    def failed(self) -> bool:
        """``True`` when at least one specification test failed."""
        return any(not record.passed for record in self.records)

    def __len__(self) -> int:
        return len(self.records)


def write_datalog(datalogs: Iterable[DeviceDatalog], path: str | Path) -> Path:
    """Write device datalogs to ``path`` in the ASCII format.

    Device metadata is written as comment lines (``# DEVICE key=value``) so
    that the ground-truth fault of simulated devices survives the round trip
    without contaminating the measurement records.
    """
    path = Path(path)
    lines: list[str] = []
    for datalog in datalogs:
        for key, value in datalog.metadata.items():
            lines.append(f"# DEVICE {datalog.device_id} {key}={value}")
        for record in datalog.records:
            lines.append(record.to_line())
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


def parse_datalog(path: str | Path) -> list[DeviceDatalog]:
    """Parse an ASCII datalog file back into per-device datalogs."""
    path = Path(path)
    if not path.exists():
        raise DatalogError(f"datalog file {path} does not exist")
    raw = path.read_bytes()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        prefix = raw[:exc.start].decode("ascii")
        line_number = len((prefix + "x").splitlines())
        raise DatalogError(
            f"{path}:{line_number}: non-ASCII byte {raw[exc.start]:#04x}",
            path=str(path), line_number=line_number) from None
    datalogs: dict[str, DeviceDatalog] = {}
    for line_number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            parts = stripped.split(maxsplit=4)
            # "# DEVICE <id> key=value"
            if len(parts) >= 4 and parts[1] == "DEVICE" and "=" in parts[3]:
                device_id = parts[2]
                key, _, value = " ".join(parts[3:]).partition("=")
                datalogs.setdefault(device_id, DeviceDatalog(device_id))
                datalogs[device_id].metadata[key.strip()] = value.strip()
            continue
        try:
            record = DatalogRecord.from_line(stripped)
        except DatalogError as exc:
            raise DatalogError(f"{path}:{line_number}: {exc}",
                               path=str(path), line_number=line_number) from exc
        datalogs.setdefault(record.device_id, DeviceDatalog(record.device_id))
        datalogs[record.device_id].add(record)
    return list(datalogs.values())


_REQUIRED_FIELDS = ("DEVICE", "TEST", "NAME", "BLOCK", "VALUE", "LO", "HI",
                    "RESULT")

#: Bytes :func:`read_columnar` reads at a time.  Each chunk is cut after its
#: last complete line, so the reader's working set is a small multiple of
#: this whatever the size of the lot.
_CHUNK_BYTES = 1 << 19
#: The writer's field keys, in the writer's order, as little-endian words
#: and the masks that select their bytes.  A record line in exactly this
#: layout is read with array operations; any other line is read on its own.
_KEYS = (b"DEVICE=", b"TEST=", b"NAME=", b"BLOCK=", b"VALUE=", b"LO=",
         b"HI=", b"UNITS=", b"RESULT=", b"COND=")
_KEY_WORDS = np.array([int.from_bytes(key, "little") for key in _KEYS],
                      dtype=np.uint64)
#: ``_BYTE_MASKS[n]`` selects the first ``n`` bytes of a word.
_BYTE_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)
_KEY_MASKS = _BYTE_MASKS[[len(key) for key in _KEYS]]
#: Longest DEVICE and VALUE texts the array path reads; a record with a
#: longer one is read on its own.
_MAX_ID_BYTES = 64
_MAX_VALUE_BYTES = 32
#: Zero bytes appended to each chunk so that word gathers stay inside it.
_PAD = 128
#: The ASCII bytes ``str.strip`` removes.
_SPACE = np.zeros(256, dtype=bool)
_SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True


class _LineError(Exception):
    """A defect of one datalog line; the reader adds the line number."""


def _record_fields(text: str) -> dict[str, str]:
    """Split a stripped record line into its ``KEY=value`` fields."""
    fields: dict[str, str] = {}
    for part in text.split("|"):
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep:
            raise _LineError(f"malformed datalog field {part!r}")
        fields[key] = value
    missing = [key for key in _REQUIRED_FIELDS if key not in fields]
    if missing:
        raise _LineError(f"datalog line is missing fields {missing}")
    return fields


def _conditions(text: str) -> dict[str, float]:
    """Read a COND field: ``block:value`` pairs separated by ``;``."""
    conditions: dict[str, float] = {}
    for piece in text.split(";"):
        if not piece:
            continue
        block, _, value = piece.partition(":")
        try:
            if not block or not value:
                raise ValueError(piece)
            conditions[block] = float(value)
        except ValueError:
            raise _LineError(f"malformed condition {piece!r}") from None
    return conditions


def _signature(fields: Mapping[str, str]) -> tuple[str, ...]:
    """The program text of a record: the fields every device repeats."""
    return (fields["TEST"], fields["NAME"], fields["BLOCK"], fields["LO"],
            fields["HI"], fields.get("COND", ""))


def _field_words(data: np.ndarray, size: int, begin: np.ndarray,
                 length: np.ndarray, count: int | None = None) -> np.ndarray:
    """Gather each row's ``length`` bytes at ``begin`` as zero-padded words.

    ``data`` holds a chunk of ``size`` bytes and at least ``8 * count``
    padding bytes after it.  ``count`` words are gathered per row (default:
    enough for the longest row); bytes past a row's length are zeroed.
    """
    if count is None:
        count = max(-(-int(length.max(initial=0)) // 8), 1)
    windows = np.lib.stride_tricks.as_strided(data, (size, 8 * count), (1, 1),
                                              writeable=False)
    text = windows[begin].view("<u8")
    text &= _BYTE_MASKS[np.clip(length[:, None] - 8 * np.arange(count), 0, 8)]
    return text


class _ColumnarReader:
    """The state of one :func:`read_columnar` pass over a datalog.

    The test program is learned from the first device's records, each
    parsed as it is read.  Whole chunks of later records in the writer's
    layout are compared with it exactly, eight bytes at a time, through
    the bytes such a record carries for each program row
    (:meth:`program_words`).
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self.lines_read = 0
        self.program: list[tuple[str, ...]] = []
        self.numbers: list[int] = []
        self.lowers: list[float] = []
        self.uppers: list[float] = []
        self.conditions: list[dict[str, float]] = []
        self._words: list[tuple[np.ndarray, np.ndarray]] | None = None
        self.device_ids: list[str] = []
        self.columns: dict[str, int] = {}
        self.cursor: list[int] = []            # next program row per device
        self.labels: dict[str, tuple[str, int]] = {}
        self.cells: list[tuple[np.ndarray, ...]] = []

    def fail(self, line_number: int, message: str) -> DatalogError:
        return DatalogError(f"{self.path}:{line_number}: {message}",
                            path=str(self.path), line_number=line_number)

    @staticmethod
    def _deviates(device_id: str) -> str:
        return (f"device {device_id!r} deviates from the test program of "
                "the first device; the columnar reader requires a "
                "homogeneous datalog (use parse_datalog for heterogeneous "
                "logs)")

    # ------------------------------------------------------------- one line
    def _column(self, device_id: str) -> int:
        column = self.columns.get(device_id)
        if column is None:
            column = self.columns[device_id] = len(self.device_ids)
            self.device_ids.append(device_id)
            self.cursor.append(0)
        return column

    def _comment(self, text: str, line_number: int) -> None:
        parts = text.split(maxsplit=4)
        # "# DEVICE <id> key=value"
        if len(parts) >= 4 and parts[1] == "DEVICE" and "=" in parts[3]:
            key, _, value = " ".join(parts[3:]).partition("=")
            if key.strip() == "injected_faults":
                self.labels[parts[2]] = (value.strip(), line_number)

    def _learn(self, fields: Mapping[str, str]) -> None:
        """Append one record of the first device to the program."""
        signature = _signature(fields)
        try:
            number = int(fields["TEST"])
            lower, upper = float(fields["LO"]), float(fields["HI"])
        except ValueError:
            raise _LineError("cannot parse numeric field") from None
        conditions = _conditions(signature[5])
        self.program.append(signature)
        self.numbers.append(number)
        self.lowers.append(lower)
        self.uppers.append(upper)
        self.conditions.append(conditions)
        self._words = None

    def program_words(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The program's layout bytes as words, for comparing records.

        A program row's layout bytes come in three parts:
        ``TEST=..|NAME=..|BLOCK=..|``, ``LO=..|HI=..|`` and ``COND=..``.
        Per part this returns each row's length and its bytes as
        little-endian words, zero-padded to the part's longest row.
        """
        if self._words is None:
            self._words = []
            rows = [("TEST=%s|NAME=%s|BLOCK=%s|" % signature[:3],
                     "LO=%s|HI=%s|" % signature[3:5], "COND=" + signature[5])
                    for signature in self.program]
            for part in zip(*rows):
                texts = [text.encode("ascii") for text in part]
                width = 8 * max(-(-max(map(len, texts)) // 8), 1)
                self._words.append((
                    np.array([len(text) for text in texts]),
                    np.frombuffer(b"".join(text.ljust(width, b"\0")
                                           for text in texts),
                                  "<u8").reshape(len(texts), -1)))
        return self._words

    # ---------------------------------------------------------------- chunk
    def read_lines(self, buffer: bytes) -> None:
        """Read one chunk of whole lines into the program and the cells.

        Every defect found is collected with its line and the earliest is
        raised: the one a line-by-line read would have stopped at.  Checks
        that need no earlier line (bytes, fields, VALUE) come first and
        bound how far the ones that do (program rows, deviations) look.
        """
        size = len(buffer)
        padded = buffer + bytes(_PAD)
        data = np.frombuffer(padded, np.uint8)
        body = data[:size]
        # The eight bytes from every offset, as one little-endian word.
        words = np.ndarray((size + _PAD - 7,), "<u8", padded, strides=(1,))
        # Lines end at LF, at CRLF and at a lone CR (universal newlines).
        breaks = body == 10
        if b"\r" in buffer:
            breaks |= body == 13
            breaks[:-1] &= ~((body[:-1] == 13) & (body[1:] == 10))
        # Every line end and field bar, in one scan; a line's bars are the
        # marks just before its end.
        marks = np.flatnonzero(breaks | (body == 124))
        at_end = np.flatnonzero(breaks[marks])
        ends = marks[at_end]
        if not ends.size or ends[-1] != size - 1:
            ends = np.append(ends, size)
            at_end = np.append(at_end, len(marks))
        starts = np.concatenate(([0], ends[:-1] + 1))
        stops = ends - ((ends > starts) & (data[ends - 1] == 13))
        first = self.lines_read + 1
        self.lines_read += len(ends)
        errors: list[tuple[int, str]] = []
        limit = len(ends)
        if not buffer.isascii():
            offset = int(np.argmax(body >= 128))
            limit = int(np.searchsorted(ends, offset))
            errors.append((limit, f"non-ASCII byte {buffer[offset]:#04x}"))

        # Records in the writer's layout: "DEVICE=" first, nine bars, each
        # field key in place and nothing for str.strip to remove.
        layout = ((np.diff(at_end, prepend=-1) == 10)
                  & (words[starts] & _KEY_MASKS[0] == _KEY_WORDS[0])
                  & ~_SPACE[data[stops - 1]] & (np.arange(len(ends)) < limit))
        lines = np.flatnonzero(layout)
        bars = marks[at_end[lines, None] - 9 + np.arange(9)]
        value_length = bars[:, 4] - bars[:, 3] - 7
        keys = words[bars + 1] & _KEY_MASKS[1:] == _KEY_WORDS[1:]
        keep = ((keys.all() or keys.all(axis=1))
                & (bars[:, 0] - starts[lines] - 7 <= _MAX_ID_BYTES)
                & (value_length <= _MAX_VALUE_BYTES)
                # A final NUL would vanish from the fixed-width VALUE text.
                & (data[bars[:, 4] - 1] != 0))
        lines, bars, value_length = lines[keep], bars[keep], value_length[keep]

        records, limit = self._read_other_lines(buffer, starts, ends, lines,
                                                first, limit, errors)
        count = int(np.searchsorted(lines, limit))
        lines, bars = lines[:count], bars[:count]
        values = _field_words(data, size, bars[:, 3] + 7,
                              value_length[:count])
        values = values.view(f"S{8 * values.shape[1]}")[:, 0]
        try:
            values = values.astype(float)
        except ValueError:
            values, limit = self._bad_value(values, lines, limit, errors)
            count = int(np.searchsorted(lines, limit))
            lines, bars, values = lines[:count], bars[:count], values[:count]
            records = [record for record in records if record[0] < limit]
        passed = ((bars[:, 8] - bars[:, 7] == 9)
                  & (data[bars[:, 7] + 8] | 32 == ord("p")))

        rows, columns, learned, count = self._assign(
            buffer, data, starts, stops, lines, bars, records, errors)
        self._check_program(buffer, data, starts, stops, lines[:count],
                            bars[:count], rows[:count], learned[:count],
                            errors)
        if errors:
            index, message = min(errors)
            raise self.fail(first + index, message)
        self.cells.append((rows, columns, values, passed))

    def _read_other_lines(self, buffer, starts, ends, lines, first, limit,
                          errors):
        """Read every line off the layout on its own, up to ``limit``.

        Blank lines are skipped and comments kept for their fault labels.
        Returns the records among them as ``(line index, fields, value)``
        and the index of the first defective one (else ``limit``).
        """
        other = np.ones(limit, dtype=bool)
        other[lines[lines < limit]] = False
        records = []
        for index in np.flatnonzero(other).tolist():
            text = buffer[starts[index]:ends[index]].decode("ascii").strip()
            if not text:
                continue
            if text.startswith("#"):
                self._comment(text, first + index)
                continue
            try:
                fields = _record_fields(text)
                try:
                    value = float(fields["VALUE"])
                except ValueError:
                    raise _LineError("cannot parse numeric field "
                                     f"VALUE={fields['VALUE']!r}") from None
            except _LineError as exc:
                errors.append((index, str(exc)))
                return records, index
            records.append((index, fields, value))
        return records, limit

    @staticmethod
    def _bad_value(texts, lines, limit, errors) -> tuple[np.ndarray, int]:
        """Convert VALUE texts one at a time, up to the first bad one."""
        values = np.empty(len(texts))
        for position, text in enumerate(texts.tolist()):
            try:
                values[position] = float(text)
            except ValueError:
                errors.append((int(lines[position]), "cannot parse numeric "
                               f"field VALUE={text.decode('ascii')!r}"))
                return values, int(lines[position])
        return values, limit

    def _assign(self, buffer, data, starts, stops, lines, bars, records,
                errors):
        """Give each record its device column and program row, in order.

        Consecutive layout records of one device form a run, assigned in
        one step; a record off the layout is a step of its own and goes
        into :attr:`cells` here.  Records of the first device, until a
        second device appears, are parsed into the program.  Returns the
        layout records' rows, columns and learned flags, and how many of
        them precede the first defect found here.
        """
        begin = starts[lines] + 7
        length = bars[:, 0] - begin
        same = length[1:] == length[:-1]
        for word in _field_words(data, len(buffer), begin, length).T:
            same &= word[1:] == word[:-1]
        if records:
            record_lines = [record[0] for record in records]
            same &= (np.searchsorted(record_lines, lines[1:])
                     == np.searchsorted(record_lines, lines[:-1]))
        heads = np.flatnonzero(np.concatenate(([True], ~same)))[:len(lines)]
        tails = np.append(heads[1:], len(lines))
        steps = zip(lines[heads].tolist(), heads.tolist(), tails.tolist(),
                    [buffer[a:b].decode("ascii") for a, b in zip(
                        begin[heads].tolist(), bars[heads, 0].tolist())],
                    [None] * len(heads))
        if records:
            steps = sorted([*steps, *((record[0], 0, 0, record[1]["DEVICE"],
                                       record) for record in records)],
                           key=lambda step: step[0])
        learned = np.zeros(len(lines), dtype=bool)
        runs: list[tuple[int, int]] = []       # (row, column) per run
        cells = []
        count = len(lines)
        columns, cursor = self.columns, self.cursor
        for line, head, tail, device_id, record in steps:
            column = columns.get(device_id)
            if column is None:
                column = self._column(device_id)
            row = cursor[column]
            if record is None:
                runs.append((row, column))
                cursor[column] = row + tail - head
            else:
                cells.append((row, column, record[2],
                              record[1]["RESULT"].upper() == "P"))
                cursor[column] = row + 1
            if len(self.device_ids) == 1:
                learned[head:tail] = True
                at = line
                try:
                    if record is not None:
                        self._learn(record[1])
                    for at in lines[head:tail].tolist():
                        self._learn(_record_fields(
                            buffer[starts[at]:stops[at]].decode("ascii")))
                except _LineError as exc:
                    errors.append((at, str(exc)))
                    count = int(np.searchsorted(lines, at))
                    break
            elif record is not None and (
                    row >= len(self.program)
                    or self.program[row] != _signature(record[1])):
                errors.append((line, self._deviates(device_id)))
                count = int(np.searchsorted(lines, line))
                break
        if cells:
            self.cells.append(tuple(np.array(part) for part in zip(*cells)))
        # Each run's records take consecutive rows from the run's first.
        run_rows, run_columns = np.array(runs, dtype=np.int64).reshape(-1, 2).T
        sizes = (tails - heads)[:len(runs)]
        rows = np.repeat(run_rows - heads[:len(runs)], sizes) + np.arange(
            sizes.sum())
        return rows, np.repeat(run_columns, sizes), learned, count

    def _check_program(self, buffer, data, starts, stops, lines, bars, rows,
                       learned, errors) -> None:
        """Compare layout records with their program rows, word by word."""
        if learned.any():
            check = np.flatnonzero(~learned)
            lines, bars, rows = lines[check], bars[check], rows[check]
        if not len(rows):
            return
        inside = rows < len(self.program)
        wrong = ~inside
        row = np.where(inside, rows, 0)
        # A record's program bytes: "TEST=..|NAME=..|BLOCK=..|", then
        # "LO=..|HI=..|", then "COND=..".
        spans = ((bars[:, 0] + 1, bars[:, 3] + 1),
                 (bars[:, 4] + 1, bars[:, 6] + 1),
                 (bars[:, 8] + 1, stops[lines]))
        program = self.program_words()
        widest = max(8 * expected.shape[1] for _, expected in program)
        if widest > _PAD:
            data = np.frombuffer(buffer + bytes(widest), np.uint8)
        for (begin, end), (lengths, expected) in zip(spans, program):
            wrong |= end - begin != lengths[row]
            differ = _field_words(data, len(buffer), begin, end - begin,
                                  expected.shape[1]) != expected[row]
            if differ.any():
                wrong |= differ.any(axis=1)
        if wrong.any():
            position = int(np.argmax(wrong))
            line = int(lines[position])
            device_id = buffer[starts[line] + 7:bars[position, 0]].decode(
                "ascii")
            errors.append((line, self._deviates(device_id)))

    # ---------------------------------------------------------------- store
    def store(self):
        """The store of everything read, after the whole-file checks."""
        from repro.ate.store import DeviceResultStore
        from repro.circuits.faults import FaultMode

        if not self.program:
            raise DatalogError(f"datalog file {self.path} contains no records")
        tests, devices = len(self.program), len(self.device_ids)
        short = np.flatnonzero(np.array(self.cursor) != tests)
        if short.size:
            raise DatalogError(
                f"{self.path}: devices "
                f"{[self.device_ids[column] for column in short[:5]]} have "
                f"fewer records than the {tests}-test program of the first "
                "device")
        values = np.empty((tests, devices))
        passed = np.empty((tests, devices), dtype=bool)
        for rows, columns, cell_values, cell_passed in self.cells:
            values[rows, columns] = cell_values
            passed[rows, columns] = cell_passed
        modes = {mode.value for mode in FaultMode}
        faults: list[tuple[int, str, str]] = []
        for device_id, (labels, line_number) in self.labels.items():
            column = self.columns.get(device_id)
            if column is None or not labels:
                continue
            for label in labels.split(","):
                block, _, mode = label.partition(":")
                if not block or not mode:
                    raise self.fail(
                        line_number, f"malformed injected_faults label "
                        f"{label!r} for device {device_id!r}")
                if mode not in modes:
                    raise self.fail(
                        line_number, f"unknown fault mode {mode!r} in the "
                        f"injected_faults of device {device_id!r}")
                faults.append((column, block, mode))
        faults.sort(key=lambda fault: fault[0])
        return DeviceResultStore(
            self.device_ids, values, passed, self.numbers,
            [signature[1] for signature in self.program],
            [signature[2] for signature in self.program],
            self.lowers, self.uppers, self.conditions,
            [fault[0] for fault in faults], [fault[1] for fault in faults],
            [fault[2] for fault in faults], [1.0] * len(faults))


def read_columnar(path: str | Path):
    """Parse an ASCII datalog straight into a columnar store.

    Unlike :func:`parse_datalog`, which builds one :class:`DatalogRecord`
    per line, this reader learns the test program from the first device's
    records and then reads only the value and verdict of every later
    record into ``(tests, devices)`` planes.  It is the entry point for
    ATE-scale datalogs: one pass over the file's bytes, in fixed-size
    chunks of whole lines, so its memory stays bounded whatever the size
    of the lot.  Records in the writer's layout are read with array
    operations (their program fields compared with the first device's
    byte for byte, VALUE converted with one numpy cast); any other line is
    read on its own.

    Every device must have run the same program in the same order (the
    batched tester's output format); once the first device is complete,
    devices' records may interleave.  Any defect raises
    :class:`DatalogError` naming the line a line-by-line read would stop
    at: a non-ASCII byte, a malformed or missing field, a malformed
    program row of the first device, a record that deviates from the
    program (UNITS may differ) or a non-numeric VALUE.  A device with
    fewer records than the program and a file without records are found
    after the last line, and so is a malformed or unknown
    ``injected_faults`` label, reported at its comment line.
    """
    path = Path(path)
    if not path.exists():
        raise DatalogError(f"datalog file {path} does not exist")
    reader = _ColumnarReader(path)
    with path.open("rb") as handle:
        carry = b""
        while block := handle.read(_CHUNK_BYTES):
            buffer = carry + block
            # Cut after the last line end; a final CR may be half a CRLF.
            cut = max(buffer.rfind(b"\n"),
                      buffer.rfind(b"\r", 0, len(buffer) - 1)) + 1
            carry = buffer[cut:]
            if cut:
                reader.read_lines(buffer[:cut])
        if carry:
            reader.read_lines(carry)
    return reader.store()
