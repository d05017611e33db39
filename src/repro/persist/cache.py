"""Crash-safe shared posterior cache.

The diagnosis workflow is train-once / query-many: one fitted block-level
network answers posterior queries for whole device populations, so every
repeated row of evidence is redundant work — and before this module that
work was redone per worker process and re-done again after every restart.
:class:`PosteriorCache` makes the warm state durable and shared:

* **Append-only segments.**  Entries live in ``seg-<n>.log`` files as
  length-prefixed, CRC32-checksummed records (``magic | length | crc |
  payload``).  Appends never rewrite committed bytes, so a crash can only
  ever damage the *tail* of the active segment.
* **Recovery scan.**  Opening the cache walks every segment record by
  record: a torn tail (the crash-during-append shape) is truncated back to
  the last committed record; a mid-file integrity failure is *quarantined*
  — counted, recorded as a structured
  :class:`~repro.exceptions.CacheCorruptionError`, and skipped — so a
  flipped bit degrades to a cache miss, never a garbage posterior.
* **Atomic commits.**  Multi-file state transitions (segment compaction,
  the generation stamp) go through tmp-file + ``os.rename``, so readers
  only ever observe complete files.
* **Multi-process safety.**  Writers serialise through an ``flock`` on a
  sidecar lock file; before appending, a writer re-validates the active
  segment's tail under the exclusive lock (repairing any torn tail a
  crashed sibling left behind), so the append offset is always a record
  boundary.  Readers take the shared lock only while scanning.
* **LRU compaction.**  When the cache exceeds ``max_bytes``, the most
  recently used entries are rewritten into a fresh segment (tmp + rename)
  and the old segments are deleted; a generation stamp tells other
  processes their offsets are stale so they rescan instead of misreading.

Keys are ``(kind, model_fingerprint, ...)`` tuples built by the typed
wrappers (:meth:`PosteriorCache.put_posteriors`); a posterior's evidence
is its codec row key, the key of the engines' in-memory caches.  Because
the model component is a content fingerprint
(:func:`~repro.persist.fingerprint.model_fingerprint`), CPD replacement
re-keys the cache automatically: entries of a superseded model become
unreachable rather than wrong.
"""

from __future__ import annotations

import io
import os
import pickle
import struct
import threading
import zlib
from collections import OrderedDict
from collections.abc import Mapping
from contextlib import contextmanager
from pathlib import Path

from repro.exceptions import CacheCorruptionError, PersistError

try:  # pragma: no cover - fcntl is always present on the supported platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback (single-process)
    fcntl = None

#: Per-record magic: 4 bytes at every record boundary.
RECORD_MAGIC = b"RPC1"

#: Record header: magic + uint32 payload length + uint32 payload CRC32.
_HEADER = struct.Struct("<4sII")

_SEGMENT_PREFIX = "seg-"
_SEGMENT_SUFFIX = ".log"
_GENERATION_FILE = "GENERATION"
_LOCK_FILE = "LOCK"

#: How many structured corruption records a cache instance retains.
_MAX_CORRUPTION_RECORDS = 256


def atomic_write_bytes(path: Path, data: bytes, *, sync: bool = False) -> None:
    """Write ``data`` to ``path`` atomically (tmp file + ``os.rename``)."""
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        if sync:
            os.fsync(handle.fileno())
    os.replace(tmp, path)


class _Entry:
    """Index record: where one committed cache entry lives on disk."""

    __slots__ = ("segment", "offset", "length", "crc")

    def __init__(self, segment: int, offset: int, length: int,
                 crc: int) -> None:
        self.segment = segment
        self.offset = offset
        self.length = length
        self.crc = crc

    @property
    def record_bytes(self) -> int:
        return _HEADER.size + self.length


class PosteriorCache:
    """Durable, corruption-proof, multi-process posterior cache.

    Parameters
    ----------
    path:
        Cache directory (created if missing).  Safe to share across any
        number of processes on one host.
    max_bytes:
        Total on-disk budget; exceeding it triggers LRU segment compaction
        down to roughly half the budget.
    segment_bytes:
        Active-segment rotation threshold (bounds the blast radius of a
        torn tail and the cost of a tail re-scan).
    sync:
        When true, every append and every atomic commit is ``fsync``ed —
        survives power loss, not just process death.  Defaults to false:
        records survive ``kill -9`` (the page cache persists) at memory
        speed.

    Counters (``hits`` / ``misses`` / ``puts`` / ``quarantined`` /
    ``recovered_entries`` / ``torn_tail_bytes`` / ``compactions`` /
    ``evicted``) make every integrity decision observable;
    ``corruption_records`` keeps the structured
    :class:`~repro.exceptions.CacheCorruptionError` taxonomy of everything
    that was quarantined.
    """

    def __init__(self, path: str | Path, *,
                 max_bytes: int = 256 * 1024 * 1024,
                 segment_bytes: int = 16 * 1024 * 1024,
                 sync: bool = False) -> None:
        if max_bytes < 1 or segment_bytes < 1:
            raise PersistError(
                f"cache byte budgets must be >= 1, got max_bytes={max_bytes} "
                f"segment_bytes={segment_bytes}")
        self.path = Path(path)
        if self.path.exists() and not self.path.is_dir():
            raise PersistError(
                f"cache path {self.path} exists and is not a directory")
        self.path.mkdir(parents=True, exist_ok=True)
        self.max_bytes = int(max_bytes)
        self.segment_bytes = int(segment_bytes)
        self.sync = bool(sync)

        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.quarantined = 0
        self.recovered_entries = 0
        self.torn_tail_bytes = 0
        self.compactions = 0
        self.evicted = 0
        self.corruption_records: list[CacheCorruptionError] = []

        self._mutex = threading.RLock()
        self._index: OrderedDict[tuple, _Entry] = OrderedDict()
        self._scanned: dict[int, int] = {}  # segment -> valid-data end
        self._sizes: dict[int, int] = {}  # segment -> last seen file size
        self._generation = -1
        self._total_bytes = 0
        self._closed = False

        self._lock_handle = open(self.path / _LOCK_FILE, "a+b")
        with self._locked(exclusive=True):
            self._reload(recover=True)

    # ----------------------------------------------------------------- files
    def _segment_path(self, index: int) -> Path:
        return self.path / f"{_SEGMENT_PREFIX}{index:08d}{_SEGMENT_SUFFIX}"

    def _segment_indices(self) -> list[int]:
        indices = []
        for entry in self.path.iterdir():
            name = entry.name
            if name.startswith(_SEGMENT_PREFIX) \
                    and name.endswith(_SEGMENT_SUFFIX):
                middle = name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
                if middle.isdigit():
                    indices.append(int(middle))
        return sorted(indices)

    def _read_generation(self) -> int:
        try:
            return int((self.path / _GENERATION_FILE).read_text() or 0)
        except FileNotFoundError:
            return 0
        except ValueError:
            return 0

    def _bump_generation(self) -> None:
        self._generation = self._read_generation() + 1
        atomic_write_bytes(self.path / _GENERATION_FILE,
                           str(self._generation).encode(), sync=self.sync)

    @contextmanager
    def _locked(self, *, exclusive: bool):
        """Hold the cross-process file lock (and the in-process mutex)."""
        with self._mutex:
            if self._closed:
                raise PersistError(f"cache at {self.path} is closed")
            if fcntl is not None:
                fcntl.flock(self._lock_handle,
                            fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
            try:
                yield
            finally:
                if fcntl is not None:
                    fcntl.flock(self._lock_handle, fcntl.LOCK_UN)

    # -------------------------------------------------------------- scanning
    def _note_corruption(self, kind: str, path: Path, offset: int,
                         detail: str) -> None:
        self.quarantined += 1
        if len(self.corruption_records) < _MAX_CORRUPTION_RECORDS:
            self.corruption_records.append(CacheCorruptionError(
                f"{kind} at {path.name}:{offset}: {detail}",
                kind=kind, path=str(path), offset=offset))

    def _scan_segment(self, index: int, start: int, *,
                      recover: bool) -> None:
        """Parse records of segment ``index`` from offset ``start``.

        Commits every intact record to the index.  A torn tail is truncated
        when ``recover`` is true (caller holds the exclusive lock),
        otherwise left for the next writer to repair.  Mid-file corruption
        that defeats re-synchronisation quarantines the remainder of the
        segment (and truncates it under ``recover``, since unparseable
        bytes can never be served anyway).
        """
        path = self._segment_path(index)
        try:
            size = path.stat().st_size
            handle = open(path, "rb")
        except FileNotFoundError:
            self._scanned.pop(index, None)
            self._sizes.pop(index, None)
            return
        valid_end = start
        with handle:
            handle.seek(start)
            while True:
                offset = handle.tell()
                header = handle.read(_HEADER.size)
                if not header:
                    valid_end = offset
                    break
                if len(header) < _HEADER.size:
                    # Fewer bytes than a header: a torn append.
                    self.torn_tail_bytes += size - offset
                    valid_end = offset
                    if not recover:
                        return self._halt_scan(index, offset, size)
                    break
                magic, length, crc = _HEADER.unpack(header)
                if magic != RECORD_MAGIC:
                    self._note_corruption(
                        "bad-magic", path, offset,
                        "record boundary lost; remainder of segment "
                        "quarantined")
                    valid_end = offset
                    break
                if offset + _HEADER.size + length > size:
                    # The record extends past EOF.  At the tail this is the
                    # normal crash-during-append shape; a later write would
                    # have re-synchronised, so treat anything else as a
                    # corrupt length.
                    tail = size - offset
                    if length <= self.segment_bytes * 4:
                        self.torn_tail_bytes += tail
                    else:
                        self._note_corruption(
                            "bad-length", path, offset,
                            f"record length {length} exceeds segment")
                    valid_end = offset
                    if not recover:
                        return self._halt_scan(index, offset, size)
                    break
                payload = handle.read(length)
                if zlib.crc32(payload) != crc:
                    self._note_corruption(
                        "bad-crc", path, offset,
                        "payload does not match its stored CRC32")
                    valid_end = handle.tell()
                    continue
                try:
                    key, _ = pickle.loads(payload)
                    key = tuple(key)
                except Exception as error:  # noqa: BLE001 - quarantined
                    self._note_corruption(
                        "bad-payload", path, offset,
                        f"payload does not decode: {error}")
                    valid_end = handle.tell()
                    continue
                previous = self._index.pop(key, None)
                if previous is not None:
                    self._total_bytes_live -= previous.record_bytes
                self._index[key] = _Entry(index, offset, length, crc)
                self._total_bytes_live += _HEADER.size + length
                self.recovered_entries += 1
                valid_end = handle.tell()
        if recover and valid_end < size:
            with open(path, "r+b") as repair:
                repair.truncate(valid_end)
                if self.sync:
                    repair.flush()
                    os.fsync(repair.fileno())
            size = valid_end
        self._scanned[index] = valid_end
        self._sizes[index] = size

    def _halt_scan(self, index: int, offset: int, size: int) -> None:
        """Reader-mode scan halt: remember where we stopped and why."""
        self._scanned[index] = offset
        self._sizes[index] = size

    def _reload(self, *, recover: bool) -> None:
        """Drop the index and rescan every segment from offset zero."""
        self._index.clear()
        self._scanned.clear()
        self._sizes.clear()
        self._total_bytes_live = 0
        self._generation = self._read_generation()
        for index in self._segment_indices():
            self._scan_segment(index, 0, recover=recover)

    def _refresh_locked(self, *, recover: bool) -> None:
        """Pick up changes other processes committed since our last look."""
        if self._read_generation() != self._generation:
            self._reload(recover=recover)
            return
        for index in self._segment_indices():
            scanned = self._scanned.get(index, 0)
            try:
                size = self._segment_path(index).stat().st_size
            except FileNotFoundError:
                continue
            if size < scanned:
                # Another process truncated a torn tail behind us.
                self._reload(recover=recover)
                return
            if size > self._sizes.get(index, 0):
                self._scan_segment(index, scanned, recover=recover)

    def refresh(self) -> None:
        """Re-scan for entries committed by other processes (shared lock)."""
        with self._locked(exclusive=False):
            self._refresh_locked(recover=False)

    # --------------------------------------------------------------- reading
    @property
    def _total_bytes_live(self) -> int:
        return self._total_bytes

    @_total_bytes_live.setter
    def _total_bytes_live(self, value: int) -> None:
        self._total_bytes = value

    def __len__(self) -> int:
        return len(self._index)

    @property
    def total_bytes(self) -> int:
        """Bytes of live (reachable) records currently indexed."""
        return self._total_bytes

    def keys(self) -> list[tuple]:
        return list(self._index.keys())

    def get(self, key: tuple) -> object | None:
        """Return the stored value for ``key``, or ``None`` on a miss.

        Every read re-verifies the record's CRC32 before the payload is
        decoded — a corrupt entry is quarantined (and counted) instead of
        being served, so the caller sees a miss, never garbage.
        """
        key = tuple(key)
        with self._mutex:
            entry = self._index.get(key)
            if entry is None:
                self.refresh()
                entry = self._index.get(key)
            if entry is None:
                self.misses += 1
                return None
            value = self._read_entry(key, entry, allow_retry=True)
            if value is None:
                self.misses += 1
                return None
            self._index.move_to_end(key)
            self.hits += 1
            return value[1]

    def _read_entry(self, key: tuple, entry: _Entry, *,
                    allow_retry: bool) -> tuple | None:
        path = self._segment_path(entry.segment)
        try:
            with open(path, "rb") as handle:
                handle.seek(entry.offset)
                blob = handle.read(_HEADER.size + entry.length)
        except FileNotFoundError:
            blob = b""
        stale = len(blob) < _HEADER.size + entry.length
        magic = length = crc = None
        if not stale:
            magic, length, crc = _HEADER.unpack_from(blob)
            stale = magic != RECORD_MAGIC or length != entry.length \
                or crc != entry.crc
        if stale:
            # The segment moved under us (another process compacted) — or
            # the bytes really did rot.  A refresh distinguishes the two:
            # after a rescan the index either has a fresh location for the
            # key or the entry is gone.
            if allow_retry:
                with self._locked(exclusive=False):
                    self._reload(recover=False)
                fresh = self._index.get(key)
                if fresh is not None:
                    return self._read_entry(key, fresh, allow_retry=False)
                return None
            self._drop_entry(key, entry)
            self._note_corruption(
                "bad-crc", path, entry.offset,
                "record no longer matches its indexed location")
            return None
        payload = blob[_HEADER.size:]
        if zlib.crc32(payload) != entry.crc:
            self._drop_entry(key, entry)
            self._note_corruption(
                "bad-crc", path, entry.offset,
                "payload does not match its stored CRC32")
            return None
        try:
            stored_key, value = pickle.loads(payload)
        except Exception as error:  # noqa: BLE001 - quarantined below
            self._drop_entry(key, entry)
            self._note_corruption(
                "bad-payload", path, entry.offset,
                f"payload does not decode: {error}")
            return None
        if tuple(stored_key) != key:
            self._drop_entry(key, entry)
            self._note_corruption(
                "bad-payload", path, entry.offset,
                f"record key {stored_key!r} does not match index key {key!r}")
            return None
        return stored_key, value

    def _drop_entry(self, key: tuple, entry: _Entry) -> None:
        if self._index.get(key) is entry:
            del self._index[key]
            self._total_bytes_live -= entry.record_bytes

    # --------------------------------------------------------------- writing
    def put(self, key: tuple, value: object) -> None:
        """Durably commit ``value`` under ``key`` (last writer wins)."""
        key = tuple(key)
        payload = pickle.dumps((key, value),
                               protocol=pickle.HIGHEST_PROTOCOL)
        record = _HEADER.pack(RECORD_MAGIC, len(payload),
                              zlib.crc32(payload)) + payload
        with self._locked(exclusive=True):
            self._refresh_locked(recover=True)
            indices = self._segment_indices()
            active = indices[-1] if indices else 0
            offset = self._scanned.get(active, 0)
            if offset + len(record) > self.segment_bytes and offset > 0:
                active += 1
                offset = 0
            path = self._segment_path(active)
            with open(path, "ab") as handle:
                if handle.tell() != offset:
                    # Defensive: the tail was repaired above, so the file
                    # must end exactly at the last committed record.
                    handle.truncate(offset)
                    handle.seek(offset)
                handle.write(record)
                handle.flush()
                if self.sync:
                    os.fsync(handle.fileno())
            previous = self._index.pop(key, None)
            if previous is not None:
                self._total_bytes_live -= previous.record_bytes
            self._index[key] = _Entry(active, offset, len(payload),
                                      zlib.crc32(payload))
            self._total_bytes_live += len(record)
            self._scanned[active] = offset + len(record)
            self._sizes[active] = offset + len(record)
            self.puts += 1
            if self._on_disk_bytes() > self.max_bytes:
                self._compact_locked()

    def _on_disk_bytes(self) -> int:
        total = 0
        for index in self._segment_indices():
            try:
                total += self._segment_path(index).stat().st_size
            except FileNotFoundError:
                pass
        return total

    def compact(self) -> int:
        """LRU-compact the cache now; returns the number of evicted entries."""
        with self._locked(exclusive=True):
            self._refresh_locked(recover=True)
            return self._compact_locked()

    def _compact_locked(self) -> int:
        """Rewrite the most recently used entries into one fresh segment.

        Keeps entries newest-LRU-first until ~half of ``max_bytes`` is
        used, writes them (in LRU order, oldest first, so scan order keeps
        approximating recency) to a tmp file, renames it into place, then
        deletes the superseded segments and bumps the generation stamp so
        other processes drop their now-stale offsets.
        """
        budget = max(self.max_bytes // 2, 1)
        kept: list[tuple[tuple, bytes]] = []
        used = 0
        evicted = 0
        for key in reversed(list(self._index.keys())):
            entry = self._index[key]
            if used + entry.record_bytes > budget and kept:
                evicted += 1
                continue
            value = self._read_entry(key, entry, allow_retry=False)
            if value is None:
                evicted += 1
                continue
            raw = pickle.dumps((key, value[1]),
                               protocol=pickle.HIGHEST_PROTOCOL)
            kept.append((key, raw))
            used += _HEADER.size + len(raw)
        kept.reverse()

        old_indices = self._segment_indices()
        new_index = (old_indices[-1] + 1) if old_indices else 0
        buffer = io.BytesIO()
        entries: list[tuple[tuple, _Entry]] = []
        for key, raw in kept:
            offset = buffer.tell()
            crc = zlib.crc32(raw)
            buffer.write(_HEADER.pack(RECORD_MAGIC, len(raw), crc))
            buffer.write(raw)
            entries.append((key, _Entry(new_index, offset, len(raw), crc)))
        new_path = self._segment_path(new_index)
        atomic_write_bytes(new_path, buffer.getvalue(), sync=self.sync)
        for index in old_indices:
            if index != new_index:
                try:
                    os.unlink(self._segment_path(index))
                except FileNotFoundError:
                    pass
        self._index = OrderedDict(entries)
        self._scanned = {new_index: buffer.tell()}
        self._sizes = {new_index: buffer.tell()}
        self._total_bytes_live = buffer.tell()
        self._bump_generation()
        self.compactions += 1
        self.evicted += evicted
        return evicted

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        with self._mutex:
            if not self._closed:
                self._closed = True
                self._lock_handle.close()

    def __enter__(self) -> "PosteriorCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> dict:
        """Return a JSON-safe counter snapshot."""
        with self._mutex:
            return {"entries": len(self._index),
                    "total_bytes": self._total_bytes,
                    "hits": self.hits, "misses": self.misses,
                    "puts": self.puts, "quarantined": self.quarantined,
                    "recovered_entries": self.recovered_entries,
                    "torn_tail_bytes": self.torn_tail_bytes,
                    "compactions": self.compactions,
                    "evicted": self.evicted}

    # --------------------------------------------------------- typed wrappers
    def get_posteriors(self, model_version: str, row_key: tuple
                       ) -> dict[str, dict[str, float]] | None:
        """Look up the posterior set of one ``(model, evidence row)`` pair.

        ``row_key`` is the evidence's row key as the model's
        :class:`~repro.bayesnet.codec.EvidenceCodec` reads it.
        """
        value = self.get(("posterior", model_version, row_key))
        if value is None or not isinstance(value, dict):
            return None
        return value

    def put_posteriors(self, model_version: str, row_key: tuple,
                       posteriors: Mapping[str, Mapping[str, float]]) -> None:
        """Durably commit one posterior set (floats round-trip bit-exact)."""
        self.put(("posterior", model_version, row_key),
                 {variable: {state: float(p)
                             for state, p in distribution.items()}
                  for variable, distribution in posteriors.items()})
