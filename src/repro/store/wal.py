"""Write-ahead log backends: segmented on disk, and in memory.

A WAL is an ordered sequence of byte records, each framed on disk as
``length(4) | crc32(4) | payload``. Two implementations share one
interface (``append``/``append_many``/``sync``/``records_from``/
``truncate_through``/``reset``/``close``):

* :class:`SegmentedWAL` — a directory of segment files plus a durable
  ``MANIFEST``. The log rotates to a fresh segment at a size/record
  threshold (crash-safe via the same tmp+rename+dir-fsync discipline as
  :class:`~repro.store.snapshot.FileSnapshot`), and checkpoints truncate
  every segment wholly covered by a snapshot so both disk footprint and
  replay cost stay bounded in run length. On open, a torn tail in the
  newest segment (truncated header or payload, or a bad checksum on the
  final record) is cut off; a checksum mismatch in a sealed segment
  raises :class:`~repro.errors.CorruptLogError`. Each live segment is
  read and scanned once per open; the replay is served from that scan.
* :class:`MemoryWAL` — in-process list with the same durability semantics,
  including crash simulation: records appended after the last ``sync()``
  are lost by :meth:`MemoryWAL.simulate_crash`, exactly like an OS losing
  unflushed page-cache writes. It implements the full segment API
  (positions, suffix reads, truncation) so chaos campaigns exercise the
  same checkpoint lifecycle without touching disk.

Records have *global positions*: the position of a record never changes
when earlier segments are truncated, so a snapshot taken at position ``P``
always pairs with the suffix ``records_from(P)`` regardless of how much
log was compacted since. The engine appends every state transition through
a WAL *before* acting on it; this is the mechanism behind the paper's
claim that computations resume after failures without losing completed
work — and segment truncation is what keeps that resume *fast* after a
month of appends.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Dict, Iterator, List

from ..errors import CorruptLogError
from . import codec
from ..faults.points import InjectedCrash, fire

_HEADER = struct.Struct("<II")  # (payload length, crc32)

#: manifest filename inside a :class:`SegmentedWAL` directory.
MANIFEST_NAME = "MANIFEST"

#: rotation thresholds: a segment is sealed once it holds this many
#: records or this many bytes, whichever comes first.
DEFAULT_SEGMENT_RECORDS = 256
DEFAULT_SEGMENT_BYTES = 1 << 20


def _scan(data: bytes):
    """Scan a segment byte buffer into ``(records, valid_end, corrupt)``.

    ``records`` is the list of valid payloads, ``valid_end`` the byte
    offset where the valid prefix ends, and ``corrupt`` is True when an
    invalid record is followed by further bytes — real mid-file corruption
    rather than a torn tail from a crashed write.
    """
    records: List[bytes] = []
    offset = 0
    total = len(data)
    while offset < total:
        if offset + _HEADER.size > total:
            return records, offset, False  # torn header
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        end = start + length
        if end > total:
            return records, offset, False  # torn payload
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            return records, offset, end < total
        records.append(payload)
        offset = end
    return records, offset, False


def _fsync_dir(directory: str) -> None:
    """fsync a directory so renames/creates/unlinks inside it are durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class SegmentedWAL:
    """A rotating, truncatable write-ahead log over a segment directory.

    Layout::

        <directory>/
            MANIFEST          # codec JSON: segment list + next serial
            seg-00000001.wal  # length | crc32 | payload records
            seg-00000002.wal
            ...

    The manifest is the source of truth: segment files not listed in it are
    leftovers from a crash mid-rotation or mid-truncation and are removed
    on open. The manifest itself is replaced atomically (tmp + fsync +
    ``os.replace`` + directory fsync), so every crash window leaves either
    the old or the new manifest — never a mix.

    Each manifest entry records the segment's ``base`` (the global position
    of its first record) and, once sealed, its record ``count``. The last
    live entry is the *active* segment (``count`` is null on disk). With
    ``retain_truncated=True`` truncated segments are retired — kept on disk
    and in the manifest under ``retired`` — so audits can still replay the
    full log from position zero and compare against bounded recovery.

    Failure semantics on open: corruption in a *sealed* live segment raises
    :class:`~repro.errors.CorruptLogError` (a hole mid-history cannot be
    repaired without losing later records), while the *newest* segment is
    repaired tolerantly — a torn tail is truncated, mid-file corruption is
    truncated with a note in :attr:`repairs`, and a missing file is
    recreated empty. Callers fall back to the records still covered by the
    latest checkpoint, which is exactly the contract bounded recovery
    needs.
    """

    def __init__(self, directory: str, *,
                 max_segment_records: int = DEFAULT_SEGMENT_RECORDS,
                 max_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 retain_truncated: bool = False):
        self.directory = directory
        self.max_segment_records = max(1, int(max_segment_records))
        self.max_segment_bytes = max(1, int(max_segment_bytes))
        self.retain_truncated = retain_truncated
        #: human-readable notes about damage repaired on open.
        self.repairs: List[str] = []
        os.makedirs(directory, exist_ok=True)
        self._manifest_path = os.path.join(directory, MANIFEST_NAME)
        self._entries: List[Dict] = []   # live segments, active last
        self._retired: List[Dict] = []   # truncated-but-retained segments
        self._next_serial = 1
        self._active_records = 0
        self._active_bytes = 0
        self._file = None
        #: payloads of the scan made at open, by segment file: the first
        #: :meth:`records_from` serves them and drops them.
        self._opened: Dict[str, List[bytes]] = {}
        self._load_manifest()
        self._open_segments()
        self._cleanup_orphans()
        self._file = open(self._segment_path(self._entries[-1]), "ab")

    # -- manifest / open ------------------------------------------------------

    def _segment_path(self, entry: Dict) -> str:
        return os.path.join(self.directory, entry["file"])

    def _new_entry(self, base: int) -> Dict:
        entry = {
            "file": f"seg-{self._next_serial:08d}.wal",
            "base": int(base),
            "count": None,
        }
        self._next_serial += 1
        return entry

    def _write_manifest(self) -> None:
        payload = codec.encode({
            "format": 1,
            "next_serial": self._next_serial,
            "segments": (
                [dict(e, retired=True) for e in self._retired]
                + self._entries
            ),
        })
        tmp = self._manifest_path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._manifest_path)
        _fsync_dir(self.directory)

    def _load_manifest(self) -> None:
        if not os.path.exists(self._manifest_path):
            # Fresh init. A crash during a previous one (segment created,
            # manifest never written) left the same empty first segment.
            first = self._new_entry(0)
            with open(self._segment_path(first), "ab"):
                pass
            self._entries = [first]
            _fsync_dir(self.directory)
            self._write_manifest()
            return
        with open(self._manifest_path, "rb") as fh:
            raw = fh.read()
        try:
            manifest = codec.decode(raw)
        except Exception as exc:
            raise CorruptLogError(
                f"{self._manifest_path}: undecodable manifest ({exc})"
            )
        if not isinstance(manifest, dict) or manifest.get("format") != 1:
            raise CorruptLogError(
                f"{self._manifest_path}: unknown manifest format"
            )
        self._next_serial = int(manifest.get("next_serial", 1))
        for entry in manifest.get("segments", ()):
            record = {
                "file": entry["file"],
                "base": int(entry["base"]),
                "count": None if entry.get("count") is None
                else int(entry["count"]),
            }
            if entry.get("retired"):
                self._retired.append(record)
            else:
                self._entries.append(record)
        if not self._entries:
            raise CorruptLogError(
                f"{self._manifest_path}: no live segment listed"
            )
        expected = self._entries[0]["base"]
        for entry in self._entries[:-1]:
            if entry["base"] != expected or entry["count"] is None:
                raise CorruptLogError(
                    f"{self._manifest_path}: non-contiguous segment chain"
                )
            expected += entry["count"]
        if self._entries[-1]["base"] != expected:
            raise CorruptLogError(
                f"{self._manifest_path}: active segment base mismatch"
            )

    def _open_segments(self) -> None:
        """Read and CRC-scan each live segment once: validate the sealed
        ones, repair the active one, keep the payloads for the replay."""
        for entry in self._entries[:-1]:
            path = self._segment_path(entry)
            if not os.path.exists(path):
                raise CorruptLogError(f"{path}: sealed segment missing")
            with open(path, "rb") as fh:
                data = fh.read()
            records, valid_end, corrupt = _scan(data)
            if corrupt or valid_end != len(data) \
                    or len(records) != entry["count"]:
                raise CorruptLogError(
                    f"{path}: sealed segment damaged "
                    f"({len(records)} valid of {entry['count']} records)"
                )
            self._opened[entry["file"]] = records
        active = self._entries[-1]
        path = self._segment_path(active)
        if not os.path.exists(path):
            self.repairs.append(
                f"{active['file']}: newest segment missing; recreated empty"
            )
            with open(path, "wb"):
                pass
            _fsync_dir(self.directory)
            self._active_records = 0
            self._active_bytes = 0
            return
        with open(path, "rb") as fh:
            data = fh.read()
        records, valid_end, corrupt = _scan(data)
        if corrupt:
            self.repairs.append(
                f"{active['file']}: corruption at offset {valid_end}; "
                f"truncated to {len(records)} records"
            )
        if valid_end != len(data):
            with open(path, "r+b") as fh:
                fh.truncate(valid_end)
        self._opened[active["file"]] = records
        self._active_records = len(records)
        self._active_bytes = valid_end

    def _cleanup_orphans(self) -> None:
        """Remove crash leftovers: unmanifested segments and tmp files.

        Only files matching the names this WAL itself creates
        (``seg-*.wal`` and ``*.tmp``) are touched — anything else in the
        directory (an operator's backup copy, a tool's scratch file) is
        left alone. Removals are recorded in :attr:`repairs`.
        """
        known = {e["file"] for e in self._entries}
        known.update(e["file"] for e in self._retired)
        for name in os.listdir(self.directory):
            if name == MANIFEST_NAME or name in known:
                continue
            ours = (name.startswith("seg-") and name.endswith(".wal")) \
                or name.endswith(".tmp")
            if not ours:
                continue
            os.unlink(os.path.join(self.directory, name))
            self.repairs.append(
                f"{name}: removed orphan file left by a crash"
            )

    # -- positions ------------------------------------------------------------

    def position(self) -> int:
        """Global position one past the last appended record."""
        active = self._entries[-1]
        return active["base"] + self._active_records

    def base_position(self) -> int:
        """Global position of the oldest live (non-truncated) record."""
        return self._entries[0]["base"]

    def segment_count(self) -> int:
        """Number of live segments (sealed plus the active one)."""
        return len(self._entries)

    def history_complete(self) -> bool:
        """True when :meth:`full_records` can replay from position zero."""
        if self.base_position() == 0:
            return True
        return bool(self._retired) and self._retired[0]["base"] == 0 and all(
            self._retired[i]["base"] + self._retired[i]["count"]
            == (self._retired[i + 1]["base"] if i + 1 < len(self._retired)
                else self.base_position())
            for i in range(len(self._retired))
        )

    # -- appends / rotation ---------------------------------------------------

    def append(self, payload: bytes) -> None:
        """Append one record, rotating to a fresh segment at the threshold."""
        self._write_frames((payload,))

    def append_many(self, payloads: List[bytes]) -> None:
        """Append a batch of records, one combined write per segment."""
        self._write_frames(payloads)

    def _write_frames(self, payloads) -> None:
        """Frame and write ``payloads``: the one writer of segment bytes.

        Frames are buffered and handed to the OS in a single ``write()``
        per segment; a rotation threshold crossed mid-slice flushes the
        buffered frames into the sealing segment first, so the on-disk
        layout does not depend on how the records were sliced.
        """
        frames: List[bytes] = []
        for payload in payloads:
            record = (_HEADER.pack(len(payload), zlib.crc32(payload))
                      + payload)
            try:
                fire("wal.append", nbytes=len(payload))
            except InjectedCrash as crash:
                if crash.torn_fraction is not None:
                    cut = max(1, int(len(record) * crash.torn_fraction))
                    self._file.write(b"".join(frames) + record[:cut])
                    self._file.flush()
                raise
            frames.append(record)
            self._active_records += 1
            self._active_bytes += len(record)
            if (self._active_records >= self.max_segment_records
                    or self._active_bytes >= self.max_segment_bytes):
                self._file.write(b"".join(frames))
                frames.clear()
                self._rotate()
        if frames:
            self._file.write(b"".join(frames))

    def _rotate(self) -> None:
        """Seal the active segment and start a new one (crash-safe).

        Order matters: the sealed data is fsynced before the manifest names
        it sealed, the new segment file exists before the manifest points
        at it, and the manifest replace is atomic — so a crash at any point
        leaves either the old manifest (new file is an orphan, removed on
        open) or the new one (fully consistent).
        """
        active = self._entries[-1]
        fire("store.rotate", segment=active["file"],
             records=self._active_records)
        self._file.flush()
        os.fsync(self._file.fileno())
        active["count"] = self._active_records
        new_entry = self._new_entry(active["base"] + self._active_records)
        with open(self._segment_path(new_entry), "wb"):
            pass
        _fsync_dir(self.directory)
        self._entries.append(new_entry)
        self._write_manifest()
        self._file.close()
        self._file = open(self._segment_path(new_entry), "ab")
        self._active_records = 0
        self._active_bytes = 0

    def sync(self) -> None:
        """Flush and fsync the active segment."""
        self._file.flush()
        os.fsync(self._file.fileno())

    # -- reads ----------------------------------------------------------------

    def _segment_records(self, entry: Dict, sealed: bool) -> List[bytes]:
        path = self._segment_path(entry)
        with open(path, "rb") as fh:
            data = fh.read()
        records, _, _ = _scan(data)
        if sealed and len(records) != entry["count"]:
            raise CorruptLogError(
                f"{path}: sealed segment lost records at read time "
                f"({len(records)} valid of {entry['count']})"
            )
        return records

    def records(self) -> Iterator[bytes]:
        """Iterate all live records (oldest surviving segment onward)."""
        return self.records_from(self.base_position())

    def records_from(self, position: int) -> Iterator[bytes]:
        """Iterate records at global positions ``>= position``.

        This is the bounded-recovery read path: a snapshot taken at
        position ``P`` pairs with ``records_from(P)`` to reconstruct the
        present state without touching truncated history. The first call
        serves what the open scanned; later calls read the disk.
        """
        if self._file is not None:
            self._file.flush()
        opened, self._opened = self._opened, {}
        for index, entry in enumerate(self._entries):
            sealed = index < len(self._entries) - 1
            count = entry["count"] if sealed else self._active_records
            seg_end = entry["base"] + count
            if seg_end <= position:
                continue
            records = opened.pop(entry["file"], None)
            if records is None or len(records) != count:
                records = self._segment_records(entry, sealed)
            skip = max(0, position - entry["base"])
            for payload in records[skip:]:
                yield payload

    def full_records(self) -> Iterator[bytes]:
        """Iterate every record from global position zero.

        Requires retained history (``retain_truncated=True`` or no
        truncation yet); raises :class:`~repro.errors.CorruptLogError` if
        the retained chain has holes. Used by audits to check that
        snapshot+suffix recovery matches a full-log replay byte for byte.
        """
        if not self.history_complete():
            raise CorruptLogError(
                f"{self.directory}: truncated history not retained"
            )
        for entry in self._retired:
            path = self._segment_path(entry)
            if not os.path.exists(path):
                raise CorruptLogError(f"{path}: retired segment missing")
            records = self._segment_records(entry, sealed=True)
            for payload in records:
                yield payload
        for payload in self.records():
            yield payload

    # -- truncation / reset ---------------------------------------------------

    def truncate_through(self, position: int) -> int:
        """Drop (or retire) every segment wholly covered by ``position``.

        Called after a checkpoint made records below ``position``
        redundant. The active segment is first rotated if the position
        covers it, so a checkpoint taken at the log head compacts the live
        log to zero records. Returns the number of segments removed from
        the live set.

        Crash windows: the manifest is rewritten *before* covered files
        are unlinked, so a crash in between leaves orphan files that the
        next open removes — the manifest never references missing data.
        """
        if position >= self.position() and self._active_records:
            self._rotate()
        covered = [
            entry for entry in self._entries[:-1]
            if entry["base"] + entry["count"] <= position
        ]
        if not covered:
            return 0
        self._entries = [e for e in self._entries if e not in covered]
        if self.retain_truncated:
            self._retired.extend(covered)
        self._write_manifest()
        fire("store.checkpoint.truncate", segments=len(covered),
             position=position)
        if not self.retain_truncated:
            for entry in covered:
                try:
                    os.unlink(self._segment_path(entry))
                except FileNotFoundError:
                    pass
            _fsync_dir(self.directory)
        return len(covered)

    def reset(self) -> None:
        """Discard all records — live and retained — keeping positions.

        Global positions stay monotonic across a reset so any snapshot
        taken before it remains ordered against later checkpoints.
        """
        base = self.position()
        self._file.close()
        old = list(self._entries) + list(self._retired)
        self._entries = [self._new_entry(base)]
        self._retired = []
        with open(self._segment_path(self._entries[0]), "wb"):
            pass
        _fsync_dir(self.directory)
        self._write_manifest()
        for entry in old:
            try:
                os.unlink(self._segment_path(entry))
            except FileNotFoundError:
                pass
        _fsync_dir(self.directory)
        self._file = open(self._segment_path(self._entries[0]), "ab")
        self._active_records = 0
        self._active_bytes = 0

    def close(self) -> None:
        """Close the active segment's file handle."""
        if self._file is not None:
            self._file.close()
            self._file = None

    def __len__(self) -> int:
        return self.position() - self.base_position()


class MemoryWAL:
    """In-memory log with sync/crash semantics for simulation and tests.

    Implements the same segment API as :class:`SegmentedWAL` (global
    positions, ``records_from``, ``truncate_through``, retained history,
    rotation fault points) over plain lists, so the full checkpoint
    lifecycle — including the chaos campaigns' crash points — runs
    in-memory at simulation speed.
    """

    def __init__(self, records: List[bytes] | None = None, *,
                 base: int = 0,
                 max_segment_records: int | None = None,
                 retain_truncated: bool = False,
                 truncated: List[bytes] | None = None):
        self._records: List[bytes] = list(records or [])
        self._synced = len(self._records)
        self._base = base
        self._truncated: List[bytes] = list(truncated or [])
        self.max_segment_records = max_segment_records
        self.retain_truncated = retain_truncated
        self._seg_records = 0
        #: parity with :class:`SegmentedWAL`; memory logs never need repair.
        self.repairs: List[str] = []

    def append(self, payload: bytes) -> None:
        """Append one record; a crash here loses it, like a torn write."""
        fire("wal.append", nbytes=len(payload))
        self._records.append(bytes(payload))
        self._seg_records += 1
        if (self.max_segment_records
                and self._seg_records >= self.max_segment_records):
            self._seg_records = 0
            fire("store.rotate", records=self.max_segment_records)

    def append_many(self, payloads: List[bytes]) -> None:
        """Append a batch of records (memory has no write to combine)."""
        for payload in payloads:
            self.append(payload)

    def sync(self) -> None:
        """Mark all appended records as durable."""
        self._synced = len(self._records)

    def records(self) -> Iterator[bytes]:
        """Iterate all live (non-truncated) records."""
        return iter(list(self._records))

    def position(self) -> int:
        """Global position one past the last appended record."""
        return self._base + len(self._records)

    def base_position(self) -> int:
        """Global position of the oldest live record."""
        return self._base

    def segment_count(self) -> int:
        """Memory logs are a single logical segment."""
        return 1

    def history_complete(self) -> bool:
        """True when :meth:`full_records` can replay from position zero."""
        return self._base == len(self._truncated)

    def records_from(self, position: int) -> Iterator[bytes]:
        """Iterate records at global positions ``>= position``."""
        skip = max(0, position - self._base)
        return iter(list(self._records[skip:]))

    def full_records(self) -> Iterator[bytes]:
        """Iterate every record from position zero (needs retained history)."""
        if not self.history_complete():
            raise CorruptLogError("memory WAL: truncated history not retained")
        return iter(list(self._truncated) + list(self._records))

    def truncate_through(self, position: int) -> int:
        """Drop records below ``position`` (never beyond the synced prefix).

        Returns the number of records dropped. Unsynced records are never
        truncated: a checkpoint only covers state it could have read, and
        that state was synced before the snapshot was cut.
        """
        count = min(len(self._records), max(0, position - self._base))
        count = min(count, self._synced)
        if count == 0:
            return 0
        dropped = self._records[:count]
        if self.retain_truncated:
            self._truncated.extend(dropped)
        del self._records[:count]
        self._base += count
        self._synced -= count
        fire("store.checkpoint.truncate", records=count, position=position)
        return count

    def reset(self) -> None:
        """Discard all records, keeping global positions monotonic."""
        self._base += len(self._records)
        self._records = []
        self._truncated = []
        self._synced = 0
        self._seg_records = 0

    def close(self) -> None:
        """No-op for the in-memory backend."""

    def simulate_crash(self) -> "MemoryWAL":
        """Return the log as it would survive a crash: synced prefix only."""
        return MemoryWAL(
            self._records[: self._synced],
            base=self._base,
            max_segment_records=self.max_segment_records,
            retain_truncated=self.retain_truncated,
            truncated=list(self._truncated),
        )

    @property
    def unsynced(self) -> int:
        """Number of appended-but-unsynced records a crash would lose."""
        return len(self._records) - self._synced

    def __len__(self) -> int:
        return len(self._records)
