"""The write-ahead log: segment files plus a manifest, on a disk.

A WAL is an ordered sequence of byte records, each framed as
``length(4) | crc32(4) | payload``, in segment files plus a durable
``MANIFEST`` on a :class:`~repro.store.disk.Disk` — the operating
system's for an on-disk store, a memory disk for an in-memory one: one
code path. The log rotates to a fresh segment at a size/record
threshold, and checkpoints truncate every segment wholly covered by a
snapshot, so footprint and replay cost stay bounded in run length.

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
from .disk import OS_DISK, Disk
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


class SegmentedWAL:
    """A rotating, truncatable write-ahead log over a segment directory
    on ``disk`` (the operating system's by default).

    Layout::

        <directory>/
            MANIFEST          # codec JSON: segment list + next serial
            seg-00000001.wal  # length | crc32 | payload records
            seg-00000002.wal
            ...

    The manifest is the source of truth: segment files not listed in it are
    leftovers from a crash mid-rotation or mid-truncation and are removed
    on open. The manifest itself is replaced by
    :meth:`~repro.store.disk.Disk.write_atomic`, so every crash window
    leaves either the old or the new manifest — never a mix.

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

    def __init__(self, directory: str, *, disk: Disk = OS_DISK,
                 max_segment_records: int = DEFAULT_SEGMENT_RECORDS,
                 max_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 retain_truncated: bool = False):
        self.directory = directory
        self._disk = disk
        self.max_segment_records = max(1, int(max_segment_records))
        self.max_segment_bytes = max(1, int(max_segment_bytes))
        self.retain_truncated = retain_truncated
        #: human-readable notes about damage repaired on open.
        self.repairs: List[str] = []
        disk.makedirs(directory)
        self._manifest_path = os.path.join(directory, MANIFEST_NAME)
        self._entries: List[Dict] = []   # live segments, active last
        self._retired: List[Dict] = []   # truncated-but-retained segments
        self._next_serial = 1
        self._active_records = 0
        self._active_bytes = 0
        #: payloads of the scan made at open, by segment file: the first
        #: :meth:`records_from` serves them and drops them.
        self._opened: Dict[str, List[bytes]] = {}
        self._load_manifest()
        self._open_segments()
        self._cleanup_orphans()
        self._file = disk.open(self._segment_path(self._entries[-1]), "ab")

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
        self._disk.write_atomic(self._manifest_path, payload)

    def _load_manifest(self) -> None:
        disk = self._disk
        if not disk.exists(self._manifest_path):
            # Fresh init. A crash during a previous one (segment created,
            # manifest never written) left the same empty first segment.
            first = self._new_entry(0)
            disk.open(self._segment_path(first), "ab").close()
            self._entries = [first]
            disk.fsync_dir(self.directory)
            self._write_manifest()
            return
        try:
            manifest = codec.decode(disk.read(self._manifest_path))
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
        disk = self._disk
        for entry in self._entries[:-1]:
            path = self._segment_path(entry)
            if not disk.exists(path):
                raise CorruptLogError(f"{path}: sealed segment missing")
            data = disk.read(path)
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
        if not disk.exists(path):
            self.repairs.append(
                f"{active['file']}: newest segment missing; recreated empty"
            )
            disk.open(path, "wb").close()
            disk.fsync_dir(self.directory)
            return
        data = disk.read(path)
        records, valid_end, corrupt = _scan(data)
        if corrupt:
            self.repairs.append(
                f"{active['file']}: corruption at offset {valid_end}; "
                f"truncated to {len(records)} records"
            )
        if valid_end != len(data):
            disk.truncate(path, valid_end)
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
        for name in self._disk.listdir(self.directory):
            if name == MANIFEST_NAME or name in known:
                continue
            ours = (name.startswith("seg-") and name.endswith(".wal")) \
                or name.endswith(".tmp")
            if not ours:
                continue
            self._disk.unlink(os.path.join(self.directory, name))
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
        """True when :meth:`full_records` can replay from position zero:
        the retired segments, disjoint and below the live ones, cover
        every position there."""
        return sum(e["count"] for e in self._retired) == self.base_position()

    # -- appends / rotation ---------------------------------------------------

    def append(self, payload: bytes) -> None:
        """Append one record, rotating to a fresh segment at the threshold."""
        self._write_frames((payload,))

    def append_many(self, payloads: List[bytes]) -> None:
        """Append a batch of records, one combined write per segment.

        The store appends one record per commit; this name is kept for
        the benchmark ledger's patch table."""
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
        disk = self._disk
        disk.fsync(self._file)
        active["count"] = self._active_records
        new_entry = self._new_entry(active["base"] + self._active_records)
        disk.open(self._segment_path(new_entry), "wb").close()
        disk.fsync_dir(self.directory)
        self._entries.append(new_entry)
        self._write_manifest()
        self._file.close()
        self._file = disk.open(self._segment_path(new_entry), "ab")
        self._active_records = 0
        self._active_bytes = 0

    def sync(self) -> None:
        """Flush and fsync the active segment."""
        self._disk.fsync(self._file)

    # -- reads ----------------------------------------------------------------

    def _segment_records(self, entry: Dict, sealed: bool) -> List[bytes]:
        path = self._segment_path(entry)
        records, _, _ = _scan(self._disk.read(path))
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
            if not self._disk.exists(path):
                raise CorruptLogError(f"{path}: retired segment missing")
            records = self._segment_records(entry, sealed=True)
            for payload in records:
                yield payload
        for payload in self.records():
            yield payload

    # -- truncation -----------------------------------------------------------

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
                    self._disk.unlink(self._segment_path(entry))
                except FileNotFoundError:
                    pass
            self._disk.fsync_dir(self.directory)
        return len(covered)

    def close(self) -> None:
        """Close the active segment's file handle."""
        if self._file is not None:
            self._file.close()
            self._file = None

    def __len__(self) -> int:
        return self.position() - self.base_position()


class MemoryWAL(SegmentedWAL):
    """A name only, never instantiated, for the benchmark ledger's patch
    table: its wrappers land here, where no instance reaches them."""

    append = SegmentedWAL.append
    append_many = SegmentedWAL.append_many
    sync = SegmentedWAL.sync
    records_from = SegmentedWAL.records_from
    truncate_through = SegmentedWAL.truncate_through
