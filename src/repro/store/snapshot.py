"""Atomic snapshot files for the KV store: the checkpoint chain's base.

A snapshot is the store state as WAL records — ``[heads, values]``
payloads of up to :data:`RECORD_KEYS` puts each, in key order, framed
like a segment's — written to a temporary file and renamed into place,
so a crash during snapshotting leaves either the old snapshot or the new
one, never a partial file. The rename itself is made durable by fsyncing
the containing directory afterwards; without that, a power loss shortly
after the rename can roll the directory entry back to the old snapshot
even though the data blocks of the new one were flushed. The file lives
on a :class:`~repro.store.disk.Disk`, so an in-memory store keeps its
snapshot the same way on a :class:`~repro.store.disk.MemoryDisk`.

Loading returns the records undecoded: the store replays them from their
heads, like any WAL record, and decodes a record's values on first read.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..errors import CorruptLogError
from . import codec
from .disk import OS_DISK, Disk
from .wal import frame, scan

#: puts per snapshot record: a first read decodes one record's values,
#: not the whole state.
RECORD_KEYS = 64


class FileSnapshot:
    """Snapshot stored at ``<path>`` on ``disk``; written via rename for
    atomicity."""

    def __init__(self, path: str, *, disk: Disk = OS_DISK):
        self.path = path
        self._disk = disk

    def save(self, state: Dict[str, Any]) -> List[bytes]:
        """Atomically replace the snapshot with ``state``'s records, and
        return their payloads.

        Write order: tmp file → fsync file → rename → fsync the
        containing directory (:meth:`~repro.store.disk.Disk.write_atomic`).
        Each step is durable before the next makes it visible, so every
        crash window leaves a complete snapshot.
        """
        keys = sorted(state)
        payloads = []
        for start in range(0, len(keys), RECORD_KEYS):
            chunk = keys[start:start + RECORD_KEYS]
            heads = [word for key in chunk for word in ("put", key)]
            payloads.append(
                codec.encode([heads, [state[key] for key in chunk]]))
        self._disk.write_atomic(
            self.path, b"".join(frame(payload) for payload in payloads))
        return payloads

    def load(self) -> Optional[List[bytes]]:
        """Return the snapshot's record payloads, undecoded, or None if no
        snapshot exists yet. A damaged file is a
        :class:`~repro.errors.CorruptLogError`: it was written whole."""
        if not self._disk.exists(self.path):
            return None
        data = self._disk.read(self.path)
        records, valid_end, _corrupt = scan(data)
        if valid_end != len(data):
            raise CorruptLogError(
                f"{self.path}: snapshot damaged at offset {valid_end}")
        return records


class MemorySnapshot(FileSnapshot):
    """A name only, never instantiated, for the benchmark ledger's patch
    table: its wrappers land here, where no instance reaches them."""

    save = FileSnapshot.save
    load = FileSnapshot.load
