"""Atomic snapshot files for the KV store.

A snapshot is the full store state written to a temporary file and renamed
into place, so a crash during snapshotting leaves either the old snapshot or
the new one — never a partial file. The rename itself is made durable by
fsyncing the containing directory afterwards; without that, a power loss
shortly after the rename can roll the directory entry back to the old
snapshot even though the data blocks of the new one were flushed. The file
lives on a :class:`~repro.store.disk.Disk`, so an in-memory store keeps
its snapshot the same way on a :class:`~repro.store.disk.MemoryDisk`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from . import codec
from .disk import OS_DISK, Disk


class FileSnapshot:
    """Snapshot stored at ``<path>`` on ``disk``; written via rename for
    atomicity."""

    def __init__(self, path: str, *, disk: Disk = OS_DISK):
        self.path = path
        self._disk = disk

    def save(self, state: Dict[str, Any]) -> None:
        """Atomically replace the snapshot with ``state``.

        Write order: tmp file → fsync file → rename → fsync the
        containing directory (:meth:`~repro.store.disk.Disk.write_atomic`).
        Each step is durable before the next makes it visible, so every
        crash window leaves a complete snapshot.
        """
        self._disk.write_atomic(self.path, codec.encode(state))

    def load(self) -> Optional[Dict[str, Any]]:
        """Return the snapshot state, or None if no snapshot exists yet."""
        if not self._disk.exists(self.path):
            return None
        return codec.decode(self._disk.read(self.path))


class MemorySnapshot(FileSnapshot):
    """A name only, never instantiated, for the benchmark ledger's patch
    table: its wrappers land here, where no instance reaches them."""

    save = FileSnapshot.save
    load = FileSnapshot.load
