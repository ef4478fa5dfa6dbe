"""The disk under the store: one small file interface, two implementations.

:class:`~repro.store.wal.SegmentedWAL` and
:class:`~repro.store.snapshot.FileSnapshot` do all their I/O through a
disk: ``open`` (``"wb"``/``"ab"``; the handle writes, flushes, closes),
``read``, ``truncate``, ``fsync`` of a handle, ``fsync_dir``, ``replace``,
``exists``, ``listdir``, ``unlink`` and ``makedirs``.
:class:`OSDisk` is the operating system's; :class:`MemoryDisk` keeps
files in dicts with the crash model of a page cache, so an in-memory
store is the same WAL and snapshot code as an on-disk one.
"""

from __future__ import annotations

import os
from typing import Dict, List


class Disk:
    """What both disks share: the one atomic-replace sequence."""

    def write_atomic(self, path: str, payload: bytes) -> None:
        """Replace ``path`` with ``payload`` so every crash window leaves
        either the old file or the new one: write a tmp file, fsync it,
        rename it over ``path``, fsync the directory."""
        tmp = path + ".tmp"
        with self.open(tmp, "wb") as fh:
            fh.write(payload)
            self.fsync(fh)
        self.replace(tmp, path)
        self.fsync_dir(os.path.dirname(path))


class OSDisk(Disk):
    """The operating system's files: the ``os`` calls themselves, with
    ``os.fsync`` looked up at call time so swapping it sees every call."""

    open = staticmethod(open)
    truncate = staticmethod(os.truncate)
    replace = staticmethod(os.replace)
    exists = staticmethod(os.path.exists)
    listdir = staticmethod(os.listdir)
    unlink = staticmethod(os.unlink)

    def read(self, path: str) -> bytes:
        """Return the whole content of ``path``."""
        with open(path, "rb") as fh:
            return fh.read()

    def fsync(self, handle) -> None:
        """Flush ``handle`` and make its content durable."""
        handle.flush()
        os.fsync(handle.fileno())

    def fsync_dir(self, directory: str) -> None:
        """Make creates, renames and unlinks in ``directory`` durable."""
        fd = os.open(directory or ".", os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def makedirs(self, directory: str) -> None:
        """Create ``directory`` and its parents if missing."""
        os.makedirs(directory, exist_ok=True)


#: the one :class:`OSDisk` on-disk stores share.
OS_DISK = OSDisk()


class _MemoryFile:
    """A file of a :class:`MemoryDisk`, also its own write handle.

    Writes are kept as written, in ``chunks``, and joined into one when
    the content is read or the handle closed: an append copies nothing,
    and a snapshot written in one go is never copied. The durable image
    is the first ``synced`` bytes: a length, not a copy.
    """

    def __init__(self, data=b""):
        self.chunks: List[bytes] = [bytes(data)] if data else []
        self.size = self.synced = len(data)

    def write(self, data: bytes) -> None:
        self.chunks.append(bytes(data))
        self.size += len(data)

    def content(self) -> bytes:
        """Everything written, joined (and kept joined)."""
        if len(self.chunks) != 1:
            self.chunks = [b"".join(self.chunks)]
        return self.chunks[0]

    def flush(self) -> None:
        pass

    def close(self) -> None:
        self.content()

    def __enter__(self) -> "_MemoryFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class MemoryDisk(Disk):
    """Files in dicts, one per directory, with a page cache's crash model.

    A file's durable image advances only at its ``fsync`` (a truncation
    shortens it at once); a directory's namespace — creates, renames,
    unlinks — only at its ``fsync_dir``. :meth:`crashed` is the disk a
    crash would leave. Directories are durable once made.
    """

    def __init__(self):
        #: directory -> {name: file}, as opens, reads and listings see it.
        self._dirs: Dict[str, Dict[str, _MemoryFile]] = {}
        #: directory -> {name: file} as of its last ``fsync_dir``.
        self._durable: Dict[str, Dict[str, _MemoryFile]] = {}

    def _dir(self, directory: str) -> Dict[str, _MemoryFile]:
        if directory not in self._dirs:
            raise FileNotFoundError(directory)
        return self._dirs[directory]

    def _file(self, path: str) -> _MemoryFile:
        directory, name = os.path.split(path)
        file = self._dir(directory).get(name)
        if file is None:
            raise FileNotFoundError(path)
        return file

    def open(self, path: str, mode: str) -> _MemoryFile:
        """Open ``path`` for writing (``"wb"`` truncates, ``"ab"`` appends)."""
        directory, name = os.path.split(path)
        file = self._dir(directory).setdefault(name, _MemoryFile())
        if mode == "wb":
            self.truncate(path, 0)
        return file

    def read(self, path: str) -> bytes:
        """Return the whole content of ``path``."""
        return self._file(path).content()

    def truncate(self, path: str, size: int) -> None:
        """Cut ``path`` to ``size`` bytes."""
        file = self._file(path)
        file.chunks = [file.content()[:size]]
        file.size = len(file.chunks[0])
        file.synced = min(file.synced, file.size)

    def fsync(self, handle: _MemoryFile) -> None:
        """Make the handle's content its durable image."""
        handle.synced = handle.size

    def fsync_dir(self, directory: str) -> None:
        """Make the names in ``directory`` durable as they are now."""
        self._durable[directory] = dict(self._dir(directory))

    def replace(self, src: str, dst: str) -> None:
        """Rename ``src`` over ``dst``."""
        file = self._file(src)
        self.unlink(src)
        directory, name = os.path.split(dst)
        self._dir(directory)[name] = file

    def exists(self, path: str) -> bool:
        """True when ``path`` names a file or directory."""
        directory, name = os.path.split(path)
        return path in self._dirs or name in self._dirs.get(directory, ())

    def listdir(self, directory: str) -> List[str]:
        """Names in ``directory``."""
        names = list(self._dir(directory))
        names += [os.path.basename(d) for d in self._dirs
                  if d != directory and os.path.dirname(d) == directory]
        return sorted(names)

    def unlink(self, path: str) -> None:
        """Remove the file ``path``."""
        directory, name = os.path.split(path)
        if self._dir(directory).pop(name, None) is None:
            raise FileNotFoundError(path)

    def makedirs(self, directory: str) -> None:
        """Create ``directory`` and its parents if missing."""
        while directory not in self._dirs:
            self._dirs[directory], self._durable[directory] = {}, {}
            if os.path.dirname(directory) == directory:
                break
            directory = os.path.dirname(directory)

    def crashed(self) -> "MemoryDisk":
        """The disk a crash would leave now: each durably named file with
        a copy of its durable image, in a buffer of its own."""
        survivor = MemoryDisk()
        for directory, names in self._durable.items():
            survivor._dirs[directory] = {
                name: _MemoryFile(memoryview(file.content())[:file.synced])
                for name, file in names.items()}
            survivor._durable[directory] = dict(survivor._dirs[directory])
        return survivor
