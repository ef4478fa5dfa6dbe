"""The memory disk's crash model: what ``crashed()`` keeps and loses."""

import pytest

from repro.store.disk import MemoryDisk


@pytest.fixture()
def disk():
    disk = MemoryDisk()
    disk.makedirs("d")
    return disk


def _write(disk, path, data, *, sync=True):
    with disk.open(path, "ab") as fh:
        fh.write(data)
        if sync:
            disk.fsync(fh)


class TestCrashModel:
    def test_appended_but_unsynced_bytes_are_lost(self, disk):
        _write(disk, "d/f", b"kept")
        disk.fsync_dir("d")
        _write(disk, "d/f", b"lost", sync=False)
        assert disk.read("d/f") == b"keptlost"
        assert disk.crashed().read("d/f") == b"kept"

    def test_fsynced_bytes_survive(self, disk):
        _write(disk, "d/f", b"one")
        disk.fsync_dir("d")
        _write(disk, "d/f", b"two")
        assert disk.crashed().read("d/f") == b"onetwo"

    def test_a_file_created_without_a_directory_fsync_vanishes(self, disk):
        _write(disk, "d/f", b"synced data, unsynced name")
        survivor = disk.crashed()
        assert disk.exists("d/f")
        assert not survivor.exists("d/f")
        assert survivor.listdir("d") == []

    def test_a_rename_is_not_durable_until_the_directory_fsync(self, disk):
        _write(disk, "d/f", b"old")
        disk.fsync_dir("d")
        _write(disk, "d/f.tmp", b"new")
        disk.replace("d/f.tmp", "d/f")
        assert disk.read("d/f") == b"new"
        survivor = disk.crashed()
        assert survivor.read("d/f") == b"old"
        assert not survivor.exists("d/f.tmp")
        disk.fsync_dir("d")
        assert disk.crashed().read("d/f") == b"new"
        assert disk.crashed().listdir("d") == ["f"]

    def test_an_unlink_is_not_durable_until_the_directory_fsync(self, disk):
        _write(disk, "d/f", b"data")
        disk.fsync_dir("d")
        disk.unlink("d/f")
        assert disk.crashed().read("d/f") == b"data"
        disk.fsync_dir("d")
        assert not disk.crashed().exists("d/f")

    def test_a_truncation_shortens_the_durable_image_at_once(self, disk):
        _write(disk, "d/f", b"durable")
        disk.fsync_dir("d")
        disk.truncate("d/f", 3)
        _write(disk, "d/f", b"XY", sync=False)
        assert disk.read("d/f") == b"durXY"
        assert disk.crashed().read("d/f") == b"dur"
        with disk.open("d/f", "wb") as fh:
            fh.write(b"new")
        assert disk.crashed().read("d/f") == b""

    def test_a_directory_fsync_covers_only_its_directory(self, disk):
        disk.makedirs("d/sub")
        _write(disk, "d/f", b"top")
        _write(disk, "d/sub/g", b"nested")
        disk.fsync_dir("d/sub")
        survivor = disk.crashed()
        assert survivor.read("d/sub/g") == b"nested"
        assert not survivor.exists("d/f")
        assert survivor.listdir("d") == ["sub"]

    def test_a_crashed_copy_shares_no_buffers_with_its_source(self, disk):
        _write(disk, "d/f", b"base")
        disk.fsync_dir("d")
        survivor = disk.crashed()
        copy, source = survivor._dirs["d"]["f"], disk._dirs["d"]["f"]
        assert copy.content() is not source.content()
        _write(disk, "d/f", b"+source", sync=False)
        _write(survivor, "d/f", b"+copy")
        assert disk.read("d/f") == b"base+source"
        assert survivor.read("d/f") == b"base+copy"
        assert survivor.crashed().read("d/f") == b"base+copy"
        assert disk.crashed().read("d/f") == b"base"


class TestNamespace:
    def test_missing_names_raise_file_not_found(self, disk):
        for call in (lambda: disk.read("d/none"),
                     lambda: disk.unlink("d/none"),
                     lambda: disk.truncate("d/none", 0),
                     lambda: disk.listdir("nowhere"),
                     lambda: disk.open("nowhere/f", "wb")):
            with pytest.raises(FileNotFoundError):
                call()

    def test_makedirs_makes_parents_and_listdir_lists_one_level(self, disk):
        disk.makedirs("a/b/c")
        _write(disk, "a/b/f", b"")
        assert disk.exists("a") and disk.exists("a/b/c")
        assert disk.listdir("a") == ["b"]
        assert disk.listdir("a/b") == ["c", "f"]
        assert disk.crashed().exists("a/b/c")

    def test_write_atomic_is_durable_when_it_returns(self, disk):
        disk.write_atomic("d/m", b"first")
        disk.write_atomic("d/m", b"second")
        survivor = disk.crashed()
        assert survivor.read("d/m") == b"second"
        assert survivor.listdir("d") == ["m"]
