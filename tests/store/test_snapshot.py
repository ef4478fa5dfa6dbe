"""Snapshot atomicity and the replay-any-prefix robustness property."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CorruptLogError
from repro.store import codec
from repro.store.disk import MemoryDisk, OSDisk
from repro.store.snapshot import RECORD_KEYS, FileSnapshot


def _loaded(snapshot):
    """The state a snapshot's records put, decoded (None: no snapshot)."""
    records = snapshot.load()
    if records is None:
        return None
    state = {}
    for payload in records:
        heads, values = codec.decode(payload)
        assert heads[::2] == ["put"] * len(values)
        state.update(zip(heads[1::2], values))
    return state


@pytest.fixture()
def disk(request, tmp_path):
    """A fresh disk of the kind the test class runs on, holding
    ``tmp_path`` as a directory."""
    disk = request.cls.make_disk()
    disk.makedirs(str(tmp_path))
    return disk


class TestFileSnapshot:
    make_disk = OSDisk

    def test_round_trip(self, tmp_path, disk):
        snapshot = FileSnapshot(str(tmp_path / "snap"), disk=disk)
        snapshot.save({"a": 1, "b": [2, 3]})
        assert _loaded(snapshot) == {"a": 1, "b": [2, 3]}

    def test_records_are_wal_records_of_sorted_keys(self, tmp_path, disk):
        """A snapshot is the state as ``[heads, values]`` records of at
        most RECORD_KEYS puts, in key order: what a WAL replay reads."""
        snapshot = FileSnapshot(str(tmp_path / "snap"), disk=disk)
        state = {f"k{i:03d}": i for i in range(RECORD_KEYS + 1)}
        payloads = snapshot.save(state)
        assert snapshot.load() == payloads
        keys = sorted(state)
        assert payloads == [
            codec.encode([[w for k in chunk for w in ("put", k)],
                          [state[k] for k in chunk]])
            for chunk in (keys[:RECORD_KEYS], keys[RECORD_KEYS:])]
        assert snapshot.save({}) == [] and snapshot.load() == []

    def test_damaged_file_is_a_typed_error(self, tmp_path, disk):
        snapshot = FileSnapshot(str(tmp_path / "snap"), disk=disk)
        snapshot.save({"a": 1})
        disk.truncate(snapshot.path, 5)
        with pytest.raises(CorruptLogError, match="damaged"):
            snapshot.load()

    def test_missing_file_loads_none(self, tmp_path, disk):
        assert FileSnapshot(str(tmp_path / "nope"), disk=disk).load() is None

    def test_overwrite_is_atomic_rename(self, tmp_path, disk):
        path = str(tmp_path / "snap")
        snapshot = FileSnapshot(path, disk=disk)
        snapshot.save({"v": 1})
        snapshot.save({"v": 2})
        assert _loaded(snapshot) == {"v": 2}
        # no stray temp file left behind
        assert disk.listdir(str(tmp_path)) == ["snap"]

    def test_interrupted_write_leaves_old_snapshot(self, tmp_path, disk):
        """A crash mid-write (temp file exists, rename never happened)
        must not corrupt the last good snapshot."""
        path = str(tmp_path / "snap")
        snapshot = FileSnapshot(path, disk=disk)
        snapshot.save({"good": True})
        with disk.open(path + ".tmp", "wb") as fh:
            fh.write(b'{"half-writ')   # simulated torn temp file
        assert _loaded(snapshot) == {"good": True}

    def test_save_fsyncs_directory_after_rename(self, tmp_path, disk,
                                                monkeypatch):
        """Regression: the rename itself must be made durable by fsyncing
        the containing directory — without it a power loss shortly after
        save() can roll the directory entry back to the old snapshot."""
        import stat

        path = str(tmp_path / "snap")
        snapshot = FileSnapshot(path, disk=disk)
        synced_modes = []
        real_fsync = os.fsync

        def spy(fd):
            synced_modes.append(os.fstat(fd).st_mode)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        snapshot.save({"v": 1})
        assert any(stat.S_ISDIR(mode) for mode in synced_modes), \
            "save() must fsync the containing directory after os.replace"


class TestFileSnapshotOnMemoryDisk(TestFileSnapshot):
    """The same cases on a memory disk, where the directory fsync is
    what a crash is checked against."""

    make_disk = MemoryDisk

    def test_save_fsyncs_directory_after_rename(self, tmp_path, disk,
                                                monkeypatch):
        path = str(tmp_path / "snap")
        FileSnapshot(path, disk=disk).save({"v": 1})
        FileSnapshot(path, disk=disk).save({"v": 2})
        survivor = FileSnapshot(path, disk=disk.crashed())
        assert _loaded(survivor) == {"v": 2}
        monkeypatch.setattr(disk, "fsync_dir", lambda directory: None)
        FileSnapshot(path, disk=disk).save({"v": 3})
        # without the directory fsync the rename is lost in a crash
        assert _loaded(FileSnapshot(path, disk=disk.crashed())) == {"v": 2}


class TestMemorySnapshot:
    """The snapshot of an in-memory store: a :class:`FileSnapshot` on a
    :class:`MemoryDisk`."""

    def test_round_trip(self):
        disk = MemoryDisk()
        disk.makedirs("db")
        snapshot = FileSnapshot("db/snap", disk=disk)
        assert snapshot.load() is None
        snapshot.save({"x": [1]})
        assert _loaded(snapshot) == {"x": [1]}
        survivor = FileSnapshot("db/snap", disk=disk.crashed())
        assert _loaded(survivor) == {"x": [1]}

    def test_load_returns_fresh_copy(self):
        disk = MemoryDisk()
        disk.makedirs("db")
        snapshot = FileSnapshot("db/snap", disk=disk)
        snapshot.save({"x": [1]})
        first = _loaded(snapshot)
        first["x"].append(99)
        assert _loaded(snapshot) == {"x": [1]}


class TestReplayPrefixProperty:
    """Replaying ANY prefix of a valid event log must never crash and must
    yield a consistent instance — this is exactly the state a recovery
    sees if the server died mid-run."""

    @pytest.fixture(scope="class")
    def full_log(self, darwin_real, small_profile):
        from repro.core.engine import BioOperaServer, InlineEnvironment
        from repro.processes import install_all_vs_all

        server = BioOperaServer(seed=6)
        environment = InlineEnvironment()
        server.attach_environment(environment)
        install_all_vs_all(server, darwin_real)
        instance_id = server.launch("all_vs_all", {
            "db_name": small_profile.name, "granularity": 3,
        })
        environment.run_instance(instance_id)
        events = list(server.store.instances.events(instance_id))
        return server, instance_id, events

    def test_every_prefix_replays(self, full_log):
        from repro.core.engine import ProcessInstance

        server, instance_id, events = full_log
        assert len(events) > 20
        statuses = []
        for cut in range(1, len(events) + 1):
            twin = ProcessInstance(instance_id, server._resolver)
            twin.replay(iter(events[:cut]))
            statuses.append(twin.status)
            # invariants that must hold at every point in history:
            for state in twin.iter_states():
                assert state.attempts >= state.program_failures
                if state.status == "completed":
                    assert state.outputs is not None
        assert statuses[0] == "created"
        assert statuses[-1] == "completed"

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_random_prefix_progress_monotone(self, full_log, data):
        """Longer prefixes never have FEWER completed tasks."""
        from repro.core.engine import ProcessInstance

        server, instance_id, events = full_log
        short = data.draw(st.integers(min_value=1, max_value=len(events)))
        long = data.draw(st.integers(min_value=short, max_value=len(events)))

        def completed_count(cut):
            twin = ProcessInstance(instance_id, server._resolver)
            twin.replay(iter(events[:cut]))
            return sum(1 for s in twin.iter_states()
                       if s.status == "completed")

        assert completed_count(long) >= completed_count(short)
