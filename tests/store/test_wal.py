"""WAL durability: framing, torn tails, corruption, crash simulation,
segment rotation, and checkpoint-driven truncation — each on the
operating system's disk and on a memory disk."""

import os
import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import CorruptLogError
from repro.faults.plan import FaultAction
from repro.faults.points import FaultInjector, InjectedCrash, installed
from repro.store import codec
from repro.store.disk import MemoryDisk, OSDisk
from repro.store.wal import MANIFEST_NAME, SegmentedWAL


@pytest.fixture()
def seg_dir(tmp_path):
    return str(tmp_path / "wal")


@pytest.fixture()
def disk(request):
    """A fresh disk of the kind the test class runs on. A class reruns
    its base's tests on another disk by overriding ``make_disk``; its
    property tests share one body across the two classes, hence the
    ``differing_executors`` health check they suppress."""
    return request.cls.make_disk()


def _fill(wal, count, start=0):
    records = [f"r{start + i:04d}".encode() for i in range(count)]
    for record in records:
        wal.append(record)
    wal.sync()
    return records


def _active_path(wal):
    return os.path.join(wal.directory, wal._entries[-1]["file"])


def _append_bytes(disk, path, data):
    with disk.open(path, "ab") as fh:
        fh.write(data)


def _write_bytes(disk, path, data):
    with disk.open(path, "wb") as fh:
        fh.write(data)


def _overwrite(disk, path, offset, data):
    content = bytearray(disk.read(path))
    content[offset:offset + len(data)] = data
    _write_bytes(disk, path, bytes(content))


class TestActiveSegmentFraming:
    """Record framing and torn-tail repair, checked on the segment a
    crash can actually tear: the active (newest) one."""

    make_disk = OSDisk

    def test_empty_payload_record(self, seg_dir, disk):
        wal = SegmentedWAL(seg_dir, disk=disk)
        wal.append(b"")
        wal.append(b"x")
        assert list(wal.records()) == [b"", b"x"]

    def test_torn_header_repaired(self, seg_dir, disk):
        wal = SegmentedWAL(seg_dir, disk=disk)
        wal.append(b"good")
        wal.sync()
        path = _active_path(wal)
        wal.close()
        _append_bytes(disk, path, b"\x05\x00")  # half a header
        reopened = SegmentedWAL(seg_dir, disk=disk)
        assert list(reopened.records()) == [b"good"]
        assert not reopened.repairs  # a torn tail is not damage
        # the torn tail was truncated away
        assert len(disk.read(path)) == 8 + 4

    def test_torn_payload_repaired(self, seg_dir, disk):
        wal = SegmentedWAL(seg_dir, disk=disk)
        wal.append(b"good")
        wal.sync()
        path = _active_path(wal)
        wal.close()
        _append_bytes(disk, path, struct.pack("<II", 100, 0) + b"short")
        reopened = SegmentedWAL(seg_dir, disk=disk)
        assert list(reopened.records()) == [b"good"]
        assert len(disk.read(path)) == 8 + 4

    def test_corrupt_final_record_treated_as_torn(self, seg_dir, disk):
        wal = SegmentedWAL(seg_dir, disk=disk)
        wal.append(b"good")
        wal.append(b"bad-crc")
        wal.sync()
        path = _active_path(wal)
        wal.close()
        # flip a byte in the final record's payload
        _overwrite(disk, path, len(disk.read(path)) - 1, b"\x00")
        reopened = SegmentedWAL(seg_dir, disk=disk)
        assert list(reopened.records()) == [b"good"]
        assert not reopened.repairs

    def test_crash_between_header_and_payload_recovers(self, seg_dir, disk):
        """A record whose payload never hit the disk must be repaired
        away on reopen, and appending must continue cleanly."""
        wal = SegmentedWAL(seg_dir, disk=disk)
        wal.append(b"durable")
        wal.sync()
        path = _active_path(wal)
        wal.close()
        # header promising a 7-byte payload, then the "crash"
        _append_bytes(disk, path, struct.pack("<II", 7, 0xDEADBEEF))
        reopened = SegmentedWAL(seg_dir, disk=disk)
        assert list(reopened.records()) == [b"durable"]
        reopened.append(b"after-crash")
        reopened.sync()
        assert list(reopened.records()) == [b"durable", b"after-crash"]
        assert reopened.position() == 2

    def test_append_issues_single_write(self, seg_dir, disk):
        """The header+payload must leave as one buffer, so the OS cannot
        interleave a crash between them."""
        wal = SegmentedWAL(seg_dir, disk=disk)
        writes = []
        original = wal._file.write
        wal._file.write = lambda data: writes.append(bytes(data)) or \
            original(data)
        wal.append(b"payload")
        assert len(writes) == 1
        assert writes[0].endswith(b"payload")

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.differing_executors])
    @given(
        records=st.lists(st.binary(max_size=64), min_size=1, max_size=10),
        cut=st.integers(min_value=1, max_value=50),
    )
    def test_random_truncation_keeps_valid_prefix(self, tmp_path_factory,
                                                  records, cut):
        """Chopping N bytes off the end never corrupts the valid prefix."""
        directory = str(tmp_path_factory.mktemp("wal") / "wal")
        disk = self.make_disk()
        wal = SegmentedWAL(directory, disk=disk)
        for record in records:
            wal.append(record)
        wal.sync()
        path = _active_path(wal)
        wal.close()
        disk.truncate(path, max(0, len(disk.read(path)) - cut))
        recovered = list(SegmentedWAL(directory, disk=disk).records())
        assert recovered == records[: len(recovered)]


class TestActiveSegmentFramingOnMemoryDisk(TestActiveSegmentFraming):
    """The same framing and repair cases on a memory disk."""

    make_disk = MemoryDisk


class TestSegmentedWAL:
    make_disk = OSDisk

    def test_empty_log(self, seg_dir, disk):
        wal = SegmentedWAL(seg_dir, disk=disk)
        assert list(wal.records()) == []
        assert len(wal) == 0
        assert wal.position() == 0
        assert wal.segment_count() == 1
        assert disk.exists(os.path.join(seg_dir, MANIFEST_NAME))

    def test_append_read_reopen(self, seg_dir, disk):
        wal = SegmentedWAL(seg_dir, disk=disk)
        records = _fill(wal, 5)
        assert list(wal.records()) == records
        wal.close()
        reopened = SegmentedWAL(seg_dir, disk=disk)
        assert list(reopened.records()) == records
        assert reopened.position() == 5

    def test_rotation_at_record_threshold(self, seg_dir, disk):
        wal = SegmentedWAL(seg_dir, disk=disk, max_segment_records=3)
        records = _fill(wal, 7)
        # rotated after records 3 and 6: two sealed segments + active
        assert wal.segment_count() == 3
        assert list(wal.records()) == records
        assert len(wal) == 7

    def test_rotation_at_byte_threshold(self, seg_dir, disk):
        wal = SegmentedWAL(seg_dir, disk=disk, max_segment_bytes=64)
        records = _fill(wal, 6)  # 8-byte header + 5-byte payload each
        assert wal.segment_count() > 1
        assert list(wal.records()) == records

    def test_rotation_survives_reopen(self, seg_dir, disk):
        wal = SegmentedWAL(seg_dir, disk=disk, max_segment_records=2)
        records = _fill(wal, 5)
        wal.close()
        reopened = SegmentedWAL(seg_dir, disk=disk, max_segment_records=2)
        assert list(reopened.records()) == records
        more = _fill(reopened, 2, start=5)
        assert list(reopened.records()) == records + more

    def test_records_from_reads_only_the_suffix(self, seg_dir, disk):
        wal = SegmentedWAL(seg_dir, disk=disk, max_segment_records=3)
        records = _fill(wal, 8)
        for position in (0, 2, 3, 5, 7, 8):
            assert list(wal.records_from(position)) == records[position:]

    def test_truncate_through_drops_covered_segments(self, seg_dir, disk):
        wal = SegmentedWAL(seg_dir, disk=disk, max_segment_records=3)
        records = _fill(wal, 8)  # segments: [0..3) [3..6) [6..8)
        dropped = wal.truncate_through(6)
        assert dropped == 2
        assert wal.base_position() == 6
        assert wal.position() == 8
        assert list(wal.records()) == records[6:]
        # positions keep meaning what they meant before truncation
        assert list(wal.records_from(7)) == records[7:]
        # covered segment files are actually gone from disk
        assert len([name for name in disk.listdir(wal.directory)
                    if name != MANIFEST_NAME]) == wal.segment_count()

    def test_truncate_at_head_rotates_and_empties(self, seg_dir, disk):
        """A checkpoint at the log head must compact the live log to zero
        records — the active segment is sealed and dropped too."""
        wal = SegmentedWAL(seg_dir, disk=disk, max_segment_records=100)
        _fill(wal, 5)
        assert wal.truncate_through(wal.position()) >= 1
        assert len(wal) == 0
        assert wal.base_position() == wal.position() == 5
        more = _fill(wal, 2, start=5)
        assert list(wal.records()) == more

    def test_truncation_survives_reopen(self, seg_dir, disk):
        wal = SegmentedWAL(seg_dir, disk=disk, max_segment_records=2)
        records = _fill(wal, 6)
        wal.truncate_through(4)
        wal.close()
        reopened = SegmentedWAL(seg_dir, disk=disk, max_segment_records=2)
        assert reopened.base_position() == 4
        assert reopened.position() == 6
        assert list(reopened.records()) == records[4:]

    def test_retained_history_allows_full_replay(self, seg_dir, disk):
        wal = SegmentedWAL(seg_dir, disk=disk, max_segment_records=2,
                           retain_truncated=True)
        records = _fill(wal, 6)
        wal.truncate_through(4)
        assert wal.history_complete()
        assert list(wal.full_records()) == records
        assert list(wal.records()) == records[4:]
        wal.close()
        reopened = SegmentedWAL(seg_dir, disk=disk, max_segment_records=2,
                                retain_truncated=True)
        assert list(reopened.full_records()) == records

    def test_unretained_history_refuses_full_replay(self, seg_dir, disk):
        wal = SegmentedWAL(seg_dir, disk=disk, max_segment_records=2)
        _fill(wal, 6)
        assert wal.history_complete()  # nothing truncated yet
        wal.truncate_through(4)
        assert not wal.history_complete()
        with pytest.raises(CorruptLogError):
            list(wal.full_records())

    def test_orphan_segments_removed_on_open(self, seg_dir, disk):
        """Files not in the manifest are crash leftovers (mid-rotation or
        mid-truncation) and must be cleaned up, never replayed."""
        wal = SegmentedWAL(seg_dir, disk=disk)
        records = _fill(wal, 3)
        wal.close()
        stray = os.path.join(seg_dir, "seg-99999999.wal")
        _write_bytes(disk, stray, b"garbage")
        reopened = SegmentedWAL(seg_dir, disk=disk)
        assert not disk.exists(stray)
        assert list(reopened.records()) == records

    def test_cleanup_leaves_foreign_files_alone(self, seg_dir, disk):
        """Orphan cleanup only touches names the WAL itself creates: an
        operator's backup copy in the directory survives reopen, while an
        unmanifested ``seg-*.wal`` is removed with a note in repairs."""
        wal = SegmentedWAL(seg_dir, disk=disk)
        records = _fill(wal, 3)
        wal.close()
        backup = os.path.join(seg_dir, "seg-00000001.wal.bak")
        _write_bytes(disk, backup, b"operator backup")
        stray = os.path.join(seg_dir, "seg-99999999.wal")
        _write_bytes(disk, stray, b"garbage")
        reopened = SegmentedWAL(seg_dir, disk=disk)
        assert disk.exists(backup)
        assert not disk.exists(stray)
        assert any("seg-99999999.wal" in note for note in reopened.repairs)
        assert list(reopened.records()) == records
        reopened.close()

    def test_crash_during_rotation_recovers(self, seg_dir, disk):
        """A crash in the rotation window leaves the old manifest; reopen
        continues from the unsealed segment with nothing lost."""
        wal = SegmentedWAL(seg_dir, disk=disk, max_segment_records=3)
        wal.append(b"a")
        wal.append(b"b")
        wal.sync()
        with installed(FaultInjector([FaultAction("store.rotate", "crash")])):
            with pytest.raises(InjectedCrash):
                wal.append(b"c")  # crosses the threshold mid-append
        wal.sync()
        wal.close()
        reopened = SegmentedWAL(seg_dir, disk=disk, max_segment_records=3)
        assert list(reopened.records()) == [b"a", b"b", b"c"]
        assert reopened.segment_count() == 1  # rotation never completed
        reopened.append(b"d")  # threshold crossing now rotates cleanly
        assert reopened.segment_count() == 2

    def test_corrupt_newest_segment_truncated_tolerantly(self, seg_dir, disk):
        """Damage to the newest segment is repaired (records past the
        corruption are dropped, noted in ``repairs``) — sealed history
        stays intact, so recovery falls back to what checkpoints cover."""
        wal = SegmentedWAL(seg_dir, disk=disk, max_segment_records=3)
        records = _fill(wal, 5)  # sealed [0..3), active [3..5)
        active = os.path.join(seg_dir, wal._entries[-1]["file"])
        wal.close()
        # into the first active record's payload
        _overwrite(disk, active, 9, b"X")
        reopened = SegmentedWAL(seg_dir, disk=disk, max_segment_records=3)
        assert reopened.repairs
        assert list(reopened.records()) == records[:3]
        assert reopened.position() == 3

    def test_missing_newest_segment_recreated(self, seg_dir, disk):
        wal = SegmentedWAL(seg_dir, disk=disk, max_segment_records=3)
        records = _fill(wal, 5)
        active = os.path.join(seg_dir, wal._entries[-1]["file"])
        wal.close()
        disk.unlink(active)
        reopened = SegmentedWAL(seg_dir, disk=disk, max_segment_records=3)
        assert reopened.repairs
        assert list(reopened.records()) == records[:3]
        more = _fill(reopened, 2, start=5)
        assert list(reopened.records()) == records[:3] + more

    def test_corrupt_sealed_segment_raises(self, seg_dir, disk):
        wal = SegmentedWAL(seg_dir, disk=disk, max_segment_records=3)
        _fill(wal, 5)
        sealed = os.path.join(seg_dir, wal._entries[0]["file"])
        wal.close()
        _overwrite(disk, sealed, 9, b"X")
        with pytest.raises(CorruptLogError):
            SegmentedWAL(seg_dir, disk=disk, max_segment_records=3)

    def test_crash_during_fresh_init_reopens_empty(self, seg_dir, disk):
        """A crash between creating the first segment and writing the
        first manifest leaves a manifest-less directory holding an empty
        ``seg-00000001.wal``; the next open finishes the init."""
        disk.makedirs(seg_dir)
        _write_bytes(disk, os.path.join(seg_dir, "seg-00000001.wal"), b"")
        wal = SegmentedWAL(seg_dir, disk=disk)
        assert wal.position() == 0 and not wal.repairs
        assert disk.exists(os.path.join(seg_dir, MANIFEST_NAME))
        records = _fill(wal, 2)
        wal.close()
        assert list(SegmentedWAL(seg_dir, disk=disk).records()) == records

    def test_manifest_without_a_live_segment_is_a_typed_error(self, seg_dir,
                                                              disk):
        """Every manifest this WAL writes lists an active segment; one
        that does not is damage, not something to paper over."""
        wal = SegmentedWAL(seg_dir, disk=disk, max_segment_records=2,
                           retain_truncated=True)
        _fill(wal, 4)
        wal.truncate_through(4)
        wal.close()
        path = os.path.join(seg_dir, MANIFEST_NAME)
        manifest = codec.decode(disk.read(path))
        manifest["segments"] = [entry for entry in manifest["segments"]
                                if entry.get("retired")]
        assert manifest["segments"]
        _write_bytes(disk, path, codec.encode(manifest))
        with pytest.raises(CorruptLogError, match="no live segment"):
            SegmentedWAL(seg_dir, disk=disk, retain_truncated=True)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.differing_executors])
    @given(
        count=st.integers(min_value=0, max_value=20),
        threshold=st.integers(min_value=1, max_value=7),
        cut=st.integers(min_value=0, max_value=25),
    )
    def test_truncation_position_property(self, tmp_path_factory, count,
                                          threshold, cut):
        """For any segment layout and truncation point, the surviving
        records are exactly the suffix past the last covered segment."""
        directory = str(tmp_path_factory.mktemp("seg") / "wal")
        disk = self.make_disk()
        wal = SegmentedWAL(directory, disk=disk,
                           max_segment_records=threshold)
        records = _fill(wal, count)
        wal.truncate_through(cut)
        base = wal.base_position()
        assert base <= max(cut, 0)  # never drop past the checkpoint
        assert list(wal.records()) == records[base:]
        assert wal.position() == count
        wal.close()
        reopened = SegmentedWAL(directory, disk=disk,
                                max_segment_records=threshold)
        assert list(reopened.records()) == records[base:]


class TestSegmentedWALOnMemoryDisk(TestSegmentedWAL):
    """The same lifecycle — manifest windows, orphan cleanup, sealed
    segment corruption — on a memory disk."""

    make_disk = MemoryDisk


class TestOneFrameWriter:
    """``append(p)``, ``append_many([p])`` and one ``append_many`` of the
    whole list are one writer: the same segment files and manifests,
    across rotations and when a record is torn at the same fraction."""

    @pytest.mark.parametrize("torn_at", [None, 2, 5])
    def test_every_slicing_leaves_identical_files(self, tmp_path, torn_at):
        payloads = [f"record-{i}".encode() * (i + 1) for i in range(7)]
        actions = [] if torn_at is None else [FaultAction(
            "wal.append", "torn", at_hit=torn_at, torn_fraction=0.4)]
        writers = {
            "append": lambda wal: [wal.append(p) for p in payloads],
            "slices_of_one":
                lambda wal: [wal.append_many([p]) for p in payloads],
            "one_slice": lambda wal: wal.append_many(payloads),
        }
        left = {}
        for form, write in writers.items():
            directory = str(tmp_path / form)
            wal = SegmentedWAL(directory, max_segment_records=3)
            with installed(FaultInjector(actions)):
                try:
                    write(wal)
                    wal.sync()
                except InjectedCrash:
                    assert torn_at is not None
            wal.close()
            left[form] = {
                name: open(os.path.join(directory, name), "rb").read()
                for name in sorted(os.listdir(directory))}
            survived = len(payloads) if torn_at is None else torn_at - 1
            reopened = SegmentedWAL(directory)
            assert list(reopened.records()) == payloads[:survived]
            reopened.close()
        assert left["append"] == left["slices_of_one"] == left["one_slice"]
        # a rotation was crossed unless the tear came first
        assert len(left["append"]) == {None: 4, 2: 2, 5: 3}[torn_at]


class TestMemoryWAL:
    """The log of an in-memory store — a :class:`SegmentedWAL` on a
    :class:`MemoryDisk` — across a crash: reopened on ``crashed()``."""

    @staticmethod
    def _open(**options):
        disk = MemoryDisk()
        return disk, SegmentedWAL("wal", disk=disk, **options)

    def test_append_and_read(self):
        _, wal = self._open()
        wal.append(b"a")
        wal.append(b"b")
        assert list(wal.records()) == [b"a", b"b"]

    def test_crash_loses_unsynced_tail(self):
        disk, wal = self._open()
        wal.append(b"durable")
        wal.sync()
        wal.append(b"lost")
        survivor = SegmentedWAL("wal", disk=disk.crashed())
        assert list(survivor.records()) == [b"durable"]
        assert list(wal.records()) == [b"durable", b"lost"]

    def test_crash_with_everything_synced(self):
        disk, wal = self._open()
        wal.append(b"a")
        wal.sync()
        survivor = SegmentedWAL("wal", disk=disk.crashed())
        assert list(survivor.records()) == [b"a"]

    def test_crash_of_empty_log(self):
        disk, _ = self._open()
        survivor = SegmentedWAL("wal", disk=disk.crashed())
        assert list(survivor.records()) == [] and not survivor.repairs

    def test_positions_and_suffix_reads(self):
        _, wal = self._open()
        records = [f"r{i}".encode() for i in range(5)]
        for record in records:
            wal.append(record)
        wal.sync()
        assert wal.position() == 5
        assert wal.base_position() == 0
        assert list(wal.records_from(3)) == records[3:]

    def test_retained_history_full_replay(self):
        _, wal = self._open(max_segment_records=2, retain_truncated=True)
        records = _fill(wal, 4)
        wal.truncate_through(2)
        assert wal.history_complete()
        assert list(wal.full_records()) == records
        assert list(wal.records()) == records[2:]

    def test_unretained_history_refuses_full_replay(self):
        _, wal = self._open(max_segment_records=1)
        _fill(wal, 2)
        wal.truncate_through(1)
        assert not wal.history_complete()
        with pytest.raises(CorruptLogError):
            list(wal.full_records())

    def test_crash_preserves_positions_and_history(self):
        disk, wal = self._open(max_segment_records=2, retain_truncated=True)
        records = _fill(wal, 4)
        wal.truncate_through(2)
        wal.append(b"lost")  # unsynced
        survivor = SegmentedWAL("wal", disk=disk.crashed(),
                                retain_truncated=True)
        assert survivor.base_position() == 2
        assert survivor.position() == 4
        assert list(survivor.full_records()) == records

    def test_rotation_counter_fires_store_rotate(self):
        _, wal = self._open(max_segment_records=3)
        injector = FaultInjector([])
        with installed(injector):
            for _ in range(7):
                wal.append(b"x")
        assert injector.hits.get("store.rotate") == 2
