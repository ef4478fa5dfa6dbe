"""KV store: durability, transactions, snapshots, bounded recovery."""

import os
import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CodecError, CorruptLogError, StoreError
from repro.faults.plan import FaultAction
from repro.faults.points import FaultInjector, InjectedCrash, installed
from repro.store import KVStore
from repro.store import codec
from repro.store.disk import OSDisk
from repro.store.snapshot import FileSnapshot
from repro.store.wal import MANIFEST_NAME


class TestBasicOps:
    def test_put_get(self):
        store = KVStore()
        store.put("k", {"v": 1})
        assert store.get("k") == {"v": 1}

    def test_get_default(self):
        assert KVStore().get("missing", 42) == 42

    def test_delete(self):
        store = KVStore()
        store.put("k", 1)
        store.delete("k")
        assert "k" not in store

    def test_delete_missing_is_noop(self):
        KVStore().delete("never-there")

    def test_overwrite(self):
        store = KVStore()
        store.put("k", 1)
        store.put("k", 2)
        assert store.get("k") == 2

    def test_len(self):
        store = KVStore()
        store.put("a", 1)
        store.put("b", 2)
        assert len(store) == 2

    def test_keys_sorted_with_prefix(self):
        store = KVStore()
        for key in ("b/2", "a/1", "b/1"):
            store.put(key, key)
        assert store.keys("b/") == ["b/1", "b/2"]
        assert store.keys() == ["a/1", "b/1", "b/2"]

    def test_items_prefix_scan(self):
        store = KVStore()
        store.put("x/1", 10)
        store.put("y/1", 20)
        assert dict(store.items("x/")) == {"x/1": 10}


class TestTransactions:
    def test_commit_applies_all(self):
        store = KVStore()
        with store.transaction() as txn:
            txn.put("a", 1)
            txn.put("b", 2)
        assert store.get("a") == 1 and store.get("b") == 2

    def test_abort_applies_nothing(self):
        store = KVStore()
        txn = store.transaction()
        txn.put("a", 1)
        txn.abort()
        assert "a" not in store

    def test_exception_rolls_back(self):
        store = KVStore()
        with pytest.raises(RuntimeError):
            with store.transaction() as txn:
                txn.put("a", 1)
                raise RuntimeError("boom")
        assert "a" not in store

    def test_double_commit_rejected(self):
        store = KVStore()
        txn = store.transaction()
        txn.put("a", 1)
        txn.commit()
        with pytest.raises(StoreError):
            txn.commit()

    def test_transaction_is_single_wal_record(self):
        store = KVStore()
        with store.transaction() as txn:
            txn.put("a", 1)
            txn.put("b", 2)
            txn.delete("a")
        assert store.wal_records == 1
        assert "a" not in store and store.get("b") == 2

    def test_empty_transaction_writes_nothing(self):
        store = KVStore()
        with store.transaction():
            pass
        assert store.wal_records == 0


class TestTransactionRetry:
    def test_failing_commit_leaves_transaction_retryable(self):
        """Regression: a commit that dies inside the store must NOT mark
        the transaction done — the caller may retry it once the fault
        clears, and only a *successful* commit finishes the transaction."""
        kv = KVStore()
        txn = kv.transaction()
        txn.put("k", 42)
        with installed(FaultInjector([FaultAction("wal.append", "crash")])):
            with pytest.raises(InjectedCrash):
                txn.commit()
        # the fault cleared; the same transaction commits cleanly
        txn.commit()
        assert kv.get("k") == 42
        with pytest.raises(StoreError):
            txn.commit()  # now it IS done

    def test_failing_commit_through_context_manager(self):
        kv = KVStore()
        with installed(FaultInjector([FaultAction("wal.append", "crash")])):
            with pytest.raises(InjectedCrash):
                with kv.transaction() as txn:
                    txn.put("k", 1)
        # the crash propagated and nothing was applied
        assert kv.get("k") is None


class TestDurability:
    def test_disk_recovery(self, tmp_path):
        path = str(tmp_path / "db")
        store = KVStore(path)
        store.put("k", [1, 2, 3])
        store.delete("gone")
        store.close()
        recovered = KVStore(path)
        assert recovered.get("k") == [1, 2, 3]

    def test_simulate_crash_on_disk_store_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            KVStore(str(tmp_path / "db")).simulate_crash()

    def test_checkpoint_compacts_wal(self, tmp_path):
        path = str(tmp_path / "db")
        store = KVStore(path)
        for i in range(20):
            store.put(f"k{i}", i)
        assert store.wal_records == 20
        store.checkpoint()
        assert store.wal_records == 0
        store.put("after", 1)
        store.close()
        recovered = KVStore(path)
        assert recovered.get("k7") == 7
        assert recovered.get("after") == 1

    def test_every_commit_syncs_once(self):
        kv = KVStore()
        syncs = []
        wal_sync = kv._wal.sync
        kv._wal.sync = lambda: (syncs.append(kv.wal_records), wal_sync())
        kv.put("a", 1)
        with kv.transaction() as txn:
            txn.put("b", 2)
            txn.delete("a")
        assert syncs == [1, 2]

    def test_memory_crash_preserves_synced_state(self):
        store = KVStore()
        store.put("durable", 1)  # put() syncs
        survivor = store.simulate_crash()
        assert survivor.get("durable") == 1

    def test_crash_after_checkpoint(self):
        store = KVStore()
        store.put("a", 1)
        store.checkpoint()
        store.put("b", 2)
        survivor = store.simulate_crash()
        assert survivor.get("a") == 1
        assert survivor.get("b") == 2


def _active_segment(path):
    """Path of the active (newest) WAL segment of an on-disk store."""
    with open(os.path.join(path, "wal", MANIFEST_NAME), "rb") as fh:
        manifest = codec.decode(fh.read())
    live = [e for e in manifest["segments"] if not e.get("retired")]
    return os.path.join(path, "wal", live[-1]["file"])


def _overwritten(store, keys=4, rounds=3):
    """Put ``keys`` keys ``rounds`` times: the chain is then mostly
    superseded, so the next checkpoint rewrites it."""
    for round_no in range(rounds):
        for i in range(keys):
            store.put(f"k{i}", [round_no, i])
    return {f"k{i}": [rounds - 1, i] for i in range(keys)}


class TestBoundedRecovery:
    def test_reopen_replays_the_chain_and_the_suffix(self, tmp_path):
        path = str(tmp_path / "db")
        store = KVStore(path)
        for i in range(10):
            store.put(f"k{i}", i)
        store.checkpoint()
        assert sorted(os.listdir(os.path.join(path, "wal"))) == [
            MANIFEST_NAME, "seg-00000001.wal", "seg-00000002.wal"]
        for i in range(4):
            store.put(f"after{i}", i)
        store.close()
        recovered = KVStore(path)
        assert recovered.last_recovery["checkpoint_position"] == 10
        assert recovered.last_recovery["records_replayed"] == 14
        assert recovered.last_recovery["wal_position"] == 14
        assert recovered.wal_records == 4
        assert dict(recovered.items()) == {
            **{f"k{i}": i for i in range(10)},
            **{f"after{i}": i for i in range(4)},
        }
        recovered.close()

    def test_a_checkpoint_encodes_nothing_until_a_rewrite(
            self, monkeypatch):
        """Extending the chain keeps the WAL's bytes: no encode, no
        decode, no snapshot; an append-only log never rewrites."""
        store = KVStore()
        for i in range(30):
            store.put(f"event/{i}", {"n": i})
            store.put("next", i + 1)        # superseded, but its records
            if i % 10 == 9:                 # stay live with their events
                encoded, decoded = [], []
                before = store._wal.checkpoint_position()
                encode, decode = codec.encode, codec.decode
                monkeypatch.setattr(codec, "encode", lambda value: (
                    encoded.append(value), encode(value))[1])
                monkeypatch.setattr(codec, "decode", lambda data: (
                    decoded.append(data), decode(data))[1])
                store.checkpoint()
                monkeypatch.undo()
                assert decoded == [] and store.wal_records == 0
                # the manifest only: the sealing, then the chain's
                assert [value["checkpoint"] for value in encoded] == [
                    before, store.wal_position]
        assert store._wal.base_path() is None
        assert store.simulate_crash().get("event/7") == {"n": 7}

    def test_replay_cost_flat_across_rewrites(self, tmp_path):
        """However long a run overwrites the same keys, a reopen replays
        a chain within twice the live state."""
        path = str(tmp_path / "db")
        store = KVStore(path, segment_records=8)
        replayed = []
        for round_no in range(12):
            for i in range(20):
                store.put(f"k{i}", [round_no, i])
            store.checkpoint()
            assert 2 * store._live.superseded <= store._live.total
            reopened = KVStore(path, segment_records=8)
            replayed.append(reopened.last_recovery["records_replayed"])
            assert reopened.get("k19") == [round_no, 19]
            assert reopened.audit() == []
            reopened.close()
        assert max(replayed) <= 41   # base + at most two rounds' records
        assert replayed[-4:] == replayed[-8:-4]
        store.close()

    def test_crash_with_the_chain_extended_but_not_named(self, tmp_path):
        """Window one: the records are sealed, the manifest still names
        the old chain. The reopen replays them past it; the next
        checkpoint finishes the job."""
        path = str(tmp_path / "db")
        store = KVStore(path, segment_records=4)
        for i in range(10):
            store.put(f"k{i}", i)
        action = FaultAction("store.checkpoint.chain-extended", "crash")
        with installed(FaultInjector([action])):
            with pytest.raises(InjectedCrash):
                store.checkpoint()
        store.close()
        recovered = KVStore(path, segment_records=4)
        assert recovered.last_recovery["checkpoint_position"] == 0
        assert recovered.last_recovery["records_replayed"] == 10
        assert dict(recovered.items()) == {f"k{i}": i for i in range(10)}
        assert recovered.audit() == []
        recovered.checkpoint()  # completes what the crash interrupted
        assert recovered.wal_records == 0
        recovered.close()

    def test_crash_with_the_rewrite_written_but_not_named(self, tmp_path):
        """Window two: the new base is durable under a name the manifest
        does not hold. The reopen removes it and replays the old chain."""
        path = str(tmp_path / "db")
        store = KVStore(path, segment_records=4)
        expected = _overwritten(store)
        action = FaultAction("store.checkpoint.rewrite-written", "crash")
        with installed(FaultInjector([action])):
            with pytest.raises(InjectedCrash):
                store.checkpoint()
        store.close()
        wal_dir = os.path.join(path, "wal")
        assert any(n.startswith("base-") for n in os.listdir(wal_dir))
        recovered = KVStore(path, segment_records=4)
        assert not any(n.startswith("base-") for n in os.listdir(wal_dir))
        assert recovered.last_recovery["records_replayed"] == 12
        assert dict(recovered.items()) == expected
        assert recovered.audit() == []
        recovered.checkpoint()
        assert recovered.last_recovery["records_replayed"] == 12
        assert recovered._wal.base_path() is not None
        recovered.close()

    def test_crash_mid_truncation_leaves_orphans_not_holes(self, tmp_path):
        """Window three: the manifest names the new base but the files it
        replaced were never unlinked. Reopen cleans the orphans; recovery
        state is identical."""
        path = str(tmp_path / "db")
        store = KVStore(path, segment_records=4)
        expected = _overwritten(store)
        action = FaultAction("store.checkpoint.manifest-switched", "crash")
        with installed(FaultInjector([action])):
            with pytest.raises(InjectedCrash):
                store.checkpoint()
        store.close()
        # the replaced segment files are still on disk (crash pre-unlink)
        wal_dir = os.path.join(path, "wal")
        before = {n for n in os.listdir(wal_dir) if n != MANIFEST_NAME}
        recovered = KVStore(path, segment_records=4)
        after = {n for n in os.listdir(wal_dir) if n != MANIFEST_NAME}
        assert after < before  # orphans removed on open
        assert sorted(n[:5] for n in after) == ["base-", "seg-0"]
        assert dict(recovered.items()) == expected
        assert recovered.last_recovery["records_replayed"] == 1
        assert recovered.wal_records == 0  # the rewrite effectively done
        assert recovered.audit() == []
        recovered.close()

    def test_corrupt_newest_segment_falls_back_to_checkpoint(self, tmp_path):
        path = str(tmp_path / "db")
        store = KVStore(path)
        for i in range(6):
            store.put(f"k{i}", i)
        store.checkpoint()
        for i in range(3):
            store.put(f"after{i}", i)
        store.close()
        active = _active_segment(path)
        with open(active, "r+b") as fh:
            fh.seek(9)  # into the first record's payload
            fh.write(b"X")
        recovered = KVStore(path)
        assert recovered.last_recovery["repairs"]
        assert dict(recovered.items()) == {f"k{i}": i for i in range(6)}
        assert recovered.audit() == []
        recovered.put("fresh", 1)
        assert recovered.get("fresh") == 1
        recovered.close()

    def test_missing_newest_segment_falls_back_to_checkpoint(self, tmp_path):
        path = str(tmp_path / "db")
        store = KVStore(path)
        for i in range(6):
            store.put(f"k{i}", i)
        store.checkpoint()
        store.put("after", 1)
        store.close()
        os.unlink(_active_segment(path))
        recovered = KVStore(path)
        assert recovered.last_recovery["repairs"]
        assert dict(recovered.items()) == {f"k{i}": i for i in range(6)}
        assert recovered.audit() == []
        recovered.close()

    @pytest.mark.parametrize("damage", ["unlink", "truncate"])
    def test_a_missing_or_damaged_base_is_a_typed_error(
            self, tmp_path, damage):
        """The manifest names the chain's base: without it (or with a
        torn one) the chain has a hole, never an empty prefix."""
        path = str(tmp_path / "db")
        store = KVStore(path)
        _overwritten(store)
        store.checkpoint()
        base = store._wal.base_path()
        store.close()
        if damage == "unlink":
            os.unlink(base)
        else:
            os.truncate(base, os.path.getsize(base) - 1)
        with pytest.raises(CorruptLogError, match="base is missing|damaged"):
            KVStore(path)

    def test_a_store_of_the_old_format_has_no_reader(self, tmp_path):
        path = str(tmp_path / "db")
        KVStore(path).close()
        manifest = os.path.join(path, "wal", MANIFEST_NAME)
        with open(manifest, "rb") as fh:
            content = codec.decode(fh.read())
        content["format"] = 1
        with open(manifest, "wb") as fh:
            fh.write(codec.encode(content))
        with pytest.raises(CorruptLogError, match="unknown manifest format"):
            KVStore(path)

    @pytest.mark.parametrize("option", [
        {"sync_interval": 0.05}, {"clock": lambda: 0.0},
        {"segment_bytes": 1 << 20},
    ])
    def test_removed_options_are_rejected_not_ignored(self, option):
        """``OperaStore`` forwards ``**kv_options``: a configuration that
        still names a removed knob must fail loudly."""
        with pytest.raises(TypeError):
            KVStore(**option)

    def test_audit_reports_an_uninterpretable_record_as_replay_failure(
            self):
        """audit() replays with the same interpreter recovery uses, so a
        record recovery would refuse is a reported failure, not a skip."""
        store = KVStore()
        store.put("a", 1)
        store._wal.append(codec.encode([["frobnicate", "a"], [None]]))
        store._wal.sync()
        problems = store.audit()
        assert len(problems) == 1
        assert "unknown WAL op 'frobnicate'" in problems[0]
        with pytest.raises(StoreError, match="frobnicate"):
            store.simulate_crash()

    def test_audit_reports_a_base_damaged_under_a_live_store(
            self, tmp_path):
        path = str(tmp_path / "db")
        store = KVStore(path)
        _overwritten(store)
        store.checkpoint()
        os.truncate(store._wal.base_path(), 3)
        problems = store.audit()
        assert any("CorruptLogError" in problem for problem in problems)
        store.close()

    def test_retained_history_audit_checks_byte_equivalence(self):
        store = KVStore(retain_history=True)
        _overwritten(store, keys=1)
        store.checkpoint()
        assert store._wal.base_path() is not None
        assert store.audit() == []
        # tamper with retained history: the full-log replay now disagrees
        # with the chain+suffix reconstruction
        retired = os.path.join(store._wal.directory,
                               store._wal._retired[0]["file"])
        frames = b"".join(
            struct.pack("<II", len(p), zlib.crc32(p)) + p
            for p in (codec.encode([["put", "evil"], [9]]),
                      codec.encode([["put", "k0"], [[1, 0]]]),
                      codec.encode([["put", "k0"], [[2, 0]]])))
        with store._disk.open(retired, "wb") as fh:
            fh.write(frames)
        problems = store.audit()
        assert any("byte-identical" in problem for problem in problems)

    def test_audit_catches_a_rewrite_that_drops_a_live_key(
            self, monkeypatch):
        """A planted violation: the rewrite loses ``k2``. The live state
        still holds it, so chain + suffix replay no longer equals it, nor
        the retained full log."""
        store = KVStore(retain_history=True)
        expected = _overwritten(store)
        save = FileSnapshot.save

        def lossy(snapshot, state):
            return save(snapshot, {k: v for k, v in state.items()
                                   if k != "k2"})

        monkeypatch.setattr(FileSnapshot, "save", lossy)
        store.checkpoint()
        assert dict(store.items()) == expected
        problems = store.audit()
        assert any("missing=['k2']" in problem for problem in problems)
        assert any("byte-identical" in problem for problem in problems)


class _Decodes:
    """Counts ``codec.decode`` calls and keeps the heads of every WAL
    record it decoded (a record decodes to ``[heads, values]``)."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.records = []
        decode = codec.decode

        def counted(data):
            self.calls += 1
            value = decode(data)
            if isinstance(value, list):
                self.records.append(value[0])
            return value

        monkeypatch.setattr(codec, "decode", counted)


def _crashed_with(*payloads):
    """A memory store holding ``a`` and then the hand-written records."""
    store = KVStore()
    store.put("a", 1)
    for payload in payloads:
        store._wal.append(payload)
    store._wal.sync()
    return store


class TestRecordShape:
    def test_a_record_is_heads_then_values(self):
        store = KVStore()
        with store.transaction() as txn:
            txn.put("a", {"x": 1})
            txn.delete("b")
            txn.put("c", [2])
        store.put("d", 3)
        assert list(store._wal.records()) == [
            b'[["put","a","del","b","put","c"],[{"x":1},null,[2]]]',
            b'[["put","d"],[3]]',
        ]

    def test_record_bytes_are_pinned(self):
        """ASCII escapes, float repr and key order of a committed record."""
        store = KVStore()
        store.put("run/zürich", {
            "site": "Zürich", "score": 3.7305166412960014, "big": 1e16,
            "zero": -0.0, "pairs": ((1, 2), (3, (4.5,))),
        })
        assert list(store._wal.records()) == [
            b'[["put","run/z\\u00fcrich"],[{"big":1e+16,'
            b'"pairs":[[1,2],[3,[4.5]]],"score":3.7305166412960014,'
            b'"site":"Z\\u00fcrich","zero":-0.0}]]',
        ]

    def test_reopen_decodes_no_value(self, tmp_path, monkeypatch):
        """Opening a store of N commits decodes its manifest and nothing
        else, whatever N; so does opening a crashed memory store."""
        for commits in (10, 60):
            path = str(tmp_path / f"db{commits}")
            store = KVStore(path, segment_records=16)
            for i in range(commits):
                with store.transaction() as txn:
                    txn.put(f"k{i}", [i])
                    txn.put("count", i)
            store.close()
            decodes = _Decodes(monkeypatch)
            reopened = KVStore(path, segment_records=16)
            assert (decodes.calls, decodes.records) == (1, [])  # MANIFEST
            assert len(reopened) == reopened.last_recovery[
                "records_replayed"] + 1
            assert "k3" in reopened and reopened.keys("k9") == ["k9"]
            assert decodes.calls == 1
            reopened.close()
            monkeypatch.undo()
        memory = KVStore()
        for i in range(20):
            memory.put(f"k{i}", i)
        decodes = _Decodes(monkeypatch)
        survivor = memory.simulate_crash()
        assert len(survivor) == 20
        assert (decodes.calls, decodes.records) == (1, [])  # MANIFEST

    def test_two_keys_of_one_record_decode_it_once(self, monkeypatch):
        store = KVStore()
        with store.transaction() as txn:
            txn.put("a", {"v": 1})
            txn.put("b", [2])
            txn.put("c", 3)
        store.put("c", 4)
        survivor = store.simulate_crash()
        decodes = _Decodes(monkeypatch)
        first = survivor.get("a")
        assert first == {"v": 1} and decodes.calls == 1
        assert dict(survivor.items()) == {"a": {"v": 1}, "b": [2], "c": 4}
        assert survivor.get("a") is first and survivor.get("b") == [2]
        assert decodes.records == [["put", "a", "put", "b", "put", "c"],
                                   ["put", "c"]]

    def test_a_key_written_over_while_waiting_keeps_its_new_value(self):
        store = KVStore()
        with store.transaction() as txn:
            txn.put("a", 1)
            txn.put("b", 2)
            txn.put("a", 3)
        survivor = store.simulate_crash()
        survivor.put("b", "new")
        survivor.delete("a")
        assert (survivor.get("a"), survivor.get("b")) == (None, "new")
        again = survivor.simulate_crash()
        assert dict(again.items()) == {"b": "new"}
        assert again.audit() == []

    def test_a_bytes_default_is_returned_not_decoded(self):
        assert KVStore().get("missing", b"raw") == b"raw"

    def test_each_live_segment_is_read_and_scanned_once_per_open(
            self, tmp_path, monkeypatch):
        from repro.store import wal as wal_module
        path = str(tmp_path / "db")
        store = KVStore(path, segment_records=4)
        for i in range(18):
            store.put(f"k{i}", i)
        store.close()
        scans, reads = [], []
        scan = wal_module.scan

        def counted_scan(data):
            scans.append(len(data))
            return scan(data)

        read = OSDisk.read

        def counted_read(disk, file):
            if file.endswith(".wal"):
                reads.append(os.path.basename(file))
            return read(disk, file)

        monkeypatch.setattr(wal_module, "scan", counted_scan)
        monkeypatch.setattr(OSDisk, "read", counted_read)
        reopened = KVStore(path, segment_records=4)
        segments = reopened.last_recovery["segments"]
        assert segments == 5
        assert len(scans) == segments
        assert sorted(reads) == sorted(set(reads)) and len(reads) == segments
        assert dict(reopened.items()) == {f"k{i}": i for i in range(18)}
        # nothing is kept after the replay: a second read goes to disk
        assert reopened._wal._opened == {}
        assert len(list(reopened._wal.records_from(0))) == 18
        assert len(scans) == 2 * segments
        reopened.close()


class TestTypedRecordErrors:
    """A record the store cannot interpret is a typed error: at open
    when its head is wrong, on first read of one of its keys when its
    values are — and ``audit()`` reports either as a replay failure."""

    @pytest.mark.parametrize("payload, message", [
        (b'{"put":"b"}', "undecodable record head"),
        (b'[["put","b"', "undecodable record head"),
        (b"\xff", "undecodable record head"),
        (codec.encode([{"put": "b"}, [1]]), "not a list of op,key pairs"),
        (codec.encode([["put", "b", "put"], [1, 2]]),
         "not a list of op,key pairs"),
        (codec.encode([["put", 7], [1]]), "key 7 is not a string"),
        (codec.encode([["put", ["b"]], [1]]), "is not a string"),
    ])
    def test_a_bad_head_fails_the_open(self, payload, message):
        store = _crashed_with(payload)
        with pytest.raises(CodecError, match=message):
            store.simulate_crash()
        problems = store.audit()
        assert len(problems) == 1
        assert problems[0].startswith("WAL replay failed: CodecError")

    @pytest.mark.parametrize("payload, message", [
        (b'[["put","b","put","c"],[1,oops]]', "undecodable record"),
        (codec.encode([["put", "b"], [1], [2]]), "too many values"),
        (codec.encode([["put", "b"]]), "not enough values"),
        (codec.encode([["put", "b", "put", "c"], [1]]), "not one value per"),
        (codec.encode([["put", "b"], 5]), "not one value per op"),
    ])
    def test_bad_values_fail_the_first_read_naming_the_key(self, payload,
                                                           message):
        survivor = _crashed_with(payload).simulate_crash()
        assert "b" in survivor and survivor.get("a") == 1
        with pytest.raises(CodecError, match=f"holding 'b': {message}"):
            survivor.get("b")
        with pytest.raises(CodecError, match="holding 'b'"):
            dict(survivor.items("b"))
        problems = survivor.audit()
        assert len(problems) == 1
        assert problems[0].startswith("WAL replay failed: CodecError")
        # a checkpoint keeps the record as written, decoding nothing
        survivor.checkpoint()
        with pytest.raises(CodecError, match="holding 'b'"):
            survivor.simulate_crash().get("b")


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "delete"]),
            st.text(alphabet="abcde", min_size=1, max_size=3),
            st.integers(min_value=0, max_value=99),
        ),
        max_size=30,
    ))
    def test_disk_recovery_equals_dict_semantics(self, tmp_path_factory, ops):
        """The store recovered from disk matches a plain dict replay."""
        path = str(tmp_path_factory.mktemp("kv") / "db")
        store = KVStore(path)
        model = {}
        for op, key, value in ops:
            if op == "put":
                store.put(key, value)
                model[key] = value
            else:
                store.delete(key)
                model.pop(key, None)
        store.close()
        recovered = KVStore(path)
        assert dict(recovered.items()) == model
        recovered.close()
