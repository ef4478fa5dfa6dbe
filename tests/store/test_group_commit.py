"""Group commit: coalesced write+fsync, sync policies, crash windows.

The durability contract under a grouped sync policy is deliberately
weaker per commit and is pinned here: a commit is *acked* once a flush
covering it completes (explicit :meth:`KVStore.flush`, a full buffer, a
checkpoint, or a clean close). A crash loses exactly
the unacked buffer — never an acked commit, and never a *prefix-torn*
batch: the ``store.group_commit.pre_sync`` window fires before the
coalesced append, so a crash there leaves nothing of the batch behind.
"""

import pytest

from repro.errors import StoreError
from repro.faults.plan import FaultAction
from repro.faults.points import FaultInjector, InjectedCrash, installed
from repro.store import KVStore


def _group_store(**kwargs):
    kwargs.setdefault("sync_policy", "group")
    kwargs.setdefault("group_max_pending", 64)
    return KVStore(**kwargs)


class TestSyncPolicies:
    @pytest.mark.parametrize("policy", ["eventually", "interval"])
    def test_unknown_policy_rejected(self, policy):
        with pytest.raises(StoreError):
            KVStore(sync_policy=policy)

    def test_per_commit_syncs_every_commit(self):
        kv = KVStore()  # default policy
        kv.put("a", 1)
        kv.put("b", 2)
        assert kv.pending_commits == 0
        assert kv.stats["syncs"] == 2

    def test_group_buffers_until_flush(self):
        kv = _group_store()
        kv.put("a", 1)
        kv.put("b", 2)
        # reads see the buffered state immediately...
        assert kv.get("b") == 2
        # ...but nothing reached the WAL yet
        assert kv.pending_commits == 2
        assert kv.wal_records == 0
        assert kv.stats["syncs"] == 0
        assert kv.flush() == 2
        assert kv.pending_commits == 0
        assert kv.wal_records == 2
        assert kv.stats["group_flushes"] == 1
        assert kv.stats["flushed_commits"] == 2
        assert kv.stats["max_group"] == 2

    def test_flush_on_empty_buffer_is_noop(self):
        kv = _group_store()
        assert kv.flush() == 0
        assert kv.stats["syncs"] == 0

    def test_full_buffer_flushes_itself(self):
        kv = _group_store(group_max_pending=3)
        kv.put("a", 1)
        kv.put("b", 2)
        assert kv.pending_commits == 2
        kv.put("c", 3)  # third commit fills the buffer
        assert kv.pending_commits == 0
        assert kv.wal_records == 3


class TestDurabilityBoundary:
    def test_unacked_commits_lost_acked_survive(self):
        kv = _group_store()
        kv.put("acked", 1)
        kv.flush()
        kv.put("unacked", 2)
        survivor = kv.simulate_crash()
        assert survivor.get("acked") == 1
        assert survivor.get("unacked") is None
        assert survivor.audit() == []

    def test_checkpoint_acks_pending(self):
        kv = _group_store(retain_history=True)
        kv.put("a", 1)
        kv.put("b", 2)
        kv.checkpoint()
        assert kv.pending_commits == 0
        survivor = kv.simulate_crash()
        assert survivor.get("a") == 1 and survivor.get("b") == 2
        assert survivor.audit() == []

    def test_audit_clean_with_pending_commits(self):
        kv = _group_store(retain_history=True)
        kv.put("a", 1)
        kv.checkpoint()
        kv.put("b", 2)  # buffered, not yet in any log
        assert kv.pending_commits == 1
        assert kv.audit() == []

    def test_close_flushes_graceful_shutdown_loses_nothing(self, tmp_path):
        path = str(tmp_path / "store")
        kv = KVStore(path, sync_policy="group")
        kv.put("a", 1)
        kv.close()
        reopened = KVStore(path)
        assert reopened.get("a") == 1
        reopened.close()

    def test_transaction_is_one_buffered_commit(self):
        kv = _group_store()
        with kv.transaction() as txn:
            for i in range(5):
                txn.put(f"k{i}", i)
        assert kv.pending_commits == 1
        kv.flush()
        assert kv.wal_records == 1


class TestCrashWindows:
    def test_pre_sync_crash_loses_whole_batch(self):
        kv = _group_store()
        kv.put("acked", 1)
        kv.flush()
        kv.put("p1", 1)
        kv.put("p2", 2)
        action = FaultAction("store.group_commit.pre_sync", "crash")
        with installed(FaultInjector([action])):
            with pytest.raises(InjectedCrash) as err:
                kv.flush()
        assert err.value.point == "store.group_commit.pre_sync"
        survivor = kv.simulate_crash()
        assert survivor.get("acked") == 1
        assert survivor.get("p1") is None
        assert survivor.get("p2") is None

    def test_post_sync_crash_keeps_whole_batch(self):
        kv = _group_store()
        kv.put("p1", 1)
        kv.put("p2", 2)
        action = FaultAction("store.group_commit.post_sync", "crash")
        with installed(FaultInjector([action])):
            with pytest.raises(InjectedCrash):
                kv.flush()
        survivor = kv.simulate_crash()
        assert survivor.get("p1") == 1
        assert survivor.get("p2") == 2

    def test_pre_sync_crash_on_disk_leaves_no_partial_batch(self, tmp_path):
        path = str(tmp_path / "store")
        kv = KVStore(path, sync_policy="group")
        kv.put("acked", 1)
        kv.flush()
        kv.put("p1", 1)
        kv.put("p2", 2)
        action = FaultAction("store.group_commit.pre_sync", "crash")
        with installed(FaultInjector([action])):
            with pytest.raises(InjectedCrash):
                kv.flush()
        # reopen the directory cold — close() would flush and defeat the
        # point, so the dead store is simply abandoned
        reopened = KVStore(path)
        assert reopened.get("acked") == 1
        assert reopened.get("p1") is None
        assert reopened.get("p2") is None
        reopened.close()

    def test_post_sync_crash_on_disk_keeps_batch(self, tmp_path):
        path = str(tmp_path / "store")
        kv = KVStore(path, sync_policy="group")
        kv.put("p1", 1)
        kv.put("p2", 2)
        action = FaultAction("store.group_commit.post_sync", "crash")
        with installed(FaultInjector([action])):
            with pytest.raises(InjectedCrash):
                kv.flush()
        reopened = KVStore(path)
        assert reopened.get("p1") == 1
        assert reopened.get("p2") == 2
        reopened.close()

    def test_auto_flush_passes_through_crash_windows(self):
        """The windows guard every flush, not just explicit ones."""
        kv = _group_store(group_max_pending=2)
        action = FaultAction("store.group_commit.pre_sync", "crash")
        with installed(FaultInjector([action])):
            kv.put("a", 1)
            with pytest.raises(InjectedCrash):
                kv.put("b", 2)  # fills the buffer -> auto-flush -> crash

    def test_batch_spanning_segment_rotation_survives(self, tmp_path):
        """A coalesced append bigger than a segment rotates mid-batch;
        every record still lands durably and reopen replays them all."""
        path = str(tmp_path / "store")
        kv = KVStore(path, sync_policy="group", segment_records=3)
        for i in range(8):
            kv.put(f"k{i}", i)
        kv.flush()
        reopened = KVStore(path, segment_records=3)
        assert {k: reopened.get(k) for k in reopened.keys()} \
            == {f"k{i}": i for i in range(8)}
        reopened.close()


class TestTransactionRetry:
    def test_failing_commit_leaves_transaction_retryable(self):
        """Regression: a commit that dies inside the store must NOT mark
        the transaction done — the caller may retry it once the fault
        clears, and only a *successful* commit finishes the transaction."""
        kv = KVStore()  # per-commit: commit hits wal.append directly
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
