"""KVStore against a dict model: a hypothesis state machine.

Every rule mutates or recovers the store and the model alike; after every
step each read the store offers (``get``, ``items(prefix)``, ``keys``,
``len``, ``in``) must equal the model, ``audit()`` must find nothing, and
repeated ``get``s must hand out the same object. A checkpoint's snapshot
must be the canonical encoding of the model state. Every commit is
durable when it returns, so after every step the store a crash would
leave (``simulate_crash`` in memory, a fresh open of the directory on
disk) must equal the model too.
"""

import os
import shutil
import tempfile

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.store import KVStore, codec
from repro.store.kvstore import MEMORY

KEYS = st.sampled_from(["a/1", "a/2", "a/3", "b/1", "b/2", "c"])
PREFIXES = ("", "a/", "b/", "c", "z")
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-9, 9) | st.text("xy", max_size=2),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text("pq", max_size=1), inner, max_size=2),
    max_leaves=4,
)
OPS = st.lists(
    st.tuples(st.sampled_from(["put", "del"]), KEYS, VALUES), max_size=4)


class KVStoreMachine(RuleBasedStateMachine):
    """One store, memory or on disk."""

    def __init__(self):
        super().__init__()
        self.store = None
        self.directory = None
        self.model = {}     # what the store, live or crashed, must show

    @initialize(on_disk=st.booleans(),
                segment_records=st.integers(2, 4),
                retain_history=st.booleans())
    def open_store(self, on_disk, segment_records, retain_history):
        self.options = dict(segment_records=segment_records,
                            retain_history=retain_history)
        if on_disk:
            self.directory = tempfile.mkdtemp(prefix="kvmodel-")
        self.store = KVStore(self._path(), **self.options)

    def _path(self):
        if self.directory is None:
            return MEMORY
        return os.path.join(self.directory, "db")

    def _committed(self, ops):
        """Apply one committed batch to the model."""
        for op, key, value in ops:
            if op == "put":
                self.model[key] = value
            else:
                self.model.pop(key, None)

    # -- mutations -------------------------------------------------------------

    @rule(key=KEYS, value=VALUES)
    def put(self, key, value):
        self.store.put(key, value)
        self._committed([("put", key, value)])

    @rule(key=KEYS)
    def delete(self, key):
        self.store.delete(key)
        self._committed([("del", key, None)])

    @rule(ops=OPS)
    def transaction(self, ops):
        with self.store.transaction() as txn:
            for op, key, value in ops:
                if op == "put":
                    txn.put(key, value)
                else:
                    txn.delete(key)
        self._committed(ops)

    @rule(key=KEYS, value=VALUES, delete_first=st.booleans())
    def put_and_delete_one_key(self, key, value, delete_first):
        ops = [("put", key, value), ("del", key, None)]
        if delete_first:
            ops.reverse()
        self.transaction(ops)

    @rule()
    def checkpoint(self):
        self.store.checkpoint()
        expected = codec.encode({"__kv_checkpoint__": 1,
                                 "position": self.store.wal_position,
                                 "state": self.model})
        assert self._snapshot_bytes() == expected

    def _snapshot_bytes(self):
        return self.store._disk.read(self.store._snapshot.path)

    # -- recovery --------------------------------------------------------------

    @precondition(lambda self: self.directory is None)
    @rule()
    def crash(self):
        self.store = self.store.simulate_crash()

    @precondition(lambda self: self.directory is not None)
    @rule()
    def reopen(self):
        self.store.close()
        self.store = KVStore(self._path(), **self.options)

    @rule(ops=OPS, then_checkpoint=st.booleans())
    def recover_then_write_before_reading(self, ops, then_checkpoint):
        """The reads in the invariant decode everything; this writes over
        (and checkpoints) values that are still waiting to be decoded."""
        if self.directory is None:
            self.crash()
        else:
            self.reopen()
        self.transaction(ops)
        if then_checkpoint:
            self.checkpoint()

    # -- the model -------------------------------------------------------------

    @invariant()
    def reads_equal_the_model(self):
        if self.store is not None:
            self._check_reads(self.store)

    @invariant()
    def crashed_store_equals_the_model(self):
        """Nothing a commit returned from is lost: the store a crash
        would leave right now shows the model too."""
        if self.store is None:
            return
        if self.directory is None:
            self._check_reads(self.store.simulate_crash())
            return
        survivor = KVStore(self._path(), **self.options)
        try:
            self._check_reads(survivor)
        finally:
            survivor.close()

    def _check_reads(self, store):
        model = self.model
        # the reads that never decode first, while values still wait
        assert len(store) == len(model)
        for prefix in PREFIXES:
            assert store.keys(prefix) == sorted(
                key for key in model if key.startswith(prefix))
        for key in ["a/1", "a/2", "a/3", "b/1", "b/2", "c", "zz"]:
            assert (key in store) == (key in model)
        assert list(store.items("a/")) == sorted(
            ((key, value) for key, value in model.items()
             if key.startswith("a/")), key=lambda item: item[0])
        for key, value in model.items():
            first = store.get(key)
            assert first == value
            assert store.get(key) is first
        assert store.get("zz", "absent") == "absent"
        for prefix in PREFIXES:
            assert list(store.items(prefix)) == sorted(
                ((key, value) for key, value in model.items()
                 if key.startswith(prefix)), key=lambda item: item[0])
        assert store.audit() == []

    def teardown(self):
        if self.directory is not None:
            if self.store is not None:
                self.store.close()
            shutil.rmtree(self.directory, ignore_errors=True)


KVStoreMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None)
TestKVStoreAgainstADict = KVStoreMachine.TestCase
