"""Crash-recoverable key-value store: WAL + snapshot + bounded replay.

This is the "database" under BioOpera's data spaces. Guarantees:

* **Durability** — a commit is appended to the WAL and fsynced before
  it is applied and before :meth:`KVStore.put` (or
  :meth:`Transaction.commit`) returns: it is durable when it returns.
* **Atomicity** — a transaction's operations are framed as one WAL record
  and applied all-or-nothing on replay.
* **Recovery** — opening a store rebuilds state as the latest checkpoint
  snapshot plus replay of only the log *suffix* past the snapshot's
  position. There is one snapshot format (the positioned checkpoint
  :meth:`KVStore.checkpoint` writes); a snapshot file of any other shape
  is a :class:`~repro.errors.CorruptLogError`. :meth:`checkpoint` cuts a
  snapshot and truncates every WAL segment it covers, so recovery time
  and disk footprint stay flat in run length instead of growing with it
  (ARIES-style log truncation).

A WAL record encodes ``[heads, values]``: ``heads`` is the flat list
``[op1, key1, op2, key2, ...]`` (``"put"``/``"del"``), ``values`` one
value per op. Replay parses the heads only and leaves each put key
holding the record's payload bytes (the codec rejects ``bytes`` values,
so they mean "not decoded yet"); the first read of any of its keys
decodes the record's values once, for all of them.

Keys are strings; prefix scans (``items(prefix=...)``) give the namespace
mechanism the data spaces are built on.
"""

from __future__ import annotations

import copy
import os
from typing import Any, Dict, Iterable, Iterator, List, Tuple

from ..errors import CodecError, CorruptLogError, ReproError, StoreError
from ..faults.points import fire
from . import codec
from .disk import OS_DISK, Disk, MemoryDisk
from .snapshot import FileSnapshot
from .wal import DEFAULT_SEGMENT_RECORDS, SegmentedWAL

MEMORY = ":memory:"

#: marker key of the one snapshot format: a positioned checkpoint.
_CHECKPOINT_MAGIC = "__kv_checkpoint__"


def _is_positioned_snapshot(snapshot: Any) -> bool:
    """True only for the exact shape :meth:`KVStore.checkpoint` writes:
    the three expected top-level keys, an integer position, a dict state."""
    return (
        isinstance(snapshot, dict)
        and set(snapshot) == {_CHECKPOINT_MAGIC, "position", "state"}
        and isinstance(snapshot["position"], int)
        and not isinstance(snapshot["position"], bool)
        and isinstance(snapshot["state"], dict)
    )


class Transaction:
    """Mutation batch applied atomically at commit."""

    def __init__(self, store: "KVStore"):
        self._store = store
        self._heads: List[str] = []
        self._values: List[Any] = []
        self._done = False

    def put(self, key: str, value: Any) -> None:
        """Queue setting ``key`` to ``value`` at commit."""
        self._heads += ("put", key)
        self._values.append(value)

    def delete(self, key: str) -> None:
        """Queue removing ``key`` at commit."""
        self._heads += ("del", key)
        self._values.append(None)

    def commit(self) -> None:
        """Apply all queued operations as one durable WAL record.

        ``_done`` is set only on *success*: a commit that raises (an
        injected crash window, a disk error) leaves the transaction open,
        so the caller can retry the commit or abort it cleanly instead of
        being stuck with a batch that claims to be finished but may never
        have been applied.
        """
        if self._done:
            raise StoreError("transaction already finished")
        self._store._commit_batch(self._heads, self._values)
        self._done = True

    def abort(self) -> None:
        """Discard the queued operations without touching the store."""
        self._done = True
        self._heads, self._values = [], []

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and not self._done:
            self.commit()
        elif not self._done:
            self.abort()


class KVStore:
    """Recoverable key-value store with checkpoint-bounded recovery.

    Parameters
    ----------
    path:
        Directory for the segmented WAL (``wal/``) and ``store.snapshot``,
        or :data:`MEMORY` for the same files on a private
        :class:`~repro.store.disk.MemoryDisk` (durability simulated by
        its crash model).
    segment_records:
        Rotation threshold for the segmented WAL: a segment is sealed
        once it holds this many records (or
        :data:`~repro.store.wal.DEFAULT_SEGMENT_BYTES` bytes, for stores
        of unusually large records).
    retain_history:
        Keep truncated segments on disk (retired in the manifest) so
        :meth:`audit` can verify that checkpoint+suffix recovery is
        byte-identical to a full-log replay. Costs the disk the
        truncation would have reclaimed; meant for chaos campaigns and
        tests, not production stores.
    """

    def __init__(self, path: str = MEMORY, *,
                 segment_records: int = DEFAULT_SEGMENT_RECORDS,
                 retain_history: bool = False):
        self.path = path
        self._options = {
            "segment_records": segment_records,
            "retain_history": retain_history,
        }
        self._open(MemoryDisk() if path == MEMORY else OS_DISK)

    def _open(self, disk: Disk) -> None:
        """Open the WAL and the snapshot on ``disk`` and recover from
        them: the one open, of a new store and of a crash survivor."""
        self._disk = disk
        self._wal = SegmentedWAL(
            os.path.join(self.path, "wal"), disk=disk,
            max_segment_records=self._options["segment_records"],
            retain_truncated=self._options["retain_history"],
        )
        self._snapshot = FileSnapshot(
            os.path.join(self.path, "store.snapshot"), disk=disk)
        self._state: Dict[str, Any] = {}
        #: summary of the last recovery (set by every open/replay):
        #: checkpoint position, records replayed, live segments, repairs.
        self.last_recovery: Dict[str, Any] = {}
        self._replay()

    # -- recovery -------------------------------------------------------------

    def _load_snapshot_state(self) -> Tuple[Dict[str, Any], int]:
        """Return ``(state, position)`` from the checkpoint snapshot."""
        snapshot = self._snapshot.load()
        if snapshot is None:
            return {}, 0
        if not _is_positioned_snapshot(snapshot):
            raise CorruptLogError(
                f"{self.path}: snapshot is not a positioned checkpoint"
            )
        return dict(snapshot["state"]), int(snapshot["position"])

    def _replay(self) -> None:
        state, position = self._load_snapshot_state()
        self._state = state
        replayed = self._replay_into(state, self._wal.records_from(position))
        self.last_recovery = {
            "checkpoint_position": position,
            "records_replayed": replayed,
            "wal_position": self._wal.position(),
            "segments": self._wal.segment_count(),
            "repairs": list(self._wal.repairs),
        }

    @staticmethod
    def _replay_into(state: Dict[str, Any], payloads: Iterable[bytes]) -> int:
        """Apply WAL records to ``state`` from their heads alone — the one
        replay, shared by open, :meth:`simulate_crash` and :meth:`audit`.
        Returns the number of records applied."""
        replayed = 0
        for payload in payloads:
            heads = codec.decode_head(payload)
            if heads.__class__ is not list or len(heads) % 2:
                raise CodecError(
                    "WAL record head is not a list of op,key pairs")
            pairs = iter(heads)
            for op, key in zip(pairs, pairs):
                if key.__class__ is not str:
                    raise CodecError(
                        f"WAL record key {key!r} is not a string")
                if op == "put":
                    state[key] = payload
                elif op == "del":
                    state.pop(key, None)
                else:
                    raise StoreError(f"unknown WAL op {op!r}")
            replayed += 1
        return replayed

    @staticmethod
    def _resolve(state: Dict[str, Any], key: str, payload: bytes) -> Any:
        """Decode the record ``payload`` that ``key`` is waiting in, hand
        every key still waiting in it its value, and return ``key``'s."""
        try:
            heads, values = codec.decode(payload)
            if values.__class__ is not list or 2 * len(values) != len(heads):
                raise ValueError("not one value per op")
        except (CodecError, ValueError) as exc:
            raise CodecError(f"WAL record holding {key!r}: {exc}") from exc
        # Last op first: a key put twice in one record keeps the later
        # value, and a key deleted by its last op is no longer waiting.
        for index in range(len(values) - 1, -1, -1):
            name = heads[2 * index + 1]
            if state.get(name) is payload:
                state[name] = values[index]
        return state[key]

    @classmethod
    def _resolve_all(cls, state: Dict[str, Any]) -> None:
        """Decode every record a key of ``state`` is still waiting in."""
        for key in [k for k, v in state.items() if v.__class__ is bytes]:
            if state[key].__class__ is bytes:   # not done with an earlier key
                cls._resolve(state, key, state[key])

    def simulate_crash(self) -> "KVStore":
        """Return a new store holding only what a crash would preserve:
        this store reopened on its memory disk's ``crashed()`` copy.

        Only meaningful for in-memory stores; on-disk stores are recovered
        by re-opening the directory.
        """
        if self.path != MEMORY:
            raise StoreError("simulate_crash() applies to in-memory stores")
        survivor = copy.copy(self)
        survivor._open(self._disk.crashed())
        return survivor

    # -- mutations ------------------------------------------------------------

    def _commit_batch(self, heads: List[str], values: List[Any]) -> None:
        if not values:
            return
        payload = codec.encode([heads, values])
        self._wal.append(payload)
        # Crash here: the record is appended but unsynced — a real crash
        # loses it (a crashed MemoryDisk keeps fsynced bytes only).
        fire("kvstore.commit.pre-sync", ops=len(values))
        self._wal.sync()
        # Crash here: the record is durable but was never applied to the
        # in-memory state — recovery must replay it.
        fire("kvstore.commit.post-sync", ops=len(values))
        self._apply(heads, values)

    def _apply(self, heads: List[str], values: List[Any]) -> None:
        """Apply a committed batch to the live state: the caller's value
        objects themselves, so reads return them as they were put."""
        state = self._state
        for index, value in enumerate(values):
            if heads[2 * index] == "put":
                state[heads[2 * index + 1]] = value
            else:
                state.pop(heads[2 * index + 1], None)

    def flush(self) -> int:
        """Do nothing and return 0: every commit is durable when it
        returns, so nothing is ever waiting. A name only, for the
        benchmark ledger's patch table."""
        return 0

    def put(self, key: str, value: Any) -> None:
        """Set ``key`` to ``value``, durably."""
        self._commit_batch(["put", key], [value])

    def delete(self, key: str) -> None:
        """Remove ``key`` if present, durably."""
        self._commit_batch(["del", key], [None])

    def transaction(self) -> Transaction:
        """Open an atomic mutation batch (context manager)."""
        return Transaction(self)

    def checkpoint(self) -> None:
        """Snapshot current state and truncate the log it covers.

        Sequence (each step durable before the next): sync the WAL, write
        a positioned snapshot via atomic rename, then truncate every
        segment wholly below the snapshot's position. A crash between
        snapshot and truncation is benign — recovery uses the new
        snapshot and the not-yet-truncated records below its position are
        skipped (and re-truncated by the next checkpoint). The
        ``store.checkpoint.*`` fault points let chaos campaigns crash in
        each window.
        """
        fire("store.checkpoint.begin")
        self._wal.sync()
        position = self._wal.position()
        self._resolve_all(self._state)
        self._snapshot.save({
            _CHECKPOINT_MAGIC: 1,
            "position": position,
            "state": self._state,
        })
        # Crash here: snapshot durable, log not yet truncated — bounded
        # recovery must skip the covered prefix rather than re-apply it.
        fire("store.checkpoint.post-snapshot", position=position)
        self._wal.truncate_through(position)
        fire("store.checkpoint.post-truncate", position=position)

    def audit(self) -> List[str]:
        """Recovery-integrity check against the durable state.

        Rebuilds state as checkpoint snapshot + suffix replay and diffs it
        against the live in-memory state; when the WAL retains full
        history (``retain_history=True`` or nothing truncated yet), also
        replays the entire log from position zero and requires the result
        to be byte-identical (canonical encoding) to the bounded
        reconstruction — the checkpoint invariant the chaos campaigns
        assert. Every value is decoded first, the live state's included.
        Returns problem descriptions (ideally []). Only meaningful
        while the store is quiescent — a batch appended but not yet
        applied would show as a false diff.
        """
        problems: List[str] = []
        try:
            replayed, position = self._load_snapshot_state()
            self._replay_into(replayed, self._wal.records_from(position))
            self._resolve_all(replayed)
            self._resolve_all(self._state)
        except ReproError as exc:
            return [f"WAL replay failed: {type(exc).__name__}: {exc}"]
        if replayed != self._state:
            missing = sorted(set(self._state) - set(replayed))[:5]
            extra = sorted(set(replayed) - set(self._state))[:5]
            changed = sorted(
                k for k in set(replayed) & set(self._state)
                if replayed[k] != self._state[k]
            )[:5]
            problems.append(
                "replayed state diverges from live state "
                f"(missing={missing} extra={extra} changed={changed})"
            )
        if self._wal.history_complete():
            try:
                full: Dict[str, Any] = {}
                self._replay_into(full, self._wal.full_records())
                self._resolve_all(full)
            except ReproError as exc:
                problems.append(
                    f"full-log replay failed: {type(exc).__name__}: {exc}"
                )
            else:
                if codec.encode(full) != codec.encode(replayed):
                    missing = sorted(set(full) - set(replayed))[:5]
                    extra = sorted(set(replayed) - set(full))[:5]
                    problems.append(
                        "snapshot+suffix replay is not byte-identical to "
                        f"full-log replay (missing={missing} extra={extra})"
                    )
        return problems

    # -- reads ----------------------------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        """Return the value for ``key``, or ``default`` if absent."""
        value = self._state.get(key, default)
        if value.__class__ is bytes and value is not default:
            return self._resolve(self._state, key, value)
        return value

    def __contains__(self, key: str) -> bool:
        return key in self._state

    def keys(self, prefix: str = "") -> List[str]:
        """Sorted keys starting with ``prefix``."""
        return sorted(k for k in self._state if k.startswith(prefix))

    def items(self, prefix: str = "") -> Iterator[Tuple[str, Any]]:
        """Iterate ``(key, value)`` pairs for keys starting with ``prefix``."""
        state = self._state
        for key in self.keys(prefix):
            value = state[key]
            if value.__class__ is bytes:
                value = self._resolve(state, key, value)
            yield key, value

    def __len__(self) -> int:
        return len(self._state)

    @property
    def wal_records(self) -> int:
        """Number of live (non-truncated) WAL records; shrinks at checkpoint."""
        return len(self._wal)

    @property
    def wal_position(self) -> int:
        """Global log position: total records ever appended."""
        return self._wal.position()

    def close(self) -> None:
        """Close the WAL's file handles."""
        self._wal.close()
