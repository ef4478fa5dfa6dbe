"""Crash-recoverable key-value store: WAL + checkpoint chain.

This is the "database" under BioOpera's data spaces. Guarantees:

* **Durability** — a commit is appended to the WAL and fsynced before
  it is applied and before :meth:`KVStore.put` (or
  :meth:`Transaction.commit`) returns: it is durable when it returns.
* **Atomicity** — a transaction's operations are framed as one WAL record
  and applied all-or-nothing on replay.
* **Recovery** — opening a store replays the *checkpoint chain* and the
  log suffix past it, heads only. The chain is a sequence of records in
  the WAL's shape: the base a rewrite wrote (if any), then the sealed
  segments up to the checkpoint position. :meth:`KVStore.checkpoint`
  extends the chain by the records committed since the last one — the
  bytes the WAL already wrote, kept in place, never re-encoded — and
  rewrites it only when its superseded bytes exceed its live bytes, so
  what an open reads stays within twice the live state while a log that
  only appends never pays a rewrite.

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
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import CodecError, CorruptLogError, ReproError, StoreError
from ..faults.points import fire
from . import codec
from .disk import OS_DISK, Disk, MemoryDisk
from .snapshot import FileSnapshot
from .wal import DEFAULT_SEGMENT_RECORDS, SegmentedWAL

MEMORY = ":memory:"


class _Liveness:
    """Which records of the chain still hold a live value.

    A record is live while some key's value is the one it put; once every
    such key has been put again or deleted, its bytes are superseded. A
    record of deletes alone is superseded at once. Records are weighed in
    log order, from their heads, when a checkpoint asks: nothing is kept
    per commit, and a store that never checkpoints keeps nothing.
    """

    __slots__ = ("position", "holder", "held", "total", "superseded",
                 "_next")

    def __init__(self, position: int):
        #: global position of the first record not weighed yet.
        self.position = position
        #: key -> id of the record holding its live value.
        self.holder: Dict[str, int] = {}
        #: live record id -> [keys it holds, its bytes].
        self.held: Dict[int, List[int]] = {}
        self.total = 0
        self.superseded = 0
        self._next = 0

    def weigh(self, payloads: Iterable[bytes]) -> None:
        """Account for the records ``payloads``, next in log order."""
        holder, held = self.holder, self.held
        for payload in payloads:
            heads = codec.decode_head(payload)
            rid = self._next
            self._next += 1
            self.total += len(payload)
            holds = 0
            for index in range(0, len(heads), 2):
                key = heads[index + 1]
                old = holder.pop(key, None)
                if old == rid:
                    holds -= 1
                elif old is not None:
                    entry = held[old]
                    entry[0] -= 1
                    if not entry[0]:
                        self.superseded += entry[1]
                        del held[old]
                if heads[index] == "put":
                    holder[key] = rid
                    holds += 1
            if holds:
                held[rid] = [holds, len(payload)]
            else:
                self.superseded += len(payload)

    def needs_rewrite(self) -> bool:
        """True when the superseded bytes exceed the live ones."""
        return 2 * self.superseded > self.total


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
        Directory for the segmented WAL and the chain (``wal/``), or
        :data:`MEMORY` for the same files on a private
        :class:`~repro.store.disk.MemoryDisk` (durability simulated by
        its crash model).
    segment_records:
        Rotation threshold for the segmented WAL: a segment is sealed
        once it holds this many records (or
        :data:`~repro.store.wal.DEFAULT_SEGMENT_BYTES` bytes, for stores
        of unusually large records).
    retain_history:
        Keep the segments a rewrite replaces on disk (retired in the
        manifest) so :meth:`audit` can verify that chain+suffix recovery
        is byte-identical to a full-log replay. Costs the disk the
        rewrite would have reclaimed; meant for chaos campaigns and
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
        """Open the WAL on ``disk`` and recover from its chain and
        suffix: the one open, of a new store and of a crash survivor."""
        self._disk = disk
        self._wal = SegmentedWAL(
            os.path.join(self.path, "wal"), disk=disk,
            max_segment_records=self._options["segment_records"],
            retain_truncated=self._options["retain_history"],
        )
        self._state: Dict[str, Any] = {}
        #: the chain's byte accounting, once a checkpoint has weighed it.
        self._live: Optional[_Liveness] = None
        #: summary of the last recovery (set by every open/replay):
        #: checkpoint position, records replayed, live segments, repairs.
        self.last_recovery: Dict[str, Any] = {}
        self._replay()

    # -- recovery -------------------------------------------------------------

    def _chain_base(self) -> List[bytes]:
        """The records of the chain's base: none before the first
        rewrite, when the chain must start at position zero."""
        path = self._wal.base_path()
        records = None if path is None else FileSnapshot(
            path, disk=self._disk).load()
        if records is None:
            if path is not None or self._wal.base_position():
                raise CorruptLogError(
                    f"{self.path}: the chain's base is missing")
            return []
        return records

    def _replay(self) -> None:
        state = self._state
        replayed = self._replay_into(state, self._chain_base())
        replayed += self._replay_into(state, self._wal.records())
        self.last_recovery = {
            "checkpoint_position": self._wal.checkpoint_position(),
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
        """Extend the checkpoint chain by what was committed since the
        last checkpoint; rewrite the chain when it is mostly superseded.

        Extending keeps the WAL's own records: the active segment is
        sealed and the manifest names the chain through the log head
        (:meth:`~repro.store.wal.SegmentedWAL.extend_chain`); no value
        is decoded or encoded. The records new to the chain are weighed
        from their heads (the whole chain at the first checkpoint after
        an open), and only when the chain's superseded bytes exceed its
        live bytes does it rewrite: every live value is encoded into
        a new base (:meth:`~repro.store.snapshot.FileSnapshot.save`), the
        manifest switches to it, and the segments it replaces are
        unlinked (retired with ``retain_history``). Each step is durable
        before the next, and the ``store.checkpoint.*`` fault points let
        chaos campaigns crash in each window: before anything
        (``begin``), sealed but not yet named the chain
        (``chain-extended``), base written but not yet named
        (``rewrite-written``), manifest switched but the replaced files
        not yet unlinked (``manifest-switched``). Every window reopens to
        the same state: the manifest names either the old chain or the
        new one, and a reopen removes the files it does not name.
        """
        fire("store.checkpoint.begin")
        self._wal.sync()
        position = self._wal.position()
        self._wal.extend_chain(position)
        live = self._live
        if live is None:   # first checkpoint since the open: the chain
            live = self._live = _Liveness(self._wal.base_position())
            live.weigh(self._chain_base())
        live.weigh(self._wal.records_from(live.position))
        live.position = position
        if live.needs_rewrite():
            self._rewrite(position)

    def _rewrite(self, position: int) -> None:
        """Replace the chain through ``position`` (the log head) by a base
        holding the live state, re-encoded."""
        self._resolve_all(self._state)
        base = FileSnapshot(self._wal.new_base_path(), disk=self._disk)
        payloads = base.save(self._state)
        fire("store.checkpoint.rewrite-written", position=position)
        self._wal.truncate_through(position, base=base.path)
        self._live = _Liveness(position)
        self._live.weigh(payloads)

    def audit(self) -> List[str]:
        """Recovery-integrity check against the durable state.

        Rebuilds state as chain + suffix replay and diffs it against the
        live in-memory state; when a rewrite replaced part of the log and
        the WAL retained it (``retain_history=True``), also replays the
        entire log from position zero and requires the result to be
        byte-identical (canonical encoding) to the chain + suffix
        reconstruction — the checkpoint invariant the chaos campaigns
        assert. Before any rewrite the chain + suffix is the full log. Every value is decoded first, the live state's included.
        Returns problem descriptions (ideally []). Only meaningful
        while the store is quiescent — a batch appended but not yet
        applied would show as a false diff.
        """
        problems: List[str] = []
        try:
            replayed: Dict[str, Any] = {}
            self._replay_into(replayed, self._chain_base())
            self._replay_into(replayed, self._wal.records())
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
        # Without a base the chain + suffix is the full log already.
        if self._wal.base_path() is not None \
                and self._wal.history_complete():
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
                        "chain+suffix replay is not byte-identical to "
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
        """Number of WAL records past the checkpoint chain; drops to zero
        at a checkpoint."""
        return self._wal.position() - self._wal.checkpoint_position()

    @property
    def wal_position(self) -> int:
        """Global log position: total records ever appended."""
        return self._wal.position()

    def close(self) -> None:
        """Close the WAL's file handles."""
        self._wal.close()
