"""BioOpera's four data spaces on top of the KV store.

The paper (Section 3.2) organizes persistent information into:

* **template space** — processes as defined by the user;
* **instance space** — processes currently executing (meta + event log);
* **configuration space** — the hardware/software description of the
  cluster used for placement and what-if planning;
* **data space** — historical information about completed processes and
  lineage records referencing the datasets they produced.

Each space is a thin, typed veneer over key prefixes of one
:class:`~repro.store.kvstore.KVStore`, so a single WAL covers all of them
and cross-space updates can share a transaction.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

from ..errors import StoreError, UnknownTemplateError
from .kvstore import KVStore, MEMORY


def _seq_key(prefix: str, seq: int) -> str:
    return f"{prefix}{seq:010d}"


class TemplateSpace:
    """Versioned storage of process templates (as serialized dicts)."""

    PREFIX = "template/"

    def __init__(self, kv: KVStore):
        self._kv = kv

    def save(self, name: str, template_dict: Dict[str, Any]) -> int:
        """Store a new version of ``name``; returns the version number."""
        version = self.latest_version(name) + 1
        with self._kv.transaction() as txn:
            txn.put(f"{self.PREFIX}{name}/v{version:06d}", template_dict)
            txn.put(f"{self.PREFIX}{name}/latest", version)
        return version

    def save_version(self, name: str, version: int,
                     template_dict: Dict[str, Any]) -> None:
        """Store ``name`` at an *exact* version number (idempotent).

        Shard migration uses this to replicate the source shard's pinned
        template version on the target: re-running an interrupted import
        must not mint a fresh version the way :meth:`save` would, and the
        ``latest`` pointer only ever moves forward.
        """
        with self._kv.transaction() as txn:
            txn.put(f"{self.PREFIX}{name}/v{version:06d}", template_dict)
            txn.put(f"{self.PREFIX}{name}/latest",
                    max(version, self.latest_version(name)))

    def latest_version(self, name: str) -> int:
        """Newest stored version number of ``name`` (0 if unknown)."""
        return int(self._kv.get(f"{self.PREFIX}{name}/latest", 0))

    def load(self, name: str, version: Optional[int] = None) -> Dict[str, Any]:
        """Fetch a template dict (latest version unless pinned)."""
        if version is None:
            version = self.latest_version(name)
        template = self._kv.get(f"{self.PREFIX}{name}/v{version:06d}")
        if template is None:
            raise UnknownTemplateError(
                f"template {name!r} version {version} not in template space"
            )
        return template

    def names(self) -> List[str]:
        """Sorted names of every stored template."""
        found = set()
        for key in self._kv.keys(self.PREFIX):
            found.add(key[len(self.PREFIX):].split("/", 1)[0])
        return sorted(found)

    def __contains__(self, name: str) -> bool:
        return self.latest_version(name) > 0


class InstanceSpace:
    """Durable per-instance metadata and append-only event logs."""

    PREFIX = "instance/"

    def __init__(self, kv: KVStore):
        self._kv = kv
        #: the post-commit observer, ``fn(instance_id, start_seq, events)``
        #: or ``None``: called once per committed slice, in append order.
        #: The attached hub sets it; it must not append events itself.
        self.observer = None

    # -- metadata ---------------------------------------------------------

    def create(self, instance_id: str, meta: Dict[str, Any],
               extra: Optional[Dict[str, Any]] = None) -> None:
        """Register a new instance with an empty event log.

        ``extra`` maps full KV keys to values written in the *same*
        transaction as the instance metadata — the sharded broker uses it
        for request-dedup markers, so "the instance exists" and "this
        request id produced it" become durable atomically (a crash leaves
        both or neither).
        """
        key = f"{self.PREFIX}{instance_id}/meta"
        if key in self._kv:
            raise StoreError(f"instance {instance_id!r} already exists")
        with self._kv.transaction() as txn:
            txn.put(key, meta)
            txn.put(f"{self.PREFIX}{instance_id}/next_seq", 0)
            for extra_key, value in (extra or {}).items():
                txn.put(extra_key, value)

    def meta(self, instance_id: str) -> Optional[Dict[str, Any]]:
        """The instance's metadata dict, or ``None`` if unknown."""
        return self._kv.get(f"{self.PREFIX}{instance_id}/meta")

    def update_meta(self, instance_id: str, **fields: Any) -> None:
        """Merge ``fields`` into the instance's metadata."""
        meta = self.meta(instance_id)
        if meta is None:
            raise StoreError(f"unknown instance {instance_id!r}")
        meta.update(fields)
        self._kv.put(f"{self.PREFIX}{instance_id}/meta", meta)

    def instance_ids(self) -> List[str]:
        """Sorted ids of every known instance."""
        ids = set()
        for key in self._kv.keys(self.PREFIX):
            ids.add(key[len(self.PREFIX):].split("/", 1)[0])
        return sorted(ids)

    # -- event log ----------------------------------------------------------

    def append_event(self, instance_id: str, event: Dict[str, Any]) -> int:
        """Durably append one engine event; returns its sequence number."""
        return self._append(instance_id, (event,))

    def append_events(self, instance_id: str,
                      events: List[Dict[str, Any]]) -> int:
        """Append a slice of events in ONE transaction (one WAL record);
        returns the first sequence number of the slice."""
        return self._append(instance_id, events)

    def _append(self, instance_id: str, events) -> int:
        """Commit ``events`` atomically at consecutive sequence numbers,
        then hand the slice to the observer.

        The slice is durable when the observer runs: what it raises
        reaches the caller, who must not take it for a failed append.
        """
        seq_key = f"{self.PREFIX}{instance_id}/next_seq"
        start = self._kv.get(seq_key)
        if start is None:
            raise StoreError(f"unknown instance {instance_id!r}")
        if not events:
            return start
        prefix = f"{self.PREFIX}{instance_id}/event/"
        with self._kv.transaction() as txn:
            for offset, event in enumerate(events):
                txn.put(_seq_key(prefix, start + offset), event)
            txn.put(seq_key, start + len(events))
        if self.observer is not None:
            self.observer(instance_id, start, events)
        return start

    def events(self, instance_id: str) -> Iterator[Dict[str, Any]]:
        """Yield the instance's events in append order (the whole log,
        through :meth:`events_from` — the one log reader)."""
        for _seq, event in self.events_from(instance_id, 0):
            yield event

    def events_from(self, instance_id: str,
                    start: int) -> Iterator[Any]:
        """Yield ``(seq, event)`` for the log suffix starting at ``start``.

        Reads by direct sequence key, so catching a view up replays only
        the suffix — no prefix scan. A hole in the log is a corruption
        signal and raises :class:`StoreError`.
        """
        prefix = f"{self.PREFIX}{instance_id}/event/"
        count = self.event_count(instance_id)
        for seq in range(start, count):
            event = self._kv.get(_seq_key(prefix, seq))
            if event is None:
                raise StoreError(
                    f"event log hole at seq {seq} for instance "
                    f"{instance_id!r}"
                )
            yield seq, event

    def event_count(self, instance_id: str) -> int:
        """Number of events durably appended for the instance."""
        return int(self._kv.get(f"{self.PREFIX}{instance_id}/next_seq", 0))


class ConfigurationSpace:
    """Cluster description: nodes, capacities, operating systems."""

    PREFIX = "config/"

    def __init__(self, kv: KVStore):
        self._kv = kv

    def save_node(self, name: str, description: Dict[str, Any]) -> None:
        """Store (or replace) a node description."""
        self._kv.put(f"{self.PREFIX}node/{name}", description)

    def node(self, name: str) -> Optional[Dict[str, Any]]:
        """One node's description, or ``None`` if unknown."""
        return self._kv.get(f"{self.PREFIX}node/{name}")

    def remove_node(self, name: str) -> None:
        """Delete a node description (no-op if absent)."""
        self._kv.delete(f"{self.PREFIX}node/{name}")

    def nodes(self) -> Dict[str, Dict[str, Any]]:
        """All node descriptions keyed by node name."""
        prefix = f"{self.PREFIX}node/"
        return {
            key[len(prefix):]: value for key, value in self._kv.items(prefix)
        }

    def set_setting(self, name: str, value: Any) -> None:
        """Store a named cluster-wide setting."""
        self._kv.put(f"{self.PREFIX}setting/{name}", value)

    def setting_key(self, name: str) -> str:
        """Full KV key of a named setting (for cross-space transactions)."""
        return f"{self.PREFIX}setting/{name}"

    def setting(self, name: str, default: Any = None) -> Any:
        """Read a named setting, with a default."""
        return self._kv.get(f"{self.PREFIX}setting/{name}", default)

    def settings(self, prefix: str = "") -> Dict[str, Any]:
        """All settings whose name starts with ``prefix``, keyed by the
        *relative* name (the shared prefix stripped).

        Migration journals (``migrate_out/…``, ``migrate_in/…``,
        ``forward/…``) live in the settings namespace; resume scans use
        this to find every in-flight move after a crash.
        """
        full = f"{self.PREFIX}setting/{prefix}"
        strip = len(f"{self.PREFIX}setting/")
        return {key[strip:]: value for key, value in self._kv.items(full)}


class DataSpace:
    """Historical run records, lineage entries, and the memo cache."""

    PREFIX = "data/"
    LINEAGE_SEQ_KEY = "data/lineage_seq"

    def __init__(self, kv: KVStore):
        self._kv = kv
        #: the post-commit observer ``fn(seq, record)`` or ``None``,
        #: mirroring :attr:`InstanceSpace.observer`: the attached hub's
        #: provenance view folds each durable lineage append.
        self.observer = None

    def record_run(self, run_id: str, summary: Dict[str, Any]) -> None:
        """Store the summary of a completed run."""
        self._kv.put(f"{self.PREFIX}run/{run_id}", summary)

    def run(self, run_id: str) -> Optional[Dict[str, Any]]:
        """One run summary, or ``None`` if unknown."""
        return self._kv.get(f"{self.PREFIX}run/{run_id}")

    def runs(self) -> Dict[str, Dict[str, Any]]:
        """All run summaries keyed by run id."""
        prefix = f"{self.PREFIX}run/"
        return {
            key[len(prefix):]: value for key, value in self._kv.items(prefix)
        }

    def append_lineage(self, record: Dict[str, Any]) -> int:
        """Durably append one lineage record; returns its sequence. The
        observer runs after the commit (the record is already durable)."""
        seq = int(self._kv.get(self.LINEAGE_SEQ_KEY, 0))
        with self._kv.transaction() as txn:
            txn.put(self.lineage_key(seq), record)
            txn.put(self.LINEAGE_SEQ_KEY, seq + 1)
        if self.observer is not None:
            self.observer(seq, record)
        return seq

    def lineage_records(self) -> List[Dict[str, Any]]:
        """Every lineage record, in append order."""
        return [record for _seq, record in self.lineage_records_from(0)]

    def lineage_count(self) -> int:
        """Number of lineage records durably appended."""
        return int(self._kv.get(self.LINEAGE_SEQ_KEY, 0))

    def lineage_key(self, seq: int) -> str:
        """Full KV key of lineage record ``seq`` (cross-space transactions)."""
        return _seq_key(f"{self.PREFIX}lineage/", seq)

    def lineage_records_from(self, start: int) -> Iterator[Any]:
        """Yield ``(seq, record)`` for the lineage suffix from ``start``.

        Reads by direct sequence key so catching the provenance view up
        replays only the suffix. Missing sequences are skipped, not an
        error: shard migration tombstones a moved instance's lineage
        records in place (the sequence counter never rewinds)."""
        prefix = f"{self.PREFIX}lineage/"
        count = self.lineage_count()
        for seq in range(start, count):
            record = self._kv.get(_seq_key(prefix, seq))
            if record is not None:
                yield seq, record

    # -- memo cache (content-keyed results for smart re-execution) ----------

    def memo_put(self, key: str, outputs: Dict[str, Any]) -> None:
        """Store (or refresh) the memoized outputs for a content key."""
        self._kv.put(f"{self.PREFIX}memo/{key}", outputs)

    def memo_get(self, key: str) -> Optional[Dict[str, Any]]:
        """Memoized outputs for a content key, or ``None`` on a miss."""
        return self._kv.get(f"{self.PREFIX}memo/{key}")

    def memo_delete(self, key: str) -> None:
        """Invalidate one memo entry (no-op if absent)."""
        self._kv.delete(f"{self.PREFIX}memo/{key}")


class OperaStore:
    """All four spaces over one KV store (one WAL, one recovery unit).

    Keyword options (``segment_records``, ``retain_history``,
    ``sync_policy``, ``group_max_pending``) are forwarded to the underlying
    :class:`~repro.store.kvstore.KVStore` and survive
    :meth:`simulate_crash`/:meth:`reopen`, so a chaos campaign configured
    for retained history or group commit keeps both across every
    recovery generation.
    """

    def __init__(self, path: str = MEMORY, **kv_options: Any):
        self.kv = KVStore(path, **kv_options)
        self.templates = TemplateSpace(self.kv)
        self.instances = InstanceSpace(self.kv)
        self.configuration = ConfigurationSpace(self.kv)
        self.data = DataSpace(self.kv)
        #: the attached ObservabilityHub, if any (set by the hub itself).
        self.observability = None

    def checkpoint(self) -> None:
        """Checkpoint the KV store: snapshot state, truncate covered log."""
        self.kv.checkpoint()

    def flush(self) -> int:
        """Ack buffered group commits (one write+fsync); see KVStore.flush."""
        return self.kv.flush()

    def simulate_crash(self) -> "OperaStore":
        """Crash-and-recover an in-memory store (synced prefix survives)."""
        survivor = OperaStore.__new__(OperaStore)
        survivor.kv = self.kv.simulate_crash()
        survivor.templates = TemplateSpace(survivor.kv)
        survivor.instances = InstanceSpace(survivor.kv)
        survivor.configuration = ConfigurationSpace(survivor.kv)
        survivor.data = DataSpace(survivor.kv)
        survivor.observability = None
        return survivor

    def reopen(self) -> "OperaStore":
        """Close and re-open an on-disk store (crash-recovery path)."""
        path = self.kv.path
        options = dict(self.kv._options)
        self.kv.close()
        return OperaStore(path, **options)

    def close(self) -> None:
        """Close the underlying KV store's file handles."""
        self.kv.close()
