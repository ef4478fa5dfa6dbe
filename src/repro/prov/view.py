"""Incremental provenance view: the lineage stream, folded live.

The :class:`ProvenanceView` mirrors PR 3's materialized views, but over
the *data space's lineage log* instead of the instance-space event logs:

* live application folds each durable lineage append exactly once,
  guarded by a single sequence cursor (re-delivered records below the
  cursor are skipped, a gap raises);
* :meth:`checkpoint` persists the graph state *and* the cursor in one KV
  transaction under ``obs/view/provenance``, with the ``prov.checkpoint``
  fault point fired first — a crash there leaves the view recoverable
  from its previous checkpoint;
* :meth:`bind` loads the durable checkpoint, checks its cursor against
  the log, but folds nothing. Provenance is derived from
  the execution record, so a view bound behind its log stays *behind* —
  appends are left in the log — until somebody asks for the graph; the
  asking (:attr:`graph`, :meth:`in_sync`) replays the lineage suffix
  once and live application resumes. A failover therefore pays nothing
  for lineage, and the first provenance read after it pays the suffix.

The chaos invariant (``prov-equivalence`` in
:mod:`repro.faults.invariants`) holds the view's graph byte-identical,
under the canonical codec, to a graph rebuilt from scratch off the
durable lineage log — after every crash and recovery.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..errors import StoreError
from ..faults.points import fire
from .graph import ProvenanceGraph

#: KV key under which the provenance view checkpoint lives (the
#: ``obs/view/`` prefix keeps it alongside the event-log views').
CHECKPOINT_KEY = "obs/view/provenance"


class ProvenanceView:
    """The provenance graph, maintained incrementally with a cursor."""

    name = "provenance"

    def __init__(self):
        self._graph = ProvenanceGraph()
        #: next lineage sequence number to fold.
        self.cursor = 0
        #: bound with the cursor short of the log head and not read since.
        self._behind = False
        #: the owning hub's registry, if a hub owns the view.
        self.metrics = None
        self._store = None

    @property
    def graph(self) -> ProvenanceGraph:
        """The graph, brought up to the lineage log head if it is behind."""
        if self._behind:
            self._first_use()
        return self._graph

    def _first_use(self) -> None:
        """Catch up a view that was bound behind its log (a detached one
        has no log to catch up from and serves what it has)."""
        if self._store is not None:
            self.catch_up(self._store)
            if self.metrics is not None:
                self.metrics.inc("prov.deferred_catch_ups")

    # -- binding & recovery -------------------------------------------------

    def bind(self, store) -> None:
        """Load the durable checkpoint and check it against the log (the
        hub that owns the view is the observer of the lineage appends)."""
        self._store = store
        data = store.kv.get(CHECKPOINT_KEY)
        if data is not None:
            self.cursor = int(data.get("cursor", 0))
            self._graph = ProvenanceGraph.load(data.get("state"))
        else:
            self.cursor = 0
            self._graph = ProvenanceGraph()
        self._behind = self.cursor < self._log_head(store)

    def _log_head(self, store) -> int:
        """The durable lineage count, which the cursor may not exceed."""
        count = store.data.lineage_count()
        if self.cursor > count:
            raise StoreError(
                f"provenance checkpoint cursor {self.cursor} is ahead of "
                f"the durable lineage log ({count} records)"
            )
        return count

    def catch_up(self, store) -> None:
        """Fold the lineage suffix ``[cursor, count)`` from the log."""
        count = self._log_head(store)
        for _seq, record in store.data.lineage_records_from(self.cursor):
            self._graph.add_raw(record)
        # Sequences tombstoned by shard migration yield nothing but still
        # count: the cursor lands on the log head, not the last record.
        self.cursor = count
        self._behind = False

    # -- live application (hot path) ----------------------------------------

    def on_lineage(self, seq: int, record: Dict[str, Any]) -> None:
        """Fold one durable lineage append (idempotent re-delivery)."""
        if self._behind or seq < self.cursor:
            return  # in the log the catch-up reads, or folded already
        if seq > self.cursor:
            raise StoreError(
                f"provenance view missed lineage records: got seq {seq}, "
                f"expected {self.cursor}"
            )
        self._graph.add_raw(record)
        self.cursor = seq + 1

    def resync(self, store) -> None:
        """Re-base on the durable log after out-of-band lineage writes.

        Shard migration copies lineage records into (and tombstones them
        out of) the log in bulk transactions that bypass
        ``append_lineage`` and its observer; the migrator calls this so the
        incremental graph and cursor describe the log again. The new
        graph has no kept PROV document, so the next export builds one
        and the plane, seeing a graph it has not merged, merges again."""
        self._graph = ProvenanceGraph.from_records(
            store.data.lineage_records())
        self.cursor = store.data.lineage_count()
        self._behind = False

    def in_sync(self, store) -> bool:
        """True when the graph, caught up if it was behind, stands at the
        durable lineage count."""
        if self._behind:
            self._first_use()
        return self.cursor == store.data.lineage_count()

    # -- durability ----------------------------------------------------------

    def checkpoint(self, store=None) -> None:
        """Persist graph + cursor in one transaction.

        The ``prov.checkpoint`` fault point fires before the
        transaction: an injected crash loses nothing (the previous
        checkpoint plus the lineage suffix reconstructs the graph). A
        view still behind persists the cursor and graph it loaded.
        """
        store = store if store is not None else self._store
        if store is None:
            raise StoreError("provenance view is not bound to a store")
        fire("prov.checkpoint", cursor=self.cursor)
        with store.kv.transaction() as txn:
            txn.put(CHECKPOINT_KEY, {
                "cursor": self.cursor,
                "state": self._graph.dump(),
            })


def live_graph(store) -> Optional[ProvenanceGraph]:
    """The hub's in-sync provenance graph, or ``None`` to force a rescan.

    Mirrors ``queries._live_views``: the incremental graph answers only
    when it is attached *and* — after the catch-up a view bound behind
    its log owes its first reader — level with the durable lineage log;
    otherwise the caller builds the graph from the records directly.
    """
    hub = getattr(store, "observability", None)
    view = getattr(hub, "provenance", None)
    if view is None or not view.in_sync(store):
        return None
    return view.graph


def provenance_graph(store) -> ProvenanceGraph:
    """The store's provenance graph: live view if in sync, else rebuilt."""
    graph = live_graph(store)
    if graph is not None:
        return graph
    return ProvenanceGraph.from_records(store.data.lineage_records())
