"""Provenance view: the lineage of the event logs, folded live.

The instance event log is the one record of lineage: each task
completion carries its derivation in its ``task_completed`` event
(``lineage``: dataset names relative to the instance, the program, the
attempt and the memo key). The graph is a fold of those events, never
stored. :class:`ProvenanceView` is one more view of the
:class:`~repro.obs.views.ViewCatalog`, under its cursors and deferral
rules; since the graph spans every instance, reading it first folds
whatever the catalog deferred (O(1) when nothing is). A completion the
catalog folds is kept as it is until the graph is read, so a graph
nobody reads costs a list append per completion. Records are
ordered by instance id, then log order, so a live fold, a fold after a
failover and :func:`lineage_records`'s rescan agree byte for byte — the
chaos invariant ``prov-equivalence`` holds them to it.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

from ..core.engine.events import TASK_COMPLETED
from ..core.engine.recovery import staged_import
from ..obs.views import View
from ..store.lineage import LineageRecord
from .graph import ProvenanceGraph


def lineage_record(instance_id: str,
                   event: Dict[str, Any]) -> LineageRecord:
    """The derivation one ``task_completed`` event of ``instance_id``'s
    log records, its dataset names qualified by the instance id."""
    lineage = event["lineage"]
    prefix = f"{instance_id}/"
    path = event["path"]
    return LineageRecord(
        outputs=tuple(prefix + name for name in lineage["outputs"]),
        inputs=tuple(prefix + name for name in lineage["inputs"]),
        program=lineage["program"],
        instance_id=instance_id,
        task=path,
        timestamp=event["time"],
        span=f"{instance_id}:{path}:{lineage['attempt']}",
        memo_key=lineage["memo_key"],
    )


def lineage_records(store) -> Iterator[LineageRecord]:
    """Every derivation the store's logs record, in canonical order
    (instance id, then log order); staged imports are not the store's
    yet and are skipped."""
    space = store.instances
    for instance_id in space.instance_ids():
        if staged_import(store, instance_id):
            continue
        for _seq, event in space.events_from(instance_id, 0):
            if event["type"] == TASK_COMPLETED and "lineage" in event:
                yield lineage_record(instance_id, event)


class ProvenanceView(View):
    """The provenance graph, one view of the catalog that folds it."""

    name = "provenance"
    interests = (TASK_COMPLETED,)

    def __init__(self, catalog):
        #: the :class:`~repro.obs.views.ViewCatalog` folding this view.
        self.catalog = catalog
        self._graph = ProvenanceGraph()
        #: instance id -> the completions folded but not yet added to
        #: the graph, in log order.
        self._unread: Dict[str, List[Dict[str, Any]]] = {}

    @property
    def graph(self) -> ProvenanceGraph:
        """The graph, with every instance the catalog deferred folded."""
        self.catalog.fold_deferred()
        return self.state

    @property
    def state(self) -> ProvenanceGraph:
        """The graph of what the catalog has folded so far."""
        for instance_id, events in self._unread.items():
            for event in events:
                self._graph.add(lineage_record(instance_id, event))
        self._unread = {}
        return self._graph

    def apply(self, instance_id: str, event: Dict[str, Any]) -> None:
        """Take the derivation a completion carries (a compensation
        task's carries none)."""
        if "lineage" in event:
            self._unread.setdefault(instance_id, []).append(event)

    def forget(self, instance_id: str) -> None:
        """Drop the instance's derivations (it moved to another shard)."""
        self._unread.pop(instance_id, None)
        self._graph.drop_instance(instance_id)

    # Names only, for the benchmark ledger's patch table: the catalog
    # binds, catches up and folds this view.

    def on_lineage(self, seq: int, record: Dict[str, Any]) -> None:
        """Nothing: a ledger-only name."""

    def bind(self, store) -> None:
        """Nothing: a ledger-only name."""

    def catch_up(self, store) -> None:
        """Nothing: a ledger-only name."""

    def checkpoint(self, store=None) -> None:
        """Nothing: a ledger-only name."""


def live_graph(store) -> Optional[ProvenanceGraph]:
    """The attached hub's provenance graph, or ``None`` (no hub follows
    ``store``) to force a rescan of the logs."""
    hub = getattr(store, "observability", None)
    return None if hub is None else hub.provenance.graph


def provenance_graph(store) -> ProvenanceGraph:
    """The store's provenance graph: live view if in sync, else rebuilt."""
    graph = live_graph(store)
    if graph is not None:
        return graph
    return ProvenanceGraph(lineage_records(store))
