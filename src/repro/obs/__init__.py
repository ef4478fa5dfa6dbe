"""Live observability: metrics, materialized views, task-span tracing.

The :class:`ObservabilityHub` is the single attachment point. The server
creates one unless handed one, attaches it to its store, and from then
on every durably appended event flows — in append order, after the
commit — into:

* the :class:`~repro.obs.views.ViewCatalog` (incremental materialized
  views behind ``monitor.queries``),
* the :class:`~repro.obs.tracing.TraceCollector` (dispatch→outcome
  spans),
* a couple of registry counters.

View checkpoints are written every ``checkpoint_interval`` appends;
between checkpoints the views are ahead of their durable cursors, and
after a crash :meth:`ViewCatalog.bind` replays only the suffix — of the
instances that may still run. Ended instances and the provenance graph
are brought up to their logs by whoever reads them first; the registry
counts those reads (``views.deferred_catch_ups``,
``prov.deferred_catch_ups``) beside what the recovery itself replayed
and left (``recovery.instances_replayed``, ``recovery.instances_deferred``).
"""

from __future__ import annotations

from typing import Any, Dict

from ..prov.view import ProvenanceView
from .metrics import BoundedHistogram, MetricsRegistry
from .tracing import TaskSpan, TraceCollector
from .views import CHECKPOINT_PREFIX, View, ViewCatalog

__all__ = [
    "BoundedHistogram",
    "CHECKPOINT_PREFIX",
    "MetricsRegistry",
    "ObservabilityHub",
    "ProvenanceView",
    "TaskSpan",
    "TraceCollector",
    "View",
    "ViewCatalog",
]


class ObservabilityHub:
    """Metrics + views + tracing, bound to one store's event stream."""

    def __init__(self, checkpoint_interval: int = 500,
                 trace_capacity: int = 10000,
                 compact_store: bool = True):
        self.metrics = MetricsRegistry()
        self.views = ViewCatalog()
        self.views.metrics = self.metrics
        self.provenance = ProvenanceView()
        self.provenance.metrics = self.metrics
        self.tracing = TraceCollector(capacity=trace_capacity)
        self.checkpoint_interval = checkpoint_interval
        self.compact_store = compact_store
        self._since_checkpoint = 0
        self._store = None

    # -- wiring --------------------------------------------------------------

    def attach(self, store) -> None:
        """Bind to ``store``: load view checkpoints, catch up with the
        instances that may still run, and subscribe to future appends.
        Replaces any hub already attached to the store."""
        previous = getattr(store, "observability", None)
        if previous is not None and previous is not self:
            store.instances.unsubscribe(previous._on_event)
            store.data.unsubscribe(previous.provenance.on_lineage)
        self._store = store
        store.observability = self
        self.views.bind(store)
        self.provenance.bind(store)
        store.instances.subscribe(self._on_event, batch=self._on_events)

    def detach(self) -> None:
        if self._store is not None:
            self._store.instances.unsubscribe(self._on_event)
            self.provenance.unbind(self._store)
            if getattr(self._store, "observability", None) is self:
                self._store.observability = None
            self._store = None

    def successor(self) -> "ObservabilityHub":
        """Hand over at a failover: stop following the store (two hubs
        checkpointing views into one store would corrupt each other) and
        return a fresh hub of the same configuration for the replacement
        server to attach."""
        self.detach()
        return ObservabilityHub(
            checkpoint_interval=self.checkpoint_interval,
            trace_capacity=self.tracing.capacity,
            compact_store=self.compact_store,
        )

    # -- event stream (called after each durable append) ---------------------

    def _on_event(self, instance_id: str, seq: int,
                  event: Dict[str, Any]) -> None:
        self.views.apply_event(instance_id, seq, event)
        self.tracing.on_event(instance_id, event)
        self.metrics.inc("events_appended")
        self._since_checkpoint += 1
        if self._since_checkpoint >= self.checkpoint_interval:
            self.checkpoint()

    def _on_events(self, instance_id: str, start_seq: int, events) -> None:
        """Batched delivery: one view fold + one checkpoint check per
        contiguous event slice (the group-commit hot path)."""
        self.views.apply_events(instance_id, start_seq, events)
        on_event = self.tracing.on_event
        for event in events:
            on_event(instance_id, event)
        self.metrics.inc("events_appended", len(events))
        self._since_checkpoint += len(events)
        if self._since_checkpoint >= self.checkpoint_interval:
            self.checkpoint()

    def checkpoint(self) -> None:
        """Persist all view states + cursors, then compact the store.

        Order matters for the "views never lead the KV checkpoint"
        invariant: the view cursors are written *into* the KV store first,
        so the KV checkpoint that follows embeds them — a recovered store
        can never see a view cursor pointing past the event log it
        recovered. With ``compact_store`` (the default) the KV checkpoint
        also truncates every WAL segment it covers, which is what keeps
        recovery time flat in run length. Also called on demand, e.g.
        before a planned shutdown."""
        if self._store is None:
            return
        self.views.checkpoint(self._store)
        self.provenance.checkpoint(self._store)
        self._since_checkpoint = 0
        self.metrics.inc("view_checkpoints")
        if self.compact_store:
            self._store.kv.checkpoint()
            self.metrics.inc("store_checkpoints")
