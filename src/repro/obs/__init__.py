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

    def __init__(self, checkpoint_interval: int = 500):
        self.metrics = MetricsRegistry()
        self.views = ViewCatalog()
        self.views.metrics = self.metrics
        self.provenance = ProvenanceView()
        self.provenance.metrics = self.metrics
        self.tracing = TraceCollector()
        self.checkpoint_interval = checkpoint_interval
        self._since_checkpoint = 0
        self._store = None

    # -- wiring --------------------------------------------------------------

    def attach(self, store) -> None:
        """Bind to ``store``: load view checkpoints, catch up with the
        instances that may still run, and become the one observer of its
        event and lineage appends. A hub already attached to the store
        is detached first."""
        previous = getattr(store, "observability", None)
        if previous is not None and previous is not self:
            previous.detach()
        self._store = store
        store.observability = self
        self.views.bind(store)
        self.provenance.bind(store)
        store.instances.observer = self._on_events
        store.data.observer = self.provenance.on_lineage

    def detach(self) -> None:
        if self._store is not None:
            self._store.instances.observer = None
            self._store.data.observer = None
            self._store.observability = None
            # A view left behind its log has no log to catch up from now.
            self.provenance._store = None
            self._store = None

    def successor(self) -> "ObservabilityHub":
        """Hand over at a failover: stop following the store (two hubs
        checkpointing views into one store would corrupt each other) and
        return a fresh hub of the same configuration for the replacement
        server to attach."""
        self.detach()
        return ObservabilityHub(checkpoint_interval=self.checkpoint_interval)

    # -- event stream (called after each durable append) ---------------------

    def _on_events(self, instance_id: str, start_seq: int, events) -> None:
        """One view fold and one checkpoint check per committed slice."""
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
        recovered. The KV checkpoint also truncates every WAL segment it
        covers, which is what keeps recovery time flat in run length
        (``KVStore(retain_history=True)`` keeps the truncated segments
        for an audit). Also called on demand, e.g. before a planned
        shutdown."""
        if self._store is None:
            return
        self.views.checkpoint(self._store)
        self.provenance.checkpoint(self._store)
        self._since_checkpoint = 0
        self.metrics.inc("view_checkpoints")
        self._store.kv.checkpoint()
        self.metrics.inc("store_checkpoints")
