"""Live observability: metrics, materialized views, task-span tracing.

The :class:`ObservabilityHub` is the single attachment point. The server
creates one unless handed one, attaches it to its store, and from then
on every durably appended event flows — in append order, after the
commit — into:

* the :class:`~repro.obs.views.ViewCatalog` (incremental materialized
  views behind ``monitor.queries``, and the provenance graph folded from
  the lineage the completions carry),
* the :class:`~repro.obs.tracing.TraceCollector` (dispatch→outcome
  spans),
* a couple of registry counters.

The views and the provenance graph are folds of the durable event logs
and are never stored: :meth:`ViewCatalog.bind` folds the instances that
may still run, and ended instances are brought up to their logs by
whoever reads them first — the first read of the whole graph folds them
all; the registry counts those folds (``views.deferred_catch_ups``, one
per instance) beside what the recovery itself replayed and left
(``recovery.instances_replayed``, ``recovery.instances_deferred``).
Every ``checkpoint_interval`` appends the hub compacts the store.
"""

from __future__ import annotations

from .metrics import BoundedHistogram, MetricsRegistry
from .tracing import TaskSpan, TraceCollector
from .views import View, ViewCatalog

__all__ = [
    "BoundedHistogram",
    "MetricsRegistry",
    "ObservabilityHub",
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
        #: the catalog's provenance view (``provenance.graph``).
        self.provenance = self.views.provenance
        self.tracing = TraceCollector()
        self.checkpoint_interval = checkpoint_interval
        self._since_checkpoint = 0
        self._store = None

    # -- wiring --------------------------------------------------------------

    def attach(self, store) -> None:
        """Bind to ``store``: fold the instances that may still run, and
        become the one observer of its event appends. A hub already
        attached to the store is detached first."""
        previous = getattr(store, "observability", None)
        if previous is not None and previous is not self:
            previous.detach()
        self._store = store
        store.observability = self
        self.views.bind(store)
        store.instances.observer = self._on_events

    def detach(self) -> None:
        if self._store is not None:
            self._store.instances.observer = None
            self._store.observability = None
            self._store = None

    def successor(self) -> "ObservabilityHub":
        """Hand over at a failover: stop following the store and return a
        fresh hub of the same configuration for the replacement server to
        attach."""
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
        """Checkpoint the KV store, which truncates every WAL segment it
        covers and so keeps recovery time flat in run length
        (``KVStore(retain_history=True)`` keeps the truncated segments
        for an audit). Also called on demand, e.g. before a planned
        shutdown."""
        if self._store is None:
            return
        self._since_checkpoint = 0
        self._store.kv.checkpoint()
        self.metrics.inc("store_checkpoints")
