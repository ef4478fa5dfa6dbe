"""Incremental materialized views over the instance-space event log.

Each view keeps the *answer state* of one operator query (node usage,
event histogram, completion curve, retry hot spots, wall-time breakdown,
per-path cost) folded incrementally as events are appended — so the
queries in :mod:`repro.core.monitor.queries` become O(answer) reads
instead of O(event log) rescans.

The views are derived state and are never stored: the durable record is
the event log, and every view is a fold of it.

* the live catalog applies each event exactly once, guarded by a
  per-instance sequence cursor (re-delivered events below the cursor are
  skipped — replay is idempotent);
* :meth:`ViewCatalog.bind` folds every instance that may still run from
  sequence 0, in one walk of its log, then resumes live application. An
  instance whose log says it has ended waits: the first ``in_sync``,
  query or append that names it (or the first read of the provenance
  graph, :class:`~repro.prov.view.ProvenanceView`, the catalog's last
  view) folds its log, so a failover does not pay for finished work and
  an operator's first read of it does. A staged migration import waits
  for its activation.

Every fold is written to be *bit-identical* to the legacy full-rescan
implementation (kept in ``queries.py`` as the differential-test oracle):
the same events, in the same order, through the same float arithmetic.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..core.engine.events import (
    INFRASTRUCTURE_REASONS,
    INSTANCE_RESUMED,
    INSTANCE_SUSPENDED,
    TASK_COMPLETED,
    TASK_DISPATCHED,
    TASK_FAILED,
)
from ..core.engine.recovery import ended, staged_import
from ..errors import StoreError


def is_activity_completion(event: Dict[str, Any]) -> bool:
    """A completion reported by a node (frame/structural completions carry
    an empty ``node`` and are not activities). Zero-cost completions
    qualify — cost must never be used as a filter (it once was: the
    ``event.get("cost")`` truthiness bug dropped legitimate zero-cost
    tasks from the progress curve)."""
    return event["type"] == TASK_COMPLETED and bool(event.get("node"))


class View:
    """Base class: one operator query's answer state, per instance.

    ``interests`` is the tuple of event types the view folds (``None`` =
    every event); the catalog uses it to skip uninterested views on the
    hot path. The state lives in memory only: it is a fold of the
    durable log, rebuilt from it after a restart.
    """

    name = ""
    interests: Optional[Tuple[str, ...]] = None

    def apply(self, instance_id: str, event: Dict[str, Any]) -> None:
        raise NotImplementedError

    def forget(self, instance_id: str) -> None:
        """Drop the instance's state (it moved to another shard)."""
        self.state.pop(instance_id, None)


class NodeUsageView(View):
    """Per-node activity/CPU/failure accounting, per instance."""

    name = "node_usage"
    interests = (TASK_COMPLETED, TASK_FAILED)

    def __init__(self):
        #: instance -> node -> [activities, cpu_seconds, failures]
        self.state: Dict[str, Dict[str, List]] = {}

    def apply(self, instance_id: str, event: Dict[str, Any]) -> None:
        node = event.get("node")
        if not node:
            return
        per = self.state.get(instance_id)
        if per is None:
            per = self.state[instance_id] = {}
        entry = per.get(node)
        if entry is None:
            entry = per[node] = [0, 0.0, 0]
        if event["type"] == TASK_COMPLETED:
            entry[0] += 1
            entry[1] += event.get("cost", 0.0)
        else:
            entry[2] += 1

    def chunk(self, instance_id: str) -> List[List]:
        """``[node, activities, cpu, failures]`` rows in fold order."""
        per = self.state.get(instance_id, {})
        return [[node, e[0], e[1], e[2]] for node, e in per.items()]


class EventHistogramView(View):
    """Event counts by type, per instance."""

    name = "event_histogram"
    interests = None  # every event

    def __init__(self):
        self.state: Dict[str, Dict[str, int]] = {}

    def apply(self, instance_id: str, event: Dict[str, Any]) -> None:
        per = self.state.get(instance_id)
        if per is None:
            per = self.state[instance_id] = {}
        kind = event["type"]
        per[kind] = per.get(kind, 0) + 1

    def read(self, instance_id: str) -> Dict[str, int]:
        return dict(self.state.get(instance_id, {}))


class CompletionsView(View):
    """Activity-completion change points: ``[time, count]`` pairs.

    Bucketing is a query-time parameter, so the view stores the exact
    completion times (consecutive duplicates merged); a read folds the
    pairs into buckets — O(distinct completion times), independent of the
    event-log length.
    """

    name = "completions_over_time"
    interests = (TASK_COMPLETED,)

    def __init__(self):
        self.state: Dict[str, List[List]] = {}

    def apply(self, instance_id: str, event: Dict[str, Any]) -> None:
        if not event.get("node"):
            return  # structural (frame) completion, not an activity
        pairs = self.state.get(instance_id)
        if pairs is None:
            pairs = self.state[instance_id] = []
        time = event["time"]
        if pairs and pairs[-1][0] == time:
            pairs[-1][1] += 1
        else:
            pairs.append([time, 1])

    def read(self, instance_id: str, bucket: float) -> List[Tuple[float, int]]:
        buckets: Dict[int, int] = {}
        for time, count in self.state.get(instance_id, ()):
            index = int(time // bucket)
            buckets[index] = buckets.get(index, 0) + count
        return [(index * bucket, count)
                for index, count in sorted(buckets.items())]


class PathCostView(View):
    """Accumulated CPU cost per task path (``slowest_activities``)."""

    name = "path_cost"
    interests = (TASK_COMPLETED,)

    def __init__(self):
        self.state: Dict[str, Dict[str, float]] = {}

    def apply(self, instance_id: str, event: Dict[str, Any]) -> None:
        if not event.get("node"):
            return
        per = self.state.get(instance_id)
        if per is None:
            per = self.state[instance_id] = {}
        path = event["path"]
        per[path] = per.get(path, 0.0) + event.get("cost", 0.0)

    def read(self, instance_id: str) -> Dict[str, float]:
        return dict(self.state.get(instance_id, {}))


class RetryHotspotsView(View):
    """Dispatch counts split by failure class, plus failure reasons.

    ``counts`` rows are ``[dispatches, program_failures,
    infrastructure_failures]`` — a healthy task bounced around by node
    crashes (infrastructure) must be distinguishable from one whose
    program keeps failing.
    """

    name = "retry_hotspots"
    interests = (TASK_DISPATCHED, TASK_FAILED)

    def __init__(self):
        #: instance -> {"counts": {path: [disp, prog, infra]},
        #:              "reasons": {path: [reason, ...]}}
        self.state: Dict[str, Dict[str, Dict]] = {}

    def apply(self, instance_id: str, event: Dict[str, Any]) -> None:
        per = self.state.get(instance_id)
        if per is None:
            per = self.state[instance_id] = {"counts": {}, "reasons": {}}
        path = event["path"]
        counts = per["counts"]
        entry = counts.get(path)
        if entry is None:
            entry = counts[path] = [0, 0, 0]
        if event["type"] == TASK_DISPATCHED:
            entry[0] += 1
        else:
            reason = event["reason"]
            if reason in INFRASTRUCTURE_REASONS:
                entry[2] += 1
            else:
                entry[1] += 1
            per["reasons"].setdefault(path, []).append(reason)

    def read(self, instance_id: str) -> Tuple[Dict[str, List],
                                              Dict[str, List[str]]]:
        per = self.state.get(instance_id)
        if per is None:
            return {}, {}
        return per["counts"], per["reasons"]


class WallTimeView(View):
    """First/last event time plus suspension accounting — O(1) state.

    A second ``instance_suspended`` before a resume *closes the open
    interval first* (the legacy fold overwrote ``suspend_start`` and lost
    the earlier interval).
    """

    name = "wall_time_breakdown"
    interests = None  # needs every event's time for first/last

    def __init__(self):
        #: instance -> [start, end, suspended, suspend_start (None = not
        #: suspended)]
        self.state: Dict[str, List] = {}

    def apply(self, instance_id: str, event: Dict[str, Any]) -> None:
        time = event["time"]
        per = self.state.get(instance_id)
        if per is None:
            per = self.state[instance_id] = [time, time, 0.0, None]
        else:
            per[1] = time
        kind = event["type"]
        if kind == INSTANCE_SUSPENDED:
            if per[3] is not None:
                per[2] += time - per[3]
            per[3] = time
        elif kind == INSTANCE_RESUMED and per[3] is not None:
            per[2] += time - per[3]
            per[3] = None

    def read(self, instance_id: str) -> Dict[str, float]:
        per = self.state.get(instance_id)
        if per is None:
            return {"running": 0.0, "suspended": 0.0, "total": 0.0}
        start, end, suspended, suspend_start = per
        if suspend_start is not None:
            suspended += end - suspend_start
        total = end - start
        return {
            "running": max(0.0, total - suspended),
            "suspended": suspended,
            "total": total,
        }


VIEW_CLASSES = (
    NodeUsageView,
    EventHistogramView,
    CompletionsView,
    PathCostView,
    RetryHotspotsView,
    WallTimeView,
)


class ViewCatalog:
    """All materialized views, bound to one store's event stream.

    Application is guarded by a single per-instance cursor: all views
    advance in lock-step, in memory only.
    """

    def __init__(self):
        # Imported here: the provenance package imports this module.
        from ..prov.view import ProvenanceView

        #: the provenance graph's view, last in fold order.
        self.provenance = ProvenanceView(self)
        self.views: List[View] = [cls() for cls in VIEW_CLASSES]
        self.views.append(self.provenance)
        self.by_name: Dict[str, View] = {v.name: v for v in self.views}
        #: instance -> next sequence number to apply (all views).
        self.cursors: Dict[str, int] = {}
        #: instances that had ended when the catalog was bound, folded
        #: by their first reader (ids only, in id order).
        self._deferred: Dict[str, None] = {}
        #: the owning hub's registry, if a hub owns the catalog.
        self.metrics = None
        self._store = None
        self._handlers: Dict[str, List] = {}

    # -- typed accessors (for queries.py) ----------------------------------

    @property
    def node_usage(self) -> NodeUsageView:
        return self.by_name["node_usage"]

    @property
    def event_histogram(self) -> EventHistogramView:
        return self.by_name["event_histogram"]

    @property
    def completions(self) -> CompletionsView:
        return self.by_name["completions_over_time"]

    @property
    def path_cost(self) -> PathCostView:
        return self.by_name["path_cost"]

    @property
    def retry_hotspots(self) -> RetryHotspotsView:
        return self.by_name["retry_hotspots"]

    @property
    def wall_time(self) -> WallTimeView:
        return self.by_name["wall_time_breakdown"]

    # -- binding & recovery -------------------------------------------------

    def bind(self, store) -> None:
        """Follow ``store``: fold the instances that may still run, defer
        the ones that ended."""
        self._store = store
        self.catch_up(store)

    def catch_up(self, store) -> None:
        """Fold each instance that may still run up to its log head, in
        one walk of its log; an instance that ended waits for its first
        reader, a staged import for its activation."""
        self._deferred = {}
        for instance_id in store.instances.instance_ids():
            if staged_import(store, instance_id):
                continue
            count = store.instances.event_count(instance_id)
            if (self.cursors.get(instance_id, 0) < count
                    and ended(store, instance_id)):
                self._deferred[instance_id] = None
            else:
                self._fold_suffix(store, instance_id, count)

    def _fold_suffix(self, store, instance_id: str, count: int) -> None:
        """Bring every view to the log head: one walk of the log from the
        cursor for all of them."""
        cursor = self.cursors.get(instance_id, 0)
        if cursor < count:
            handlers: Dict[str, List] = {}
            for _seq, event in store.instances.events_from(
                    instance_id, cursor):
                kind = event["type"]
                applies = handlers.get(kind)
                if applies is None:
                    applies = handlers[kind] = [
                        view.apply for view in self.views
                        if view.interests is None or kind in view.interests
                    ]
                for apply in applies:
                    apply(instance_id, event)
        self.cursors[instance_id] = count

    def _catch_up_deferred(self, instance_id: str) -> None:
        """First use of an instance :meth:`catch_up` deferred."""
        del self._deferred[instance_id]
        self._fold_suffix(self._store, instance_id,
                          self._store.instances.event_count(instance_id))
        if self.metrics is not None:
            self.metrics.inc("views.deferred_catch_ups")

    def fold_deferred(self) -> None:
        """Fold every instance :meth:`catch_up` deferred (a read of the
        whole graph asks this first)."""
        for instance_id in list(self._deferred):
            self._catch_up_deferred(instance_id)

    def forget(self, instance_id: str) -> None:
        """Drop an instance whose committed move took its log away."""
        self._deferred.pop(instance_id, None)
        self.cursors.pop(instance_id, None)
        for view in self.views:
            view.forget(instance_id)

    # -- live application (hot path) ----------------------------------------

    def apply_event(self, instance_id: str, seq: int,
                    event: Dict[str, Any]) -> None:
        """Fold one event: a slice of one."""
        self.apply_events(instance_id, seq, (event,))

    def apply_events(self, instance_id: str, start_seq: int,
                     events) -> None:
        """Fold a contiguous event slice, exactly once per event.

        An already-folded prefix (re-delivery) is skipped, a gap between
        the cursor and the slice start raises. The cursor is committed
        to the last event actually folded even if a view raises
        mid-slice, so a retried delivery never double-folds.
        """
        if instance_id in self._deferred:
            # The slice is durable already: the catch-up folds it too.
            self._catch_up_deferred(instance_id)
        cursor = self.cursors.get(instance_id, 0)
        end = start_seq + len(events)
        if end <= cursor:
            return  # whole slice already folded (idempotent re-delivery)
        if start_seq > cursor:
            raise StoreError(
                f"view catalog missed events for {instance_id!r}: "
                f"got seq {start_seq}, expected {cursor}"
            )
        handlers_by_kind = self._handlers
        applied = cursor
        try:
            for event in (events[cursor - start_seq:]
                          if cursor > start_seq else events):
                kind = event["type"]
                handlers = handlers_by_kind.get(kind)
                if handlers is None:
                    handlers = handlers_by_kind[kind] = [
                        view.apply for view in self.views
                        if view.interests is None or kind in view.interests
                    ]
                for apply in handlers:
                    apply(instance_id, event)
                applied += 1
        finally:
            if applied != cursor:
                self.cursors[instance_id] = applied

    def in_sync(self, store, instance_id: str) -> bool:
        """Are the views at the instance's log head? Asked before every
        view read, so it is also what catches a deferred instance up."""
        if instance_id in self._deferred:
            self._catch_up_deferred(instance_id)
        return (self.cursors.get(instance_id, 0)
                == store.instances.event_count(instance_id))

    def checkpoint(self, store=None) -> None:
        """Do nothing: views are folds of the durable log and are never
        stored. A name only, for the benchmark ledger's patch table."""


# ---------------------------------------------------------------------------
# Shared fold/merge helpers — used by BOTH the view reads and the legacy
# rescan oracle in queries.py, so the two paths share every float operation
# and tie-break and stay byte-identical.
# ---------------------------------------------------------------------------


def merge_node_usage_chunks(chunks: Iterable[List[List]]) -> List[List]:
    """Merge per-instance ``[node, activities, cpu, failures]`` chunks.

    Instances are merged in the caller's order (sorted instance ids);
    within the merge, each node accumulates one per-instance subtotal at
    a time — the exact float grouping both paths share.
    """
    merged: Dict[str, List] = {}
    for chunk in chunks:
        for node, activities, cpu, failures in chunk:
            entry = merged.get(node)
            if entry is None:
                merged[node] = [node, activities, cpu, failures]
            else:
                entry[1] += activities
                entry[2] += cpu
                entry[3] += failures
    return sorted(merged.values(), key=lambda row: (-row[2], row[0]))


def rank_path_costs(costs: Dict[str, float],
                    top: int) -> List[Tuple[str, float]]:
    ranked = sorted(costs.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:top]


def rank_retry_hotspots(counts: Dict[str, List],
                        reasons: Dict[str, List[str]],
                        minimum: int) -> List[Tuple[str, Dict[str, int],
                                                    List[str]]]:
    hotspots = [
        (
            path,
            {
                "dispatches": entry[0],
                "program_failures": entry[1],
                "infrastructure_failures": entry[2],
            },
            list(reasons.get(path, ())),
        )
        for path, entry in counts.items() if entry[0] >= minimum
    ]
    return sorted(
        hotspots,
        key=lambda h: (-h[1]["program_failures"], -h[1]["dispatches"], h[0]),
    )
