"""Task-span tracing: one span per dispatch→completion/failure attempt.

A span opens when the server records a ``task_dispatched`` event and
closes on the matching ``task_completed`` / ``task_failed``. It carries
the timings an operator asks about when a run looks slow:

* ``queue_wait`` — enqueue → dispatch (how long placement starved it);
* ``run_time``  — dispatch → finish on the node (when the environment
  reports node-local finish times) or dispatch → close otherwise;
* ``report_delay`` — node-local finish → the event landing in the log
  (retransmitted PEC reports show up here).

Spans are process-local (a ring buffer, not durable state): they describe
attempts *this server process* witnessed. The span id
``<instance>:<path>:<attempt>`` also lands in lineage records, joining
traces to the LineageGraph.

Export is Chrome-trace JSON ("X" complete events, microsecond units) —
loadable in ``chrome://tracing`` / Perfetto, one row per node.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..core.engine.events import TASK_COMPLETED, TASK_DISPATCHED, TASK_FAILED


@dataclass
class TaskSpan:
    """One dispatch attempt of one task, open until its outcome lands."""

    span_id: str
    instance_id: str
    path: str
    node: str
    program: str
    attempt: int
    enqueued_at: Optional[float]
    dispatched_at: float
    finished_at: Optional[float] = None   # node-local finish, if known
    closed_at: Optional[float] = None     # outcome event time
    status: str = "open"                  # open | completed | failed
    reason: str = ""
    cost: float = 0.0
    annotations: Dict[str, Any] = field(default_factory=dict)

    @property
    def queue_wait(self) -> Optional[float]:
        if self.enqueued_at is None:
            return None
        return max(0.0, self.dispatched_at - self.enqueued_at)

    @property
    def run_time(self) -> Optional[float]:
        end = self.finished_at if self.finished_at is not None else self.closed_at
        if end is None:
            return None
        return max(0.0, end - self.dispatched_at)

    @property
    def report_delay(self) -> Optional[float]:
        if self.finished_at is None or self.closed_at is None:
            return None
        return max(0.0, self.closed_at - self.finished_at)


class TraceCollector:
    """Bounded in-memory span store fed by the event stream.

    The server opens spans explicitly (it knows the enqueue time); the
    hub's event stream closes them, so spans close correctly even when
    the outcome is recorded by a different code path (PEC report,
    recovery abort). Capacity-bounded: oldest closed spans fall off.
    """

    def __init__(self, capacity: int = 10000):
        self.capacity = capacity
        self.spans: Deque[TaskSpan] = deque(maxlen=capacity)
        self._open: Dict[Tuple[str, str], TaskSpan] = {}
        #: the all-instances :meth:`summary`; dropped whenever a span
        #: opens or closes, i.e. whenever it can change.
        self._summary_all: Optional[Dict[str, Any]] = None
        #: optional hook (job_id -> node-local finish time), wired to the
        #: simulated environment when one is attached.
        self.finish_time_lookup: Optional[Callable[[str], Optional[float]]] = None

    # -- span lifecycle ------------------------------------------------------

    def open_span(self, instance_id: str, path: str, node: str, program: str,
                  attempt: int, enqueued_at: Optional[float],
                  dispatched_at: float) -> TaskSpan:
        span = TaskSpan(
            span_id=f"{instance_id}:{path}:{attempt}",
            instance_id=instance_id,
            path=path,
            node=node,
            program=program,
            attempt=attempt,
            enqueued_at=enqueued_at,
            dispatched_at=dispatched_at,
        )
        self._open[(instance_id, path)] = span
        self.spans.append(span)
        self._summary_all = None
        return span

    def on_event(self, instance_id: str, event: Dict[str, Any]) -> None:
        kind = event["type"]
        if kind == TASK_DISPATCHED:
            # Span not opened by the server (e.g. replay of a foreign log):
            # open one from the event alone so traces stay usable.
            if (instance_id, event["path"]) not in self._open:
                self.open_span(
                    instance_id, event["path"], event.get("node", ""),
                    event.get("program", ""), event.get("attempt", 0),
                    None, event["time"],
                )
            return
        if kind not in (TASK_COMPLETED, TASK_FAILED):
            return
        span = self._open.pop((instance_id, event.get("path", "")), None)
        if span is None:
            return
        self._summary_all = None
        span.closed_at = event["time"]
        if kind == TASK_COMPLETED:
            span.status = "completed"
            span.cost = event.get("cost", 0.0)
        else:
            span.status = "failed"
            span.reason = event.get("reason", "")
        if self.finish_time_lookup is not None:
            job_id = f"{span.instance_id}:{span.path}:{span.attempt}"
            finished = self.finish_time_lookup(job_id)
            if finished is not None:
                span.finished_at = finished

    # -- reads ---------------------------------------------------------------

    def find(self, span_id: str) -> Optional[TaskSpan]:
        for span in self.spans:
            if span.span_id == span_id:
                return span
        return None

    def spans_for(self, instance_id: Optional[str] = None) -> List[TaskSpan]:
        if instance_id is None:
            return list(self.spans)
        return [s for s in self.spans if s.instance_id == instance_id]

    def summary(self, instance_id: Optional[str] = None) -> Dict[str, Any]:
        """Span counts and timing statistics, of one instance or of all.

        The all-instances summary is recomputed only after a span
        opened or closed; every call returns dicts of its own."""
        if instance_id is not None:
            return self._summarize(instance_id)
        if self._summary_all is None:
            self._summary_all = self._summarize(None)
        summary = self._summary_all
        return {key: dict(value) if isinstance(value, dict) else value
                for key, value in summary.items()}

    def _summarize(self, instance_id: Optional[str]) -> Dict[str, Any]:
        """One walk over the span deque (what :meth:`summary` keeps)."""
        spans = self.spans_for(instance_id)
        closed = [s for s in spans if s.closed_at is not None]
        waits = [s.queue_wait for s in closed if s.queue_wait is not None]
        runs = [s.run_time for s in closed if s.run_time is not None]
        delays = [s.report_delay for s in closed if s.report_delay is not None]

        def stats(values: List[float]) -> Dict[str, float]:
            if not values:
                return {"count": 0, "mean": 0.0, "max": 0.0}
            return {
                "count": len(values),
                "mean": sum(values) / len(values),
                "max": max(values),
            }

        return {
            "spans": len(spans),
            "open": len(spans) - len(closed),
            "completed": sum(1 for s in closed if s.status == "completed"),
            "failed": sum(1 for s in closed if s.status == "failed"),
            "queue_wait": stats(waits),
            "run_time": stats(runs),
            "report_delay": stats(delays),
        }

    # -- export --------------------------------------------------------------

    def chrome_trace(self, instance_id: Optional[str] = None) -> Dict[str, Any]:
        """Chrome-trace JSON object: one process per instance, one thread
        (row) per node; span durations as "X" complete events in µs."""
        spans = self.spans_for(instance_id)
        pids: Dict[str, int] = {}
        tids: Dict[Tuple[str, str], int] = {}
        events: List[Dict[str, Any]] = []
        for span in spans:
            pid = pids.setdefault(span.instance_id, len(pids) + 1)
            node = span.node or "(unplaced)"
            tid_key = (span.instance_id, node)
            tid = tids.setdefault(tid_key, len(tids) + 1)
            start = span.dispatched_at
            end = span.closed_at if span.closed_at is not None else start
            events.append({
                "name": f"{span.path} #{span.attempt}",
                "cat": span.status,
                "ph": "X",
                "ts": int(start * 1_000_000),
                "dur": int(max(0.0, end - start) * 1_000_000),
                "pid": pid,
                "tid": tid,
                "args": {
                    "span_id": span.span_id,
                    "program": span.program,
                    "status": span.status,
                    "reason": span.reason,
                    "cost": span.cost,
                    "queue_wait": span.queue_wait,
                    "report_delay": span.report_delay,
                },
            })
        for instance, pid in pids.items():
            events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": f"instance {instance}"},
            })
        for (_instance, node), tid in tids.items():
            pid = pids[_instance]
            events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": node},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export_chrome_trace(self, path: str,
                            instance_id: Optional[str] = None) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(instance_id), handle, indent=1)
        return path
