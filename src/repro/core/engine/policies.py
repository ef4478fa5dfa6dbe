"""The server's four optional durable policies.

``BioOperaServer.enable_*`` installs one from the argument list it stores
as the setting :attr:`SETTING` (``recover`` re-installs what is stored);
enabling it again replaces its :attr:`args` and keeps its live state. A
policy owns its state and the environment hooks it needs, looked up once
at install, and the server core calls it at fixed points (DESIGN.md §3).
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Tuple

from ...store import codec
from . import events as ev
from .dispatcher import JobRequest


class LeasePolicy:
    """Lease every dispatch for ``base + factor * cost_hint`` seconds.

    At expiry a job the environment's ``job_alive`` vouches for renews;
    any other is cancelled and failed (``lease-expired``), so work lost
    behind a half-open partition is re-dispatched with no failure report.
    Without a ``schedule`` hook nothing could expire a lease: none is
    granted."""

    SETTING, ATTRIBUTE = "lease_config", "leases"

    def __init__(self, server, base: float = 900.0, factor: float = 4.0):
        self.server = server
        self.args = (base, factor)
        self._schedule = getattr(server.environment, "schedule", None)
        self._alive = getattr(server.environment, "job_alive", None)
        #: job_id -> live lease record (key, attempt, node, duration, event).
        self.held: Dict[str, Dict[str, Any]] = {}
        self._holders: Dict[str, str] = {}  # job key -> holder job_id
        server.dispatcher.on_release = self.release

    def grant(self, job: JobRequest, node: str) -> None:
        if self._schedule is None:
            return
        holder = self._holders.get(job.key)
        if holder is not None and holder in self.held:
            # Two live leases for one task occurrence would mean two
            # concurrent legitimate executions — the invariant chaos checks.
            self.server.metrics["lease_double_grants"] += 1
        base, factor = self.args
        duration = base + factor * max(0.0, job.cost_hint)
        event = self._schedule(duration, self._expired, job.job_id,
                               job.attempt, label=f"lease:{job.job_id}")
        self.held[job.job_id] = {
            "key": job.key, "attempt": job.attempt, "node": node,
            "duration": duration, "event": event,
        }
        self._holders[job.key] = job.job_id
        self.server.metrics["leases_granted"] += 1

    def release(self, job_id: str) -> None:
        lease = self.held.pop(job_id, None)
        if lease is None:
            return
        if self._holders.get(lease["key"]) == job_id:
            del self._holders[lease["key"]]
        event = lease.get("event")
        if event is not None and hasattr(event, "cancel"):
            event.cancel()

    def _expired(self, job_id: str, attempt: int) -> None:
        lease = self.held.get(job_id)
        if lease is None or lease["attempt"] != attempt:
            return
        server = self.server
        if not server.up or server._fenced():
            return
        entry = server.dispatcher.in_flight.get(job_id)
        if entry is None:
            self.release(job_id)
            return
        job, node = entry
        if self._alive is not None and self._alive(node, job_id):
            server.metrics["leases_renewed"] += 1
            lease["event"] = self._schedule(
                lease["duration"], self._expired, job_id, attempt,
                label=f"lease:{job_id}",
            )
            return
        # The kill models the PEC abandoning work whose lease it cannot
        # renew, so re-dispatching is safe even if the old node is alive
        # behind a partition. The failure report releases the job.
        server.metrics["leases_expired"] += 1
        server.environment.cancel(job_id)
        server.on_job_failed(job_id, "lease-expired", node,
                             detail="dispatch lease expired without renewal",
                             epoch=server.epoch)


class QuarantinePolicy:
    """Bench a node after ``threshold`` node-attributed failures
    (:data:`~repro.core.engine.events.NODE_ATTRIBUTED_REASONS`) within
    ``window`` seconds, until a probe the environment's ``schedule_probe``
    runs ``probe_after`` seconds later passes. Without probe support no
    node is benched: it would have no way back.
    """

    SETTING, ATTRIBUTE = "quarantine_config", "quarantine"

    def __init__(self, server, threshold: int = 3, window: float = 900.0,
                 probe_after: float = 600.0):
        self.server = server
        self.args = (threshold, window, probe_after)
        self._probe = getattr(server.environment, "schedule_probe", None)
        #: node -> times of its strikes inside the window, oldest first.
        self.strikes: Dict[str, List[float]] = {}

    def strike(self, node: str, now: float) -> None:
        """Count one node-attributed failure; the last one benches."""
        awareness = self.server.awareness
        if not awareness.has_node(node):
            return
        view = awareness.node(node)
        if not view.up or view.quarantined or self._probe is None:
            return
        threshold, window, probe_after = self.args
        history = self.strikes.setdefault(node, [])
        history.append(now)
        while history and history[0] <= now - window:
            history.pop(0)
        if len(history) < threshold:
            return
        history.clear()
        awareness.quarantine(node)
        self.server.obs.metrics.inc("nodes_quarantined")
        self._probe(node, probe_after)

    def forget(self, node: str) -> None:
        """A fresh join or a passed probe wipes the node's strikes."""
        self.strikes.pop(node, None)

    def probed(self, node: str, ok: bool) -> None:
        """A probe's verdict: forget the strikes, or probe again later."""
        if ok:
            self.forget(node)
        elif self._probe is not None:
            self._probe(node, self.args[2])


class MemoPolicy:
    """Cache task results by content key (program + canonical inputs): a
    hit completes the queued task at once, on the virtual node ``"memo"``
    at zero cost; a miss dispatches, and its result is stored."""

    SETTING, ATTRIBUTE = "memo_config", "memo"

    def __init__(self, server):
        self.server = server
        self.args = ()
        #: (instance_id, path, attempt) -> content key of a queued or
        #: running execution, for its completion's lineage and its result.
        self.pending: Dict[Tuple[str, str, int], str] = {}

    def consult(self, instance_id: str, task_path: str, program: str,
                inputs: Dict[str, Any], attempt: int) -> bool:
        """Serve a queued task from the cache; True if it was (nothing is
        dispatched then)."""
        server = self.server
        stash = (instance_id, task_path, attempt)
        self.pending[stash] = key = hashlib.sha256(codec.encode({
            "program": program,
            "inputs": {name: inputs[name] for name in sorted(inputs)},
        })).hexdigest()
        cached = server.store.data.memo_get(key)
        instance = server.instances.get(instance_id)
        if cached is None or instance is None:
            server.metrics["memo_misses"] += 1
            return False
        server.metrics["memo_hits"] += 1
        # An ordinary dispatched -> completed pair, so replay, views,
        # lineage and the exactly-once checks need no special case.
        now = server.clock()
        server.emit_batch(instance, [
            ev.task_dispatched(task_path, "memo", program, attempt, now),
            ev.task_completed(task_path, cached, 0.0, "memo", now),
        ])
        self.pending.pop(stash, None)
        return True

    def complete(self, job: JobRequest, outputs: Dict[str, Any]) -> None:
        """Store a completed job's result, once the completion is durable
        in the log (the cache is a cache)."""
        key = self.pending.pop(
            (job.instance_id, job.task_path, job.attempt), None)
        if key is not None:
            self.server.store.data.memo_put(key, outputs)

    def forget(self, job: JobRequest) -> None:
        """The job ended without a result; a retry re-derives the key."""
        self.pending.pop((job.instance_id, job.task_path, job.attempt), None)

    def forget_instance(self, instance_id: str) -> None:
        for stash in [stash for stash in self.pending
                      if stash[0] == instance_id]:
            del self.pending[stash]


class RebalancePolicy:
    """Kill-and-restart load balancing (paper Section 5.4's discussion).

    A job whose estimated progress rate is below ``min_rate`` is killed
    and re-queued if another node offers ``improvement`` times its rate,
    until its task has had ``max_attempts`` dispatches (each restart
    discards progress; chasing a moving load without bound livelocks)."""

    SETTING, ATTRIBUTE = "migration_config", "migration"

    def __init__(self, server, min_rate: float = 0.25,
                 improvement: float = 2.0, max_attempts: int = 6):
        self.server = server
        self.args = (min_rate, improvement, max_attempts)

    def review(self) -> None:
        """Move at most ONE starving job: several chasing the same freed
        slot would push the overflow onto nodes as bad as they left."""
        for view in self.server.awareness.nodes():
            if view.assigned and self._rebalance(view.name):
                return

    @staticmethod
    def _estimated_rate(view, extra_jobs: int = 0) -> float:
        jobs = max(1, view.assigned_count + extra_jobs)
        free = max(0.0, view.cpus - view.external_load)
        return view.speed * min(1.0, free / jobs)

    def _rebalance(self, node: str) -> bool:
        """Move at most one starving job off ``node``; True if it did."""
        server = self.server
        min_rate, improvement, max_attempts = self.args
        view = server.awareness.node(node)
        if not view.up or view.assigned_count == 0:
            return False
        current_rate = self._estimated_rate(view)
        if current_rate >= min_rate:
            return False
        for job_id in server.dispatcher.jobs_on_node(node):
            entry = server.dispatcher.in_flight.get(job_id)
            if entry is None:
                continue
            job, _node = entry
            best = max((self._estimated_rate(c, extra_jobs=1)
                        for c in server.awareness.candidates(job.placement)
                        if c.name != node), default=0.0)
            if best < improvement * max(current_rate, 1e-9):
                continue
            instance = server.instances.get(job.instance_id)
            if (instance is None or instance.terminal
                    or job.task_path.endswith("#comp")  # an undo stays put
                    or not server._is_current(instance, job)):
                continue
            if instance.find_state(job.task_path).attempts >= max_attempts:
                continue
            server._kill(job_id)
            server.obs.metrics.inc("jobs_migrated")
            server.emit(instance, ev.task_failed(
                job.task_path, "migrated", node, job.attempt, server.clock(),
                detail="kill-and-restart load balancing",
            ))
            server.navigator.navigate(instance)
            return True
        return False
