"""Dispatcher: job queue, placement, and node bookkeeping.

"Once the navigator decides which step(s) to execute next, the information
is passed to the dispatcher which, in turn, schedules the task and
associates it with a processing node in the cluster and a particular
application" (paper, Section 3.2).

Jobs wait in FIFO order until a node with a free slot (and a matching
placement tag) exists; :meth:`Dispatcher.pump` places them whenever
capacity appears (job completion, node recovery, upgrades). Placement emits
the durable ``task_dispatched`` event through the server *before* the job
is handed to the execution environment.

Hot-path data structures
------------------------

The dispatcher is built to stay fast at tens of thousands of queued jobs:

* queued and in-flight jobs are indexed by queue key, by instance, and by
  node, so ``enqueue``/``is_pending`` are O(1) and ``jobs_on_node``/
  ``inflight_for_instance`` touch only their answer;
* a placement is ``policy.select(awareness.candidates(tag))``: one scan of
  the nodes carrying the tag (the paper's clusters have 5-17), the same
  contract for built-in and custom policies.

Dispatch cost
-------------

A queued job waits in exactly one place, and ``pump`` only ever looks at
the head of a queue, so a pump costs O(placed + #tags + #held instances)
whatever the number of queued jobs it cannot place:

* **its tag's heap** of ``(seq, job)``, ``seq`` being the global FIFO
  number ``enqueue`` stamps. When the head is dispatchable but no node has
  capacity for the tag, the tag joins ``_blocked_tags`` and its heap is
  left untouched (the head is peeked, never popped) until the awareness
  model reports a capacity gain for that tag — a release, node recovery,
  upgrade, or registration;
* **its instance's list in** ``_held``, when a pump reached it at the head
  of its tag and found the instance not dispatchable (suspended,
  migrating, server down). Nothing tells the dispatcher that an instance
  became dispatchable again, so every pump asks once per held *instance*
  and pushes a released instance's jobs back into their tag heaps, where
  the heap puts them at their ``seq`` position whichever instance is
  released first.

Placement order is a contract: among the jobs that are dispatchable and
whose tag has capacity, the lowest ``seq`` is placed first, as one FIFO
list scanned from the front would place them (held against the seed's
scan by ``tests/core/test_dispatch_equivalence.py``).

Queued jobs removed out of FIFO order (``drop_instance``) are tombstoned —
their key no longer maps to their sequence number — and physically
discarded when ``pump`` next reaches them.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from ...errors import DispatchError
from ...faults.points import fire
from ..monitor.awareness import AwarenessModel
from .scheduler import CapacityAwarePolicy, SchedulingPolicy


@dataclass
class JobRequest:
    """One activity execution the navigator wants run."""

    instance_id: str
    task_path: str
    program: str
    inputs: Dict[str, Any]
    attempt: int
    placement: str = ""          # required node tag, "" = anywhere
    cost_hint: float = 0.0       # estimated CPU seconds (for policies/UI)
    enqueued_at: float = 0.0
    seq: int = 0                 # global FIFO position, stamped by enqueue
    epoch: int = 0               # issuing server epoch, 0 = unfenced

    @property
    def job_id(self) -> str:
        return f"{self.instance_id}:{self.task_path}:{self.attempt}"

    @property
    def key(self) -> str:
        """Queue identity: one pending request per task occurrence."""
        return f"{self.instance_id}:{self.task_path}"


class Dispatcher:
    """Places queued jobs on cluster nodes via the scheduling policy."""

    def __init__(self, awareness: AwarenessModel,
                 policy: Optional[SchedulingPolicy] = None):
        self.awareness = awareness
        self.policy = policy or CapacityAwarePolicy()
        #: placement tag -> heap of (seq, job); may hold tombstoned entries.
        self._queues: Dict[str, List[Tuple[int, JobRequest]]] = {}
        #: instance -> its jobs taken off their tag heaps because the
        #: instance was not dispatchable when a pump reached them.
        self._held: Dict[str, List[JobRequest]] = {}
        #: live queued jobs: key -> seq of the one live request per key.
        self._queued: Dict[str, int] = {}
        #: instance -> keys of its live queued jobs (abort path).
        self._queued_by_instance: Dict[str, Set[str]] = {}
        #: tags whose head job is waiting for capacity.
        self._blocked_tags: Set[str] = set()
        self._seq = itertools.count(1)
        #: job_id -> (JobRequest, node) for everything submitted and live.
        self.in_flight: Dict[str, tuple] = {}
        self._inflight_keys: Dict[str, str] = {}        # key -> job_id
        self._inflight_by_instance: Dict[str, Set[str]] = {}
        self._inflight_by_node: Dict[str, Set[str]] = {}
        # wired by the server:
        self._submit = None          # fn(job, node)
        self._record_dispatch = None  # fn(job, node) -> bool (may veto)
        self._is_dispatchable = None  # fn(instance_id) -> bool
        #: optional MetricsRegistry (set by the server's observability hub).
        self.metrics = None
        #: optional fn(job_id) invoked whenever an in-flight job is
        #: released — the single choke point the lease table hangs off.
        self.on_release = None
        #: optional fn(instance_id, task_path) invoked whenever a task
        #: occurrence stops being pending other than by being placed — a
        #: vetoed or dropped queued job, a released in-flight one — since
        #: no instance event need follow to tell the navigator.
        self.on_key_released = None

    def wire(self, submit, record_dispatch, is_dispatchable) -> None:
        self._submit = submit
        self._record_dispatch = record_dispatch
        self._is_dispatchable = is_dispatchable

    # -- queue management ---------------------------------------------------------

    def enqueue(self, job: JobRequest) -> bool:
        """Queue a job unless an identical task occurrence is already queued
        or in flight. Returns True if the job was accepted."""
        if job.key in self._queued or job.key in self._inflight_keys:
            return False
        job.seq = next(self._seq)
        self._push(job)
        self._queued[job.key] = job.seq
        self._queued_by_instance.setdefault(
            job.instance_id, set()
        ).add(job.key)
        return True

    def _push(self, job: JobRequest) -> None:
        """Put a job at its seq position in its tag's heap: O(1) for a
        fresh enqueue (seq only rises), O(log q) for a re-entry."""
        heapq.heappush(
            self._queues.setdefault(job.placement, []), (job.seq, job)
        )

    def is_pending(self, instance_id: str, task_path: str) -> bool:
        key = f"{instance_id}:{task_path}"
        return key in self._queued or key in self._inflight_keys

    def _key_released(self, instance_id: str, task_path: str) -> None:
        if self.on_key_released is not None:
            self.on_key_released(instance_id, task_path)

    def _forget_queued(self, job: JobRequest) -> None:
        """Remove a queued job from the live indexes (placed/vetoed)."""
        self._queued.pop(job.key, None)
        keys = self._queued_by_instance.get(job.instance_id)
        if keys is not None:
            keys.discard(job.key)
            if not keys:
                del self._queued_by_instance[job.instance_id]

    def drop_instance(self, instance_id: str) -> int:
        """Remove every job of an instance (abort path): queued jobs are
        tombstoned, and in-flight jobs are routed through
        :meth:`job_finished` so their node slots are released immediately
        instead of lingering until a completion that may never arrive.
        Returns the total number of jobs removed."""
        removed = 0
        self._held.pop(instance_id, None)
        for key in self._queued_by_instance.pop(instance_id, ()):
            if self._queued.pop(key, None) is not None:
                removed += 1
                self._key_released(instance_id, key[len(instance_id) + 1:])
        for job_id in sorted(self._inflight_by_instance.get(instance_id, ())):
            if self.job_finished(job_id) is not None:
                removed += 1
        return removed

    def queue_length(self) -> int:
        return len(self._queued)

    def instances_with_jobs(self) -> Set[str]:
        """The instances with a job queued, held or in flight."""
        return (set(self._queued_by_instance) | set(self._held)
                | set(self._inflight_by_instance))

    # -- placement ---------------------------------------------------------------

    def pump(self) -> int:
        """Place as many queued jobs as capacity allows; returns the count."""
        if self._submit is None:
            raise DispatchError("dispatcher not wired to an environment")
        # Dispatchability is re-tested on every pump: a released
        # instance's jobs re-enter their tag heaps at their seq position.
        for instance_id in [held for held in self._held
                            if self._is_dispatchable(held)]:
            for job in self._held.pop(instance_id):
                self._push(job)
        # Capacity appeared somewhere since the last pump: those tags'
        # parked heads must be re-examined.
        self._blocked_tags -= self.awareness.drain_capacity_events()
        placed = examined = 0
        #: (job, node) pairs recorded this pump; handed to the environment
        #: only after the last of them is recorded, so the kernel sees one
        #: pump's hand-offs in placement order after its dispatch records.
        to_submit: List[tuple] = []
        # Merge the active tags' heaps by sequence number so jobs are
        # considered in global FIFO order, exactly like a single queue. (An
        # injected crash escaping mid-pump can leave an empty heap behind.)
        heads = [(queue[0][0], tag) for tag, queue in self._queues.items()
                 if queue and tag not in self._blocked_tags]
        heapq.heapify(heads)
        while heads:
            _seq, tag = heapq.heappop(heads)
            queue = self._queues[tag]
            job = queue[0][1]
            examined += 1
            if self._queued.get(job.key) != job.seq:
                heapq.heappop(queue)  # tombstoned by drop_instance
            elif not self._is_dispatchable(job.instance_id):
                heapq.heappop(queue)
                self._held.setdefault(job.instance_id, []).append(job)
            else:
                node = self.policy.select(self.awareness.candidates(tag))
                if node is None:
                    # The tag is out of capacity, and nothing later in this
                    # pump can add any: leave its heap as it is until the
                    # awareness model reports a gain for the tag.
                    self._blocked_tags.add(tag)
                    continue
                heapq.heappop(queue)
                recorded = self._record_dispatch(job, node)
                self._forget_queued(job)
                if not recorded:
                    # The server vetoed (instance gone / task not current).
                    self._key_released(job.instance_id, job.task_path)
                else:
                    # Crash between the durable task_dispatched record and
                    # the hand-off to the environment: recovery finds a
                    # DISPATCHED task with no job anywhere and re-runs it.
                    fire("dispatcher.submit", job=job.job_id, node=node)
                    self.awareness.assign(node, job.job_id)
                    self.in_flight[job.job_id] = (job, node)
                    self._inflight_keys[job.key] = job.job_id
                    self._inflight_by_instance.setdefault(
                        job.instance_id, set()
                    ).add(job.job_id)
                    self._inflight_by_node.setdefault(
                        node, set()
                    ).add(job.job_id)
                    to_submit.append((job, node))
                    placed += 1
            if queue:
                heapq.heappush(heads, (queue[0][0], tag))
            else:
                del self._queues[tag]
        for job, node in to_submit:
            self._submit(job, node)
        if self.metrics is not None:
            if placed:
                self.metrics.inc("placements", placed)
            if examined:
                self.metrics.inc("dispatch_examined", examined)
            self.metrics.set_gauge("queue_depth", float(len(self._queued)))
        return placed

    # -- completion bookkeeping ------------------------------------------------------

    def job_finished(self, job_id: str) -> Optional[tuple]:
        """Forget a finished job; returns its (request, node) if known."""
        entry = self.in_flight.pop(job_id, None)
        if entry is not None:
            job, node = entry
            if self._inflight_keys.get(job.key) == job_id:
                del self._inflight_keys[job.key]
                self._key_released(job.instance_id, job.task_path)
            jobs = self._inflight_by_instance.get(job.instance_id)
            if jobs is not None:
                jobs.discard(job_id)
                if not jobs:
                    del self._inflight_by_instance[job.instance_id]
            jobs = self._inflight_by_node.get(node)
            if jobs is not None:
                jobs.discard(job_id)
                if not jobs:
                    del self._inflight_by_node[node]
            self.awareness.release(node, job_id)
            if self.on_release is not None:
                self.on_release(job_id)
        return entry

    def jobs_on_node(self, node: str) -> List[str]:
        return sorted(self._inflight_by_node.get(node, ()))

    def inflight_for_instance(self, instance_id: str) -> List[str]:
        return sorted(self._inflight_by_instance.get(instance_id, ()))
