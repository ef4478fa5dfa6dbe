"""Broker layer: per-tenant FIFO intake, fair draining, reliable dispatch.

The broker is the front door of the sharded control plane. Tenants
submit launch/signal/broadcast requests; the broker queues them **per
tenant, per target shard** and drains the queues round-robin with at
most one request in flight per shard. That pair of choices is the whole
fairness mechanism: a noisy tenant can deepen only its *own* queue, and
a quiet tenant's next request (which re-enters the ring at the front)
waits at most the request currently in flight — never behind the noisy
tenant's backlog, and never even behind its next queued request.

Reliability is broker-side redelivery over idempotent shard operations:

* every request travels the epoch-stamped network fabric and is acked
  by the shard after the operation returns, when every commit it made
  is already durable;
* an un-acked request is re-sent after ``REDELIVER_AFTER`` seconds (and
  immediately when a crashed shard comes back);
* acks carry the shard's fencing epoch; the broker tracks the highest
  epoch seen per shard and drops acks from deposed incarnations;
* the shard-side operations (``launch`` with a request key,
  ``deliver_signal``, local broadcast) are idempotent, so a request the
  shard executed but whose ack was lost in the failover is harmless to
  redeliver.

The broker is also each shard's failure detector. Shards send it
heartbeats over the control fabric (:meth:`heartbeat`); :meth:`detect`
promotes, through the plane's failover, every shard it has not heard for
``takeover_after`` seconds. Silence is the only input: nobody can tell a
dead shard from a healthy one behind a cut, so a promotion can depose a
live incarnation. That is safe, not impossible: the new incarnation
takes a higher epoch, and the PECs refuse the old one's dispatches, the
new one its reports, and this broker its acks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..cluster.network import Network
from ..cluster.simulation import SimKernel
from ..errors import EngineError

#: network endpoint name of the broker.
BROKER = "broker"


def shard_endpoint(index: int) -> str:
    """Network endpoint name of shard ``index`` (``shard03``)."""
    return f"shard{index:02d}"


@dataclass(frozen=True)
class Forwarded:
    """A shard's answer to a request for an instance it migrated away.

    Carries the forwarding record's destination; the broker re-routes
    the request to the new owner (via the plane's resolve hook) instead
    of acking it. This is what lets a tenant keep using a stale id
    across a drain: the request route-chases, it never errors.
    """

    to: str


@dataclass(frozen=True)
class Rejected:
    """A shard's answer to a request naming an instance it neither owns
    nor ever forwarded (a tenant's typo, say).

    Acked like any other result — the request ends ``done`` carrying
    this, and the broker counts it ``unroutable`` — because raising
    instead would unwind the kernel loop every tenant shares.
    """

    reason: str


class Request:
    """One tenant request travelling broker → shard → ack."""

    __slots__ = ("request_id", "tenant", "kind", "payload", "shard",
                 "submitted_at", "completed_at", "status", "result",
                 "attempts")

    def __init__(self, request_id: str, tenant: str, kind: str,
                 payload: Dict[str, Any], shard: int):
        self.request_id = request_id
        self.tenant = tenant
        #: "launch" | "signal" | "broadcast" (see Shard.execute).
        self.kind = kind
        self.payload = payload
        self.shard = shard
        self.submitted_at = 0.0
        self.completed_at = 0.0
        self.status = "queued"  # queued | in-flight | done
        self.result: Any = None
        self.attempts = 0

    @property
    def latency(self) -> float:
        """Submit→ack seconds (meaningful once ``status == "done"``)."""
        return self.completed_at - self.submitted_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Request({self.request_id!r}, tenant={self.tenant!r}, "
                f"kind={self.kind!r}, shard={self.shard}, "
                f"status={self.status!r})")


class ShardBroker:
    """Per-tenant queues drained fairly into per-shard dispatch."""

    #: seconds a shard spends servicing one request. With one request
    #: in flight per shard this serializes each shard's control work —
    #: the model of one server process's CPU — so plane throughput
    #: scales with the shard count.
    SERVICE_TIME = 0.004
    #: seconds after which an un-acked request is re-sent.
    REDELIVER_AFTER = 30.0

    def __init__(self, kernel: SimKernel, network: Network, shards: int,
                 takeover_after: float = 60.0):
        self.kernel = kernel
        self.network = network
        self.shards = shards
        #: seconds of heartbeat silence after which a shard is promoted.
        self.takeover_after = takeover_after
        #: when each shard was last heard from (or came up, or the
        #: watch began): silence is measured from here.
        self._heard = [kernel.now] * shards
        #: hook(shard) promoting a silent shard, installed by the plane:
        #: its failover, ``recover_shard``.
        self.promote: Optional[Callable[[int], Any]] = None
        #: promotions the detector started.
        self.takeovers = 0
        #: shard -> callable(Request) -> (epoch, result) | None.
        #: Installed by the control plane; returning None (shard down)
        #: suppresses the ack so redelivery takes over.
        self.executors: Dict[int, Callable[[Request],
                                           Optional[tuple]]] = {}
        # Per-shard intake: tenant -> FIFO, plus the round-robin ring of
        # tenants that currently have queued work.
        self._queues: List[Dict[str, deque]] = [{} for _ in range(shards)]
        self._rings: List[deque] = [deque() for _ in range(shards)]
        self._ring_members: List[set] = [set() for _ in range(shards)]
        self._in_flight: List[Optional[Request]] = [None] * shards
        self._up = [True] * shards
        self._retired = [False] * shards
        #: highest fencing epoch seen in any ack, per shard.
        self.highest_epoch_seen = [0] * shards
        self.stale_acks_rejected = 0
        self.duplicate_acks_ignored = 0
        self.redeliveries = 0
        self.forwarded = 0
        self.unroutable = 0
        self.submitted = 0
        self.completed = 0
        self.tenant_completed: Dict[str, int] = {}
        self.tenant_latencies: Dict[str, List[float]] = {}
        #: optional hook called with each request as its ack lands.
        self.on_complete: Optional[Callable[[Request], None]] = None
        #: optional hook(request, Forwarded) -> new shard index | None,
        #: installed by the control plane; rewrites the request payload
        #: to the forwarding destination so it can be re-queued there.
        self.reroute: Optional[Callable[[Request, Forwarded],
                                        Optional[int]]] = None

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------

    def submit(self, request: Request) -> Request:
        """Queue a tenant request for its target shard."""
        request.submitted_at = self.kernel.now
        self.submitted += 1
        return self._enqueue(request)

    def _enqueue(self, request: Request) -> Request:
        """Queue (or re-queue after forwarding/retirement) a request.

        Unlike :meth:`submit` this does NOT count a new submission —
        a re-queued request is still the same pending unit of work, or
        ``pending()`` would never drain back to zero.
        """
        if not 0 <= request.shard < self.shards:
            raise EngineError(f"no shard {request.shard}")
        if self._retired[request.shard]:
            raise EngineError(f"shard {request.shard} is retired")
        request.status = "queued"
        queues = self._queues[request.shard]
        queue = queues.get(request.tenant)
        if queue is None:
            queue = queues[request.tenant] = deque()
        queue.append(request)
        members = self._ring_members[request.shard]
        if request.tenant not in members:
            # A tenant re-entering the ring (its queue just went
            # empty→non-empty) joins at the FRONT. A backlogged tenant
            # re-enters at the back on every dispatch, so this never
            # starves anyone — but it bounds a light tenant's wait to
            # less than one full service cycle, which is what keeps its
            # p99 under 2x its quiet baseline no matter how hard a
            # noisy tenant floods its own queue.
            members.add(request.tenant)
            self._rings[request.shard].appendleft(request.tenant)
        self._maybe_dispatch(request.shard)
        return request

    def pending(self) -> int:
        """Requests submitted but not yet acked, across all shards."""
        return self.submitted - self.completed

    def queue_depth(self, shard: int, tenant: Optional[str] = None) -> int:
        """Queued (not yet dispatched) requests for a shard or tenant."""
        queues = self._queues[shard]
        if tenant is not None:
            queue = queues.get(tenant)
            return len(queue) if queue is not None else 0
        return sum(len(queue) for queue in queues.values())

    # ------------------------------------------------------------------
    # Dispatch (one in flight per shard, round-robin across tenants)
    # ------------------------------------------------------------------

    def _maybe_dispatch(self, shard: int) -> None:
        if self._in_flight[shard] is not None or not self._up[shard]:
            return
        ring = self._rings[shard]
        if not ring:
            return
        tenant = ring.popleft()
        queue = self._queues[shard][tenant]
        request = queue.popleft()
        if queue:
            ring.append(tenant)  # back of the ring: round-robin
        else:
            self._ring_members[shard].discard(tenant)
        self._in_flight[shard] = request
        request.status = "in-flight"
        self._send(request)

    def _send(self, request: Request) -> None:
        request.attempts += 1
        shard = request.shard
        self.network.send(
            self._deliver, request,
            label=f"req:{request.request_id}",
            src=BROKER, dst=shard_endpoint(shard),
        )
        self.kernel.schedule(
            self.REDELIVER_AFTER, self._check_redeliver, request,
            request.attempts, label=f"redeliver:{request.request_id}",
        )

    def _deliver(self, request: Request) -> None:
        # The request reached the shard; servicing it occupies the shard
        # for SERVICE_TIME before the ack can leave.
        self.kernel.schedule(
            self.SERVICE_TIME, self._service, request,
            label=f"service:{request.request_id}",
        )

    def _service(self, request: Request) -> None:
        executor = self.executors.get(request.shard)
        if executor is None:
            return
        outcome = executor(request)
        if outcome is None:
            # Shard is down (or mid-recovery/mid-migration): no ack. The
            # redelivery timer — or shard_up() — will re-send it.
            return
        epoch, result = outcome
        if isinstance(result, Forwarded):
            self.network.send(
                self._forward_ack, request, epoch, result,
                label=f"fwd:{request.request_id}",
                src=shard_endpoint(request.shard), dst=BROKER,
            )
            return
        self.network.send(
            self._ack, request, epoch, result,
            label=f"ack:{request.request_id}",
            src=shard_endpoint(request.shard), dst=BROKER,
        )

    def _answer_is_current(self, request: Request, epoch: int) -> bool:
        """The guard every shard answer (ack or forward) passes first."""
        shard = request.shard
        if epoch < self.highest_epoch_seen[shard]:
            # Answer from a deposed incarnation of the shard server.
            self.stale_acks_rejected += 1
            return False
        self.highest_epoch_seen[shard] = epoch
        if request.status == "done":
            # A redelivered request answered twice; idempotent shard ops
            # make the extra execution harmless, and this the dedup.
            self.duplicate_acks_ignored += 1
            return False
        return True

    def _ack(self, request: Request, epoch: int, result: Any) -> None:
        if not self._answer_is_current(request, epoch):
            return
        if isinstance(result, Rejected):
            self.unroutable += 1
        self.complete_local(request, result)
        self._maybe_dispatch(request.shard)

    def _forward_ack(self, request: Request, epoch: int,
                     forwarded: Forwarded) -> None:
        """The shard says "migrated away" — chase, don't complete.

        Epoch- and duplicate-guarded like a normal ack; then the plane's
        reroute hook rewrites the payload to the forwarding destination
        and the request re-enters that shard's queue (same submission,
        not a new one).
        """
        if not self._answer_is_current(request, epoch):
            return
        shard = request.shard
        self.forwarded += 1
        if self._in_flight[shard] is request:
            self._in_flight[shard] = None
        new_shard = (None if self.reroute is None
                     else self.reroute(request, forwarded))
        if new_shard is None:
            # Unresolvable (no plane hook, or the chain dead-ends):
            # complete with no result rather than spin forever.
            self.unroutable += 1
            self.complete_local(request, None)
        else:
            request.shard = new_shard
            self._enqueue(request)
        self._maybe_dispatch(shard)

    def complete_local(self, request: Request, result: Any) -> None:
        """Mark a request done and account for it: the tail of
        :meth:`_ack`, and the administrative completion of a request no
        shard will ever ack — resettling a retired shard's queue finds
        work provably already done (a durable dedup marker exists) or
        with nowhere left to go.
        """
        if request.status == "done":
            return
        request.status = "done"
        request.result = result
        request.completed_at = self.kernel.now
        self.completed += 1
        self.tenant_completed[request.tenant] = (
            self.tenant_completed.get(request.tenant, 0) + 1
        )
        self.tenant_latencies.setdefault(request.tenant, []).append(
            request.latency
        )
        shard = request.shard
        if 0 <= shard < self.shards and self._in_flight[shard] is request:
            self._in_flight[shard] = None
        if self.on_complete is not None:
            self.on_complete(request)

    def _check_redeliver(self, request: Request, attempt: int) -> None:
        if request.status == "done" or request.attempts != attempt:
            return  # acked, or a newer send already owns the timer
        if self._in_flight[request.shard] is not request:
            return
        if not self._up[request.shard]:
            return  # shard_up() will re-send when it returns
        self.redeliveries += 1
        self._send(request)

    # ------------------------------------------------------------------
    # Shard availability (driven by the control plane)
    # ------------------------------------------------------------------

    def shard_up(self, shard: int, epoch: int) -> None:
        """Incarnation ``epoch`` of the shard serves: from now on answers
        of older epochs are refused; redeliver in-flight work, resume
        intake, and measure silence afresh."""
        if self._retired[shard]:
            raise EngineError(f"shard {shard} is retired")
        self._up[shard] = True
        self._heard[shard] = self.kernel.now
        self.highest_epoch_seen[shard] = max(
            self.highest_epoch_seen[shard], epoch)
        request = self._in_flight[shard]
        if request is not None and request.status != "done":
            self.redeliveries += 1
            self._send(request)
        else:
            self._maybe_dispatch(shard)

    # ------------------------------------------------------------------
    # Failure detection (heartbeats over the control fabric)
    # ------------------------------------------------------------------

    def heartbeat(self, shard: int, epoch: int) -> None:
        """A heartbeat from incarnation ``epoch`` of ``shard`` arrived;
        one from a deposed incarnation proves nothing."""
        if epoch >= self.highest_epoch_seen[shard]:
            self._heard[shard] = self.kernel.now

    def listen(self) -> None:
        """Measure every shard's silence from now: the watch begins."""
        self._heard = [self.kernel.now] * self.shards

    def detect(self) -> None:
        """Promote every shard silent for ``takeover_after`` seconds.

        The shard is held down first, so a promotion that dies leaves it
        down and silent, and the next check promotes it again.
        """
        now = self.kernel.now
        for shard in range(self.shards):
            if self._retired[shard] or (
                    self._up[shard]
                    and now - self._heard[shard] < self.takeover_after):
                continue
            self._up[shard] = False
            self.takeovers += 1
            self.promote(shard)

    # ------------------------------------------------------------------
    # Topology change (drain/grow, driven by the control plane)
    # ------------------------------------------------------------------

    def add_shard(self) -> int:
        """Extend the plane by one shard slot; returns its index."""
        index = self.shards
        self.shards += 1
        self._queues.append({})
        self._rings.append(deque())
        self._ring_members.append(set())
        self._in_flight.append(None)
        self._up.append(True)
        self._retired.append(False)
        self.highest_epoch_seen.append(0)
        self._heard.append(self.kernel.now)
        return index

    def retire_shard(self, shard: int) -> List[Request]:
        """Permanently stop dispatching to ``shard``.

        Returns every un-acked request it still held (the in-flight one
        first, then queued work in deterministic tenant order) for the
        control plane to resettle — re-routed, or completed from the
        retired store's durable dedup markers.
        """
        self._retired[shard] = True
        self._up[shard] = False
        extracted: List[Request] = []
        in_flight = self._in_flight[shard]
        if in_flight is not None and in_flight.status != "done":
            extracted.append(in_flight)
        self._in_flight[shard] = None
        for tenant in sorted(self._queues[shard]):
            extracted.extend(self._queues[shard][tenant])
        self._queues[shard] = {}
        self._rings[shard].clear()
        self._ring_members[shard] = set()
        for request in extracted:
            request.status = "queued"
        return extracted

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def shard_queue_stats(self) -> Dict[int, Dict[str, Any]]:
        """Per-shard backlog: depth (queued + in flight), age of the
        oldest pending request, and availability — the numbers an
        operator reads to pick a drain target."""
        stats: Dict[int, Dict[str, Any]] = {}
        now = self.kernel.now
        for shard in range(self.shards):
            pending = [request
                       for queue in self._queues[shard].values()
                       for request in queue]
            in_flight = self._in_flight[shard]
            if in_flight is not None and in_flight.status != "done":
                pending.append(in_flight)
            oldest = min((request.submitted_at for request in pending),
                         default=None)
            stats[shard] = {
                "depth": len(pending),
                "oldest_pending_age_s": (
                    0.0 if oldest is None else round(now - oldest, 6)),
                "up": self._up[shard],
                "retired": self._retired[shard],
            }
        return stats

    def tenant_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant completed count and mean/max ack latency."""
        stats: Dict[str, Dict[str, float]] = {}
        for tenant, latencies in sorted(self.tenant_latencies.items()):
            stats[tenant] = {
                "completed": self.tenant_completed.get(tenant, 0),
                "mean_latency": sum(latencies) / len(latencies),
                "max_latency": max(latencies),
            }
        return stats

    def health(self) -> Dict[str, int]:
        """Counter snapshot for consoles and tests."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "pending": self.pending(),
            "redeliveries": self.redeliveries,
            "forwarded": self.forwarded,
            "unroutable": self.unroutable,
            "stale_acks_rejected": self.stale_acks_rejected,
            "duplicate_acks_ignored": self.duplicate_acks_ignored,
            "shards_up": sum(1 for up in self._up if up),
            "shards_retired": sum(1 for retired in self._retired if retired),
        }
