"""The assembled sharded control plane: broker + router + N shards.

Each :class:`Shard` is a complete, independent BioOpera deployment on
the shared simulation kernel: its own
:class:`~repro.cluster.environment.SimulatedCluster` node pool, its own
:class:`~repro.store.spaces.OperaStore` (segmented WAL, checkpoints),
its own :class:`~repro.obs.ObservabilityHub`, and a
:class:`~repro.core.engine.server.BioOperaServer` that persists its
shard index and prefixes every id it mints. The only things shards
share are the kernel, the program registry (pure code), and the
control-plane network that carries broker traffic.

Isolation is deliberate and total:

* every cluster's RNG streams are namespaced (``shard03/network``,
  ``shard03/execution-noise``, …), so one shard's traffic — or its
  crash — cannot perturb another shard's random draws;
* each shard recovers from *its own* durable store (PR 5 bounded
  recovery) under *its own* fencing epoch (PR 4), so a failover deposes
  exactly one shard;
* the broker's redelivery plus the shard operations' idempotency
  (request-keyed launches, :meth:`deliver_signal`) make a mid-crash
  request safe to replay.

Nobody tells the broker that a shard died. While anything else is
scheduled on the kernel, or a shard is down, every live shard's server
sends the broker a heartbeat each :data:`HEARTBEAT_INTERVAL` seconds,
and the broker promotes a shard it has not heard for ``takeover_after``
seconds through :meth:`ShardedControlPlane.recover_shard`, the failover
a test or an operator calls too. An idle plane sends nothing, so its
kernel queue drains.

The chaos ``shard`` profile leans on all three: it crashes one shard
mid-campaign and requires the surviving shards' event logs to be
byte-identical to a fault-free twin run.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..cluster import SimKernel, SimulatedCluster, uniform
from ..cluster.network import Network
from ..core.engine.server import BioOperaServer
from ..core.engine.library import ProgramRegistry
from ..core.model.process import ProcessTemplate
from ..errors import EngineError, UnknownShardError
from ..obs import ObservabilityHub
from ..prov import merge_prov_documents, provenance_graph
from ..prov.graph import fresh_sections
from ..store.spaces import OperaStore
from .broker import (BROKER, Forwarded, Rejected, Request, ShardBroker,
                     shard_endpoint)
from .migrate import ShardMigrator
from .router import ShardRouter

#: seconds between two heartbeats of a shard; the broker checks for
#: silence as often.
HEARTBEAT_INTERVAL = 15.0


class Shard:
    """One shard: server + store + obs hub + private node pool."""

    def __init__(self, kernel: SimKernel, index: int,
                 registry: ProgramRegistry,
                 templates: Sequence[ProcessTemplate],
                 nodes: int = 2, cpus: int = 2, seed: int = 0,
                 store_options: Optional[Dict[str, Any]] = None,
                 checkpoint_interval: int = 50,
                 leases: Optional[Tuple[float, float]] = None,
                 quarantine: Optional[Tuple[int, float, float]] = None,
                 dispatch_overhead: float = 2.0):
        self.index = index
        self.kernel = kernel
        #: set by the plane when the shard is drained and removed from
        #: service; a retired shard keeps its store (forwarding records
        #: live there) but never executes another request.
        self.retired = False
        self.cluster = SimulatedCluster(
            kernel,
            uniform(nodes, cpus=cpus, prefix=f"s{index:02d}-n"),
            execution_noise=0.0,
            dispatch_overhead=dispatch_overhead,
            rng_namespace=f"shard{index:02d}/",
        )
        self.store = OperaStore(**(store_options or {}))
        self.server = BioOperaServer(
            store=self.store, registry=registry, seed=seed,
            shard_index=index,
            observability=ObservabilityHub(
                checkpoint_interval=checkpoint_interval),
        )
        self.server.attach_environment(self.cluster)
        if leases is not None:
            self.server.enable_leases(*leases)
        if quarantine is not None:
            self.server.enable_quarantine(*quarantine)
        for template in templates:
            self.server.define_template(template)

    @property
    def up(self) -> bool:
        """Is this shard's server process alive?"""
        return self.server.up

    def execute(self, request: Request) -> Optional[tuple]:
        """Run one broker request; every commit is durable by the ack.

        Returns ``(epoch, result)`` for the ack, or None while the
        shard is down (no ack → the broker redelivers). Every operation
        is idempotent, so a redelivery after a lost ack is harmless:
        launches are keyed by request id, signal/broadcast delivery
        skips signals an instance already carries.
        """
        server = self.server
        if not server.up or self.retired:
            return None
        payload = request.payload
        if request.kind == "launch":
            result = server.launch(
                payload["template"], payload.get("inputs"),
                request_key=request.request_id,
            )
        elif request.kind == "signal":
            instance_id = payload["instance_id"]
            if instance_id in server.migrating:
                # Mid-migration pause window: defer, don't error — no
                # ack means the broker redelivers once the move (or its
                # rollback) lands, and idempotency absorbs the retry.
                return None
            if instance_id not in server.instances:
                forward = self.store.configuration.setting(
                    f"forward/{instance_id}")
                if isinstance(forward, dict) and forward.get("to"):
                    # Migrated away: tell the broker where to chase.
                    return server.epoch, Forwarded(forward["to"])
                # Neither live nor forwarded: outside input naming
                # nothing. Ack a no-op carrying the rejection.
                result = Rejected(f"unknown instance {instance_id!r}")
            else:
                result = server.deliver_signal(
                    instance_id, payload["name"],
                    payload.get("origin", "operator"),
                )
        elif request.kind == "broadcast":
            server._broadcast_local(payload["name"],
                                    payload.get("origin", "broadcast"))
            result = True
        else:
            raise EngineError(f"unknown request kind {request.kind!r}")
        return server.epoch, result

    def crash(self) -> None:
        """Kill the shard's server process (durable store survives)."""
        self.cluster.crash_server()

    def recover(self) -> BioOperaServer:
        """Shard-local failover from this shard's own durable store.

        Unsynced records die with the process (``simulate_crash``);
        everything else — shard identity, instance logs, lease and
        quarantine config, the fencing epoch — is re-derived from the
        surviving store. Nothing is inherited from any sibling shard.

        The store failed over from is that of the process attached to
        the cluster, and so is the server this shard names afterwards,
        whether or not the recovery came through: one killed part-way
        leaves its half-built successor attached, holding what the
        failed replay persisted — that is the process to kill and the
        store to fail over from next time.
        """
        try:
            self.cluster.recover_server(
                store=self.cluster.server.store.simulate_crash())
        finally:
            self.server = self.cluster.server
            self.store = self.server.store
        return self.server


class ShardedControlPlane:
    """Broker-fronted plane of N independent server shards."""

    def __init__(self, kernel: SimKernel, shards: int = 4,
                 nodes_per_shard: int = 2, cpus: int = 2, seed: int = 0,
                 registry: Optional[ProgramRegistry] = None,
                 templates: Sequence[ProcessTemplate] = (),
                 store_options: Optional[Dict[str, Any]] = None,
                 checkpoint_interval: int = 50,
                 leases: Optional[Tuple[float, float]] = None,
                 quarantine: Optional[Tuple[int, float, float]] = None,
                 dispatch_overhead: float = 2.0,
                 takeover_after: float = 60.0):
        self.kernel = kernel
        self.registry = registry or ProgramRegistry()
        self.router = ShardRouter(shards)
        # The control fabric (tenants↔broker↔shards) is separate from
        # every shard's node fabric, with a fixed 2 ms latency, zero
        # jitter and its own RNG namespace: deterministic transport, so
        # a fault in one shard cannot shift another shard's message
        # timing.
        self.control = Network(kernel, base_latency=0.002,
                               jitter=0.0, rng_namespace="control/")
        self.broker = ShardBroker(kernel, self.control, shards,
                                  takeover_after=takeover_after)
        self.broker.promote = self.recover_shard
        self._watching = False
        self.shards: List[Shard] = []
        # Remembered so grow() builds new shards with the same shape.
        self._seed = seed
        self._templates = list(templates)
        self._shard_kwargs = dict(
            nodes=nodes_per_shard, cpus=cpus, store_options=store_options,
            checkpoint_interval=checkpoint_interval, leases=leases,
            quarantine=quarantine, dispatch_overhead=dispatch_overhead,
        )
        for index in range(shards):
            self._add_shard(index)
        self._request_seq = 0
        #: the merged plane-wide PROV document and the state of every
        #: live shard's graph it was merged from, as ``(graph, its
        #: mutation count)`` pairs. Holding the graphs themselves keeps
        #: a dead one's ``id()`` from being reused by its successor.
        self._prov_merged: Dict[str, Any] = {}
        self._prov_sources: Optional[List[Tuple[Any, int]]] = None
        self.migrator = ShardMigrator(self)
        self.broker.reroute = self._reroute

    def _add_shard(self, index: int) -> Shard:
        """Build shard ``index`` and wire it into broker + fanout."""
        shard = Shard(
            self.kernel, index, self.registry, self._templates,
            seed=self._seed + index, **self._shard_kwargs,
        )
        self.broker.executors[index] = shard.execute
        shard.server.broadcast_fanout = self._fanout_broadcast
        self.shards.append(shard)
        return shard

    def _reroute(self, request: Request, forwarded) -> Optional[int]:
        """Broker hook: re-target a forwarded request at the new owner."""
        try:
            owner, final_id = self.resolve_instance(forwarded.to)
        except EngineError:
            return None
        request.payload["instance_id"] = final_id
        return owner

    # ------------------------------------------------------------------
    # Tenant-facing API (everything goes through the broker)
    # ------------------------------------------------------------------

    def _submit(self, request: Request) -> Request:
        """Hand a request to the broker; the plane has work to watch."""
        self._watch()
        return self.broker.submit(request)

    def _next_request_id(self, tenant: str) -> str:
        self._request_seq += 1
        return f"{tenant}/r{self._request_seq:07d}"

    def launch(self, tenant: str, template: str,
               inputs: Optional[Dict[str, Any]] = None) -> Request:
        """Queue a launch; the minted id arrives in ``request.result``.

        New launches hash-route by request id, which is what spreads a
        tenant's instances across the whole plane.
        """
        request_id = self._next_request_id(tenant)
        return self._submit(Request(
            request_id, tenant, "launch",
            {"template": template, "inputs": dict(inputs or {})},
            self.router.hash_route(request_id),
        ))

    def signal(self, tenant: str, instance_id: str, name: str,
               origin: str = "operator") -> Request:
        """Queue a signal for whichever shard owns ``instance_id``.

        A stale (migrated) id is chased through its forwarding records
        up front; a move racing the request in flight is caught by the
        shard itself, which answers with a forward the broker chases.
        """
        owner, final_id = self.resolve_instance(instance_id)
        return self._submit(Request(
            self._next_request_id(tenant), tenant, "signal",
            {"instance_id": final_id, "name": name, "origin": origin},
            owner,
        ))

    def broadcast_signal(self, name: str,
                         origin: str = "broadcast") -> List[Request]:
        """Fan a broadcast out to *every* shard through the broker."""
        return self._fanout_broadcast(name, origin)

    def _fanout_broadcast(self, name: str, origin: str) -> List[Request]:
        # Installed as every shard server's broadcast_fanout hook, so a
        # broadcast raised *on* one shard still reaches all of them.
        return [
            self._submit(Request(
                self._next_request_id("system"), "system", "broadcast",
                {"name": name, "origin": origin}, index,
            ))
            for index in range(len(self.shards))
            if not self.shards[index].retired
        ]

    # ------------------------------------------------------------------
    # Ownership & lookup
    # ------------------------------------------------------------------

    def shard_of(self, instance_id: str) -> Shard:
        """The shard object owning ``instance_id``."""
        return self.shards[self.router.shard_of(instance_id)]

    def resolve_instance(self, instance_id: str) -> Tuple[int, str]:
        """Chase forwarding records to the instance's current home.

        Returns ``(shard_index, final_id)``. A multi-hop chain (the
        instance migrated more than once) is followed to the end;
        raises :class:`~repro.errors.UnknownShardError` for a prefix
        past the plane or an id stranded on a retired shard with no
        forwarding record, and :class:`EngineError` on a cycle.
        """
        seen = set()
        current = instance_id
        while True:
            owner = self.router.shard_of(current)
            shard = self.shards[owner]
            forward = shard.store.configuration.setting(f"forward/{current}")
            if isinstance(forward, dict) and forward.get("to"):
                if current in seen:
                    raise EngineError(
                        f"forwarding cycle while resolving {instance_id!r}")
                seen.add(current)
                current = forward["to"]
                continue
            if shard.retired:
                raise UnknownShardError(
                    f"{current!r} lives on retired shard {owner} and has "
                    f"no forwarding record")
            return owner, current

    def instance(self, instance_id: str):
        """Cross-shard instance lookup (routed + forward-chased)."""
        owner, final_id = self.resolve_instance(instance_id)
        return self.shards[owner].server.instance(final_id)

    def export_prov(self) -> Dict[str, Any]:
        """Every live shard's PROV-JSON document, merged into one.

        The merge is redone only when some live shard's provenance graph
        is a different object (failover, migration re-sync, grow, drain)
        or has folded records since. The returned document and its
        sections are the caller's to edit; the attribute dicts inside
        the sections are shared between exports and are read-only.
        """
        graphs = [provenance_graph(shard.server.store)
                  for shard in self.shards if not shard.retired]
        sources = [(graph, graph.mutations) for graph in graphs]
        if sources != self._prov_sources:
            self._prov_merged = merge_prov_documents(
                graph.to_prov_json() for graph in graphs)
            self._prov_sources = sources
        return fresh_sections(self._prov_merged)

    # ------------------------------------------------------------------
    # Failure & failover (one shard at a time, others undisturbed)
    # ------------------------------------------------------------------

    def crash_shard(self, index: int) -> None:
        """Crash one shard's server. Nobody is told: the broker finds
        out from the silence."""
        if self.shards[index].retired:
            raise EngineError(f"shard {index} is retired")
        self.shards[index].crash()

    def recover_shard(self, index: int) -> BioOperaServer:
        """Fail one shard over from its own store and resume traffic.

        The one failover routine: the broker's detector calls it on a
        silent shard, a test or an operator directly. The new
        incarnation takes a higher epoch, which fences one that may
        still be alive behind a cut.
        """
        shard = self.shards[index]
        if shard.retired:
            raise EngineError(f"shard {index} is retired")
        server = shard.recover()
        # The fanout hook lives on the dead process's object; a
        # recovered server must get its own or broadcasts silently
        # degrade to local-only (the bug broadcast routing fixes).
        server.broadcast_fanout = self._fanout_broadcast
        self.broker.executors[index] = shard.execute
        self.broker.shard_up(index, server.epoch)
        self._watch()
        # Any migration this shard was source or target of when it died
        # is now decidable again: finish or undo it before new traffic
        # can observe a half-moved instance. No-op without journals.
        self.migrator.resume()
        return server

    def _watch(self) -> None:
        """Start the heartbeat clock unless it is running."""
        if not self._watching:
            self._watching = True
            self.broker.listen()
            self.kernel.schedule(HEARTBEAT_INTERVAL, self._pulse,
                                 label="heartbeat")

    def _pulse(self) -> None:
        """One heartbeat interval: the broker promotes the shards it has
        not heard for too long, then every live shard's server beats.
        The clock stops once every shard in service is up and nothing
        else is scheduled: a plane that cannot move has nothing to
        watch, and its kernel queue drains."""
        if self.kernel.pending == 0 and all(
                shard.up for shard in self.shards if not shard.retired):
            self._watching = False
            return
        self.kernel.schedule(HEARTBEAT_INTERVAL, self._pulse,
                             label="heartbeat")
        self.broker.detect()
        for shard in self.shards:
            if shard.up:  # a retired shard's server is down for good
                self.control.beat(self.broker.heartbeat, shard.index,
                                  shard.server.epoch,
                                  src=shard_endpoint(shard.index),
                                  dst=BROKER)

    # ------------------------------------------------------------------
    # Topology change: grow, drain, retire (in-place shrink)
    # ------------------------------------------------------------------

    def grow(self, count: int = 1) -> List[int]:
        """Add ``count`` fresh shards; new load hash-routes to them
        immediately (existing prefixed instances do not move)."""
        if count < 1:
            raise EngineError(f"cannot grow by {count}")
        added = []
        for _ in range(count):
            index = self.broker.add_shard()
            self._add_shard(index)
            added.append(index)
        self.router = self.router.grown(len(self.shards))
        return added

    def drain_shard(self, index: int,
                    targets: Optional[Sequence[int]] = None
                    ) -> Dict[str, str]:
        """Migrate every instance off shard ``index`` and retire it.

        Returns ``{old_id: new_id}``. Safe to re-run after a crash mid-
        drain: interrupted moves are resumed or rolled back first, and
        already-moved instances are simply no longer on the source.
        Walks the source's instance ids only: an instance its recovery
        deferred moves as a log and is never replayed there.
        """
        shard = self.shards[index]
        if shard.retired:
            raise EngineError(f"shard {index} is already retired")
        if not shard.server.up:
            raise EngineError(f"recover shard {index} before draining it")
        # Take the shard out of the hash route FIRST so no new launch
        # lands on it while its instances stream out.
        self.router = self.router.with_retired(index)
        self.migrator.resume()
        candidates = [
            sibling for sibling in self.router.active
            if sibling != index and self.shards[sibling].up
            and not self.shards[sibling].retired
        ]
        if targets is not None:
            chosen = [sibling for sibling in targets
                      if sibling in candidates]
            if not chosen:
                raise EngineError("no live, active target shard among "
                                  f"{list(targets)}")
            candidates = chosen
        if not candidates:
            raise EngineError("no live shard left to drain into")
        moved: Dict[str, str] = {}
        for instance_id in sorted(shard.server.instances):
            target = self.router.pick(instance_id, candidates)
            moved[instance_id] = self.migrator.migrate_instance(
                instance_id, target)
        self.retire_shard(index)
        return moved

    def retire_shard(self, index: int) -> None:
        """Remove an emptied shard from service (in-place shrink).

        The shard's store stays reachable — its forwarding records are
        what keep stale ids resolvable — but its server is down for
        good and the broker will never dispatch to it again. Un-acked
        requests it still held are resettled onto live shards.
        """
        shard = self.shards[index]
        if shard.retired:
            return
        remaining = shard.store.instances.instance_ids()
        if remaining:
            raise EngineError(
                f"shard {index} still owns {len(remaining)} instance(s); "
                f"drain it first")
        self.router = self.router.with_retired(index)
        extracted = self.broker.retire_shard(index)
        shard.retired = True
        shard.server.up = False
        for request in extracted:
            self._resettle_request(request)

    def _resettle_request(self, request: Request) -> None:
        """Give a retired shard's un-acked request a new home.

        Exactly-once across the retirement: a launch the retired shard
        already executed (its durable dedup marker exists) is completed
        from the marker instead of re-run; anything else re-queues on a
        live shard via hash/forward routing.
        """
        retired_store = self.shards[request.shard].store
        if request.kind == "launch":
            already = retired_store.configuration.setting(
                f"request/{request.request_id}")
            if already is not None:
                try:
                    _owner, final_id = self.resolve_instance(already)
                except EngineError:
                    final_id = already
                self.broker.complete_local(request, final_id)
                return
            request.shard = self.router.hash_route(request.request_id)
            self.broker._enqueue(request)
        elif request.kind == "signal":
            try:
                owner, final_id = self.resolve_instance(
                    request.payload["instance_id"])
            except EngineError:
                self.broker.unroutable += 1
                self.broker.complete_local(request, None)
                return
            request.payload["instance_id"] = final_id
            request.shard = owner
            self.broker._enqueue(request)
        else:
            # A broadcast aimed at the retired shard: nothing lives
            # there anymore, so it is vacuously delivered.
            self.broker.complete_local(request, True)

    def partition_shard(self, index: int, symmetric: bool = True) -> int:
        """Cut the broker↔shard links; heal with :meth:`heal`."""
        return self.control.partition({BROKER},
                                      {shard_endpoint(index)},
                                      symmetric=symmetric)

    def heal(self, partition_id: int) -> None:
        """Heal a :meth:`partition_shard` cut."""
        self.control.heal(partition_id)

    # ------------------------------------------------------------------
    # Driving the simulation
    # ------------------------------------------------------------------

    def run_until(self, predicate, horizon: float = 10_000_000.0,
                  max_events: int = 50_000_000) -> None:
        """Step the kernel until ``predicate()`` holds (or fail loudly)."""
        while not predicate():
            if self.kernel.now > horizon:
                raise EngineError(
                    f"horizon {horizon} reached with condition unmet")
            if self.kernel.events_processed > max_events:
                raise EngineError("event budget exhausted (wedged?)")
            if not self.kernel.step():
                if predicate():
                    return
                raise EngineError(
                    "event queue drained with condition unmet (wedged?)")

    def drain_requests(self, horizon: float = 10_000_000.0) -> None:
        """Run until every submitted broker request has been acked."""
        self.run_until(lambda: self.broker.pending() == 0,
                       horizon=horizon)
