"""Chaos campaigns: run a real workload under a seeded FaultPlan.

One campaign = one workload on a simulated topology, disturbed by a
:class:`~repro.faults.plan.FaultPlan` (scheduled disturbances plus
one-shot crash-point actions armed in the registry) and driven to
completion through however many injected crashes and recoveries it
takes. :func:`run_campaign` is the only campaign loop; the profile picks
the topology under it. ``mixed`` and ``partition`` run one all-vs-all
instance on one server and one cluster (``_SingleServer``); ``shard`` and
``rebalance`` run multi-tenant all-vs-all launches on a broker-fronted
plane of :data:`SHARDS` shards (``_Plane``). A topology hands the loop
its servers, its done predicate, which server an :class:`InjectedCrash`
killed, how to crash and fail over one server, its recovery-delay range,
the disturbance categories it can enact and its end-state checks; the
step loop and its wedge guards, crash counting, the seeded recovery
delay, the downtime clocks and the invariant catalog are the loop's.

Crash protocol: an :class:`InjectedCrash` unwinding out of a kernel step
means "a server process died in that window". The loop asks the topology
which one, marks it down, waits a seeded delay, and fails it over from
``store.simulate_crash()`` — so records appended but never synced are
genuinely lost, exactly like a real crash. Recovery itself runs under the
same injector, so a ``recovery.replay`` action can kill the recovering
server and force a second recovery from the same durable log.

After every successful recovery, and once more at the end, the full
invariant catalog (:mod:`repro.faults.invariants`) runs on the servers
concerned; the campaign additionally requires the final outputs to be
byte-identical to a fault-free run. Every randomized choice derives from
the campaign seed, so a failing campaign replays bit-for-bit from its
recorded plan.

The plane profiles answer one more question: **is the blast radius of a
shard failure really one shard?** A ``shard`` plan crashes one victim
shard (optionally also cutting its broker link and crashing one of its
nodes); every *other* shard's durable event log must then be
byte-identical — same events, same order, same timestamps — to a
fault-free *twin* run at the same kernel seed: a healthy shard is not
allowed to even notice the failure. Per-shard RNG namespacing and the
jitter-free control fabric are what make that falsifiable; without them
a victim's redeliveries would shift healthy shards' timings. A plan
names its victim as a fraction (``int(victim * SHARDS)``), not an index.

``rebalance`` disturbs the *topology*: the plane may grow mid-campaign,
one shard is always drained (its instances live-migrated to
router-picked siblings, then retired), and the plan arms crashes inside
the migration protocol's journaled windows (``shard.migrate.*``).
Acceptance adds :func:`repro.shard.migration_invariants` (no half-moves,
all forwards resolve, copied logs digest-identical) and a per-request
output check against the baseline — exactly-once outcomes even when the
instance changed its id mid-flight. The twin rule still applies, to
shards that were neither drained, grown, crashed, nor party to a move.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..bio import DarwinEngine, DatabaseProfile
from ..cluster import SimKernel, SimulatedCluster, uniform
from ..cluster.failures import ScenarioScript
from ..core.engine import BioOperaServer
from ..core.engine.library import ProgramRegistry
from ..errors import EngineError
from ..obs import ObservabilityHub
from ..processes import install_all_vs_all
from ..processes.activities import register_all_vs_all_programs
from ..processes.all_vs_all import (build_align_chunk_template,
                                    build_all_vs_all_template)
from ..shard import ShardedControlPlane, migration_invariants
from ..store.spaces import OperaStore
from . import invariants
from .plan import FaultPlan
from .points import FaultInjector, InjectedCrash, installed

#: quarantine policy active during campaigns (threshold, window, probe).
QUARANTINE = (3, 900.0, 300.0)

#: dispatch-lease policy active during campaigns (base seconds, cost
#: factor). Leases are what un-wedge a campaign whose completion report
#: was lost to sampled link loss with no detectable outage: the lease
#: expires, the renewal probe finds no live job, and the attempt is
#: safely re-dispatched.
LEASES = (900.0, 4.0)

#: view-checkpoint interval for campaign servers: small enough that the
#: campaign workload (tens of events fault-free, more under retries)
#: crosses it several times, so the ``obs.view.checkpoint`` and
#: ``store.checkpoint.*`` crash windows get exercised.
CHECKPOINT_INTERVAL = 20

#: WAL segment threshold for campaign stores: small enough that the
#: campaign workload rotates a handful of times, so the ``store.rotate``
#: crash window gets exercised.
SEGMENT_RECORDS = 24

#: group-commit buffer of campaign stores (``sync_policy="group"``): small
#: batches, so every campaign exercises the coalesced write+fsync windows.
GROUP_MAX_PENDING = 8

#: profiles that run on the sharded plane, its size, and the workload
#: spread over it (tenants, instances per tenant).
PLANE_PROFILES = ("shard", "rebalance")
SHARDS = 4
TENANTS = 4
INSTANCES_PER_TENANT = 2

#: wedge guards: a campaign that exceeds either has lost an invariant in a
#: way that stalls progress (the violation we report for it).
WALL_HORIZON = 2_000_000.0
MAX_EVENTS = 2_000_000


@dataclass(frozen=True)
class CampaignConfig:
    """One configuration cell: every knob a campaign build can turn.

    The defaults reproduce the classic campaign setup (group commit,
    tight checkpoint threshold, leases on). Sweeps derive cells via
    :func:`dataclasses.replace`, and :meth:`label` gives each cell a
    stable human-readable key used in journals, reports, and
    ``BENCH_chaos.json``.
    """

    nodes: int = 4
    cpus: int = 2
    granularity: int = 8
    profile: str = "mixed"
    checkpoint_interval: int = CHECKPOINT_INTERVAL
    sync_policy: str = "group"
    leases: Optional[Tuple[float, float]] = LEASES

    def replace(self, **changes) -> "CampaignConfig":
        """A copy of this config with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def label(self) -> str:
        """Stable short cell key, e.g. ``sync=group/8,ckpt=20,leases=on``."""
        sync = self.sync_policy
        if sync == "group":
            sync = f"group/{GROUP_MAX_PENDING}"
        lease = ("off" if self.leases is None
                 else f"{self.leases[0]:g}x{self.leases[1]:g}")
        cell = (f"sync={sync},ckpt={self.checkpoint_interval},"
                f"seg={SEGMENT_RECORDS},leases={lease},quar=on,"
                f"profile={self.profile}")
        if self.profile in PLANE_PROFILES:
            cell += f",shards={SHARDS}"
        return cell

    def to_dict(self) -> Dict:
        """Serialize to a JSON-safe dict (tuples become lists)."""
        data = dataclasses.asdict(self)
        data["leases"] = list(self.leases) if self.leases else None
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "CampaignConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        kwargs = dict(data)
        if kwargs.get("leases") is not None:
            kwargs["leases"] = tuple(kwargs["leases"])
        return cls(**kwargs)


def default_darwin() -> DarwinEngine:
    """The workload generator campaigns run (small modeled all-vs-all)."""
    profile = DatabaseProfile.synthetic("chaos", 120, seed=5)
    return DarwinEngine(profile, mode="modeled", random_match_rate=2e-3,
                        sample_cap=200, seed=2)


@dataclass
class CampaignResult:
    """Outcome of one seeded campaign: status, violations, fault log."""

    seed: int
    status: str = "unknown"
    violations: List[str] = field(default_factory=list)
    plan: Dict = field(default_factory=dict)
    fired: List[Dict] = field(default_factory=list)
    executed: List[str] = field(default_factory=list)
    crashes: int = 0
    recoveries: int = 0
    wall: float = 0.0
    events: int = 0
    #: total simulated seconds servers spent down (crash → recovered),
    #: summed per server across every outage, so two shards down at once
    #: count twice; the sweep's "recovery time" metric.
    recovery_time: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the run completed with no invariant violations."""
        return self.status == "completed" and not self.violations

    def categories(self) -> List[str]:
        """Fault categories that actually engaged during the run."""
        names = set(self.executed)
        names.update(f"point:{entry['point']}" for entry in self.fired)
        return sorted(names)


def _store_options(config: CampaignConfig) -> Dict:
    """Campaign store shape, shared by both topologies.

    Retained history keeps truncated WAL segments around so the
    invariant catalog can check snapshot+suffix recovery against a
    full-log replay, byte for byte, after every checkpoint. Group commit
    by default; the dispatcher's pre-submit barrier keeps node-visible
    work durable despite the buffering.
    """
    return dict(retain_history=True, segment_records=SEGMENT_RECORDS,
                sync_policy=config.sync_policy,
                group_max_pending=GROUP_MAX_PENDING)


def _build(darwin: DarwinEngine, kernel_seed: int, config: CampaignConfig):
    kernel = SimKernel(seed=kernel_seed)
    cluster = SimulatedCluster(kernel, uniform(config.nodes,
                                               cpus=config.cpus),
                               execution_noise=0.0)
    server = BioOperaServer(
        seed=kernel_seed,
        store=OperaStore(**_store_options(config)),
        observability=ObservabilityHub(
            checkpoint_interval=config.checkpoint_interval),
    )
    server.attach_environment(cluster)
    server.enable_quarantine(*QUARANTINE)
    if config.leases is not None:
        server.enable_leases(*config.leases)
    install_all_vs_all(server, darwin)
    instance_id = server.launch("all_vs_all", {
        "db_name": darwin.profile.name,
        "granularity": config.granularity,
    })
    return kernel, cluster, server, instance_id


# ----------------------------------------------------------------------
# Scheduled disturbances on one cluster: category -> params -> (start,
# stop). The vocabulary is ScenarioScript's, but its wrappers schedule
# both halves themselves and a campaign books a category as executed
# when the first half fires (a booking event of its own would change
# every run's event count), so these entries supply the halves and the
# loop schedules them through ``ScenarioScript.at``. A plan's
# disturbances may overlap, hence the checks before a node or the
# network is taken down or brought back.

def _node_outage(cluster: SimulatedCluster, names: List[str]):
    """Crash ``names`` / restore them."""
    def start():
        """Take down the nodes that are still up."""
        for name in names:
            if cluster.nodes[name].up:
                cluster.crash_node(name)

    def stop():
        """Bring back the nodes that are still down."""
        for name in names:
            if not cluster.nodes[name].up:
                cluster.restore_node(name)

    return start, stop


def _network_outage(cluster: SimulatedCluster):
    """Whole-fabric outage."""
    def start():
        """Begin the outage unless one is under way."""
        if not cluster.network.outage:
            cluster.start_network_outage()

    def stop():
        """End the outage unless another disturbance's end already did."""
        if cluster.network.outage:
            cluster.end_network_outage()

    return start, stop


def _load_burst(cluster: SimulatedCluster, names: List[str],
                fraction: float):
    """Other users occupy ``fraction`` of each named node's CPUs."""
    def start():
        """Begin the external-load burst."""
        for name in names:
            cluster.set_external_load(
                name, cluster.nodes[name].cpus * fraction)

    def stop():
        """End the external-load burst."""
        for name in names:
            cluster.set_external_load(name, 0.0)

    return start, stop


def _partition(cut: Callable[[], int], heal: Callable[[int], None]):
    """Open a partition with ``cut``; heal the id it returned."""
    opened: List[int] = []

    def stop():
        """Heal the partition, if the run got as far as opening it."""
        if opened:
            heal(opened.pop())

    return (lambda: opened.append(cut())), stop


_CLUSTER_FAULTS: Dict[str, Callable] = {
    "node-crash": lambda c, p: _node_outage(c, [p["node"]]),
    "mass-failure": lambda c, p: _node_outage(c, p["nodes"]),
    "network-outage": lambda c, p: _network_outage(c),
    "storage-full": lambda c, p: (partial(c.set_storage_full, True),
                                  partial(c.set_storage_full, False)),
    "io-error-burst": lambda c, p: (
        partial(c.set_job_failure_rate, p["rate"]),
        partial(c.set_job_failure_rate, 0.0)),
    "load-burst": lambda c, p: _load_burst(c, p["nodes"],
                                           p["load_fraction"]),
    "partition": lambda c, p: _partition(
        partial(c.start_partition, p["nodes"],
                direction=p.get("direction", "both")),
        c.heal_partition),
    "net-loss": lambda c, p: (
        partial(c.set_link_loss, "*", "*", p["rate"]),
        partial(c.set_link_loss, "*", "*", 0.0)),
    "net-duplicate": lambda c, p: (partial(c.set_duplication, p["rate"]),
                                   partial(c.set_duplication, 0.0)),
    "net-reorder": lambda c, p: (
        partial(c.set_reordering, p["rate"], p.get("extra", 1.0)),
        partial(c.set_reordering, 0.0)),
}


# ----------------------------------------------------------------------
# The two topologies: what the campaign loop is handed.

class _SingleServer:
    """One server on one cluster running one all-vs-all instance."""

    #: seconds between an injected crash and the failover attempt.
    recovery_delay = (30.0, 300.0)
    #: run 1 s after such a failover is due (the plane resumes its drain).
    after_recovery = None

    def __init__(self, darwin: DarwinEngine, kernel_seed: int,
                 config: CampaignConfig):
        self.kernel, self.cluster, _server, self.instance_id = _build(
            darwin, kernel_seed, config)
        self.at = ScenarioScript(self.cluster).at
        #: disturbance categories that engaged.
        self.executed: set = set()

    def servers(self) -> Dict[int, BioOperaServer]:
        """The servers in service, by index."""
        return {0: self.cluster.server}

    def prefix(self, index: int) -> str:
        """What a violation on server ``index`` is prefixed with."""
        return ""

    def done(self) -> bool:
        """Is the instance terminal on a live server?"""
        server = self.cluster.server
        live = server.instances.get(self.instance_id)
        return server.up and live is not None and live.terminal

    def victim(self, exc: InjectedCrash) -> int:
        """Every crash window belongs to the one server."""
        return 0

    def crash(self, index: int) -> bool:
        """Kill the server process; False if it is dead already."""
        if not self.cluster.server.up:
            return False
        self.cluster.crash_server()
        return True

    def recover(self, index: int) -> BioOperaServer:
        """Fail over from what a crash leaves of the attached server's
        store — after a killed recovery, the half-recovered server's,
        which holds everything the failed replay persisted."""
        recovered = self.cluster.recover_server(
            store=self.cluster.server.store.simulate_crash())
        # recover() already restored the policy; this re-persists it.
        # Fault actions fire on hit counts, so the commit is part of
        # every seeded campaign's schedule: dropping it changes which
        # windows the crashes land in.
        recovered.enable_quarantine(*QUARANTINE)
        return recovered

    def disturbance(self, fault, crash, recover):
        """``(start, stop)`` enacting ``fault``, or None if it cannot.

        The category is booked as executed when its start fires, whether
        or not the check inside let it act.
        """
        if fault.category == "server-crash":
            start, stop = partial(crash, 0), partial(recover, 0)
        elif fault.category in _CLUSTER_FAULTS:
            start, stop = _CLUSTER_FAULTS[fault.category](
                self.cluster, fault.params)
        else:
            return None

        def noted():
            """Book the category, then run the disturbance."""
            self.executed.add(fault.category)
            start()

        return noted, stop

    def status(self) -> str:
        """The instance's status (``lost`` if the server forgot it)."""
        live = self.cluster.server.instances.get(self.instance_id)
        return live.status if live is not None else "lost"

    def outputs(self) -> Dict:
        """The output oracle a baseline carries."""
        instance = self.cluster.server.instance(self.instance_id)
        return {"outputs": {self.instance_id: instance.outputs}}

    def end_checks(self, baseline: Dict, twin: Callable) -> List[str]:
        """Nothing beyond the per-server catalog."""
        return []


class _Plane:
    """:data:`SHARDS` shards behind a broker, multi-tenant launches."""

    recovery_delay = (20.0, 120.0)

    def __init__(self, darwin: DarwinEngine, kernel_seed: int,
                 config: CampaignConfig):
        registry = ProgramRegistry()
        register_all_vs_all_programs(registry, darwin)
        self.kernel = SimKernel(seed=kernel_seed)
        self.plane = ShardedControlPlane(
            self.kernel, shards=SHARDS, nodes_per_shard=config.nodes,
            cpus=config.cpus, seed=kernel_seed, registry=registry,
            templates=[build_align_chunk_template(),
                       build_all_vs_all_template()],
            store_options=_store_options(config),
            checkpoint_interval=config.checkpoint_interval,
            leases=config.leases, quarantine=QUARANTINE,
        )
        self.requests = [
            self.plane.launch(f"tenant{tenant}", "all_vs_all", {
                "db_name": darwin.profile.name,
                "granularity": config.granularity,
            })
            for tenant in range(TENANTS)
            for _ in range(INSTANCES_PER_TENANT)
        ]
        self.executed: set = set()
        #: shards whose timeline the campaign itself perturbed (crashed,
        #: partitioned, drained, grown, or party to a migration) — exempt
        #: from the byte-identical twin comparison.
        self.participants: set = set()
        self.drain_victim: Optional[int] = None
        # A drain interrupted by a crash is re-entered once the crashed
        # party is back.
        self.after_recovery = self._drain

    def at(self, time: float, label: str, fn: Callable) -> None:
        """Schedule one half of a disturbance at simulated ``time``."""
        self.kernel.schedule_at(time, fn, label=label)

    def servers(self) -> Dict[int, BioOperaServer]:
        """The servers in service, by index: grown shards included, a
        drained one not (its empty, retired store is judged by the
        migration invariants instead)."""
        return {shard.index: shard.server
                for shard in self.plane.shards if not shard.retired}

    def prefix(self, index: int) -> str:
        """What a violation on shard ``index`` is prefixed with."""
        return f"shard {index}: "

    def _final(self, request) -> Optional[Tuple[int, object]]:
        """``(shard, instance)`` a launch ended up as, chasing forwarding
        records; None while that cannot be told (not acked yet, a move
        in flight, the instance lost)."""
        if request.status != "done":
            return None
        try:
            owner, final_id = self.plane.resolve_instance(request.result)
        except EngineError:
            return None
        instance = self.plane.shards[owner].server.instances.get(final_id)
        return None if instance is None else (owner, instance)

    def done(self) -> bool:
        """Every launch acked and its instance terminal on a live shard?
        A drained instance counts once its *migrated* copy is terminal
        on its new home."""
        for request in self.requests:
            final = self._final(request)
            if (final is None or not final[1].terminal
                    or not self.plane.shards[final[0]].up):
                return False
        return True

    def victim(self, exc: InjectedCrash) -> Optional[int]:
        """A ``shard.migrate.*`` window fired mid-drain: prepare, export
        and commit kill the SOURCE shard, import and activate the TARGET
        — whichever party's durable state the phase was mutating."""
        current = self.plane.migrator.current or {}
        self.participants.update(
            current[side] for side in ("source", "target")
            if current.get(side) is not None)
        side = ("target" if exc.point.rsplit(".", 1)[-1]
                in ("import", "activate") else "source")
        return current.get(side, self.drain_victim)

    def crash(self, index: int) -> bool:
        """Kill one shard's server; False if it is down or retired."""
        shard = self.plane.shards[index]
        if shard.retired or not shard.up:
            return False
        self.participants.add(index)
        self.plane.crash_shard(index)
        return True

    def recover(self, index: int) -> BioOperaServer:
        """Fail one shard over from its own store (which also resumes
        any migration it was party to)."""
        return self.plane.recover_shard(index)

    def _drain(self) -> None:
        """The scheduled drain; re-entered after every mid-drain crash.

        A drain interrupted by an injected ``shard.migrate.*`` crash
        left the victim un-retired; once the crashed party recovers
        (``recover_shard`` runs ``migrator.resume()``), calling
        ``drain_shard`` again finishes the remaining moves.
        """
        index = self.drain_victim
        if index is None or self.plane.shards[index].retired:
            return
        if not self.plane.shards[index].up:
            self.kernel.schedule(30.0, self._drain,
                                 label="chaos: drain awaits recovery")
            return
        self.executed.add("shard-drain")
        self.participants.add(index)
        self.plane.drain_shard(index)

    def disturbance(self, fault, crash, recover):
        """``(start, stop)`` enacting ``fault``, or None if it cannot.

        A category is booked as executed only if it acted: a crash aimed
        at a shard or node that is down already, or retired, is not.
        """
        category, params = fault.category, fault.params
        if category == "shard-grow":
            def grow():
                """Add shards. The campaign's launches are minted
                already, so this mainly widens the drain's targets."""
                self.executed.add(category)
                self.participants.update(
                    self.plane.grow(int(params.get("count", 1))))

            return grow, None
        if category not in ("shard-crash", "shard-partition",
                            "shard-node-crash", "shard-drain"):
            return None
        index = min(SHARDS - 1, int(params["victim"] * SHARDS))
        if category == "shard-drain":
            self.drain_victim = index
            return self._drain, None
        if category == "shard-crash":
            def crash_shard():
                """Crash the victim shard if it is in service."""
                if crash(index):
                    self.executed.add(category)

            return crash_shard, partial(recover, index)
        if category == "shard-partition":
            node = None
            start, stop = _partition(
                partial(self.plane.partition_shard, index,
                        symmetric=bool(params.get("symmetric", True))),
                self.plane.heal)
        else:
            cluster = self.plane.shards[index].cluster
            names = sorted(cluster.nodes)
            node = cluster.nodes[names[min(
                len(names) - 1, int(params["node"] * len(names)))]]
            start, stop = _node_outage(cluster, [node.name])

        def disturb():
            """Cut the victim's broker link, or crash its node if up."""
            if node is None or node.up:
                self.executed.add(category)
                self.participants.add(index)
                start()

        return disturb, stop

    def status(self) -> str:
        """``completed`` if every launch's instance is, else the first
        other status — ``lost`` if any cannot be found."""
        finals = [self._final(request) for request in self.requests]
        if None in finals:
            return "lost"
        statuses = {instance.status for _owner, instance in finals}
        return ("completed" if statuses == {"completed"}
                else sorted(statuses)[0])

    def outputs(self) -> Dict:
        """The output oracles a baseline carries: by instance id, and by
        request id — the handle that survives migration re-prefixing."""
        found = [(request, self.plane.instance(request.result).outputs)
                 for request in self.requests]
        return {"outputs": {r.result: out for r, out in found},
                "outputs_by_request": {r.request_id: out
                                       for r, out in found}}

    def logs(self, index: int) -> Dict[str, str]:
        """One shard's durable event logs, canonically serialized."""
        instances = self.plane.shards[index].server.store.instances
        return {
            instance_id: json.dumps(list(instances.events(instance_id)),
                                    sort_keys=True)
            for instance_id in instances.instance_ids()
        }

    def end_checks(self, baseline: Dict, twin: Callable) -> List[str]:
        """Migration end state, per-request outputs, twin logs."""
        # No half-moves, every forward resolves, every copied log
        # digest-identical to its source. A no-op for campaigns that
        # never migrated.
        problems = [f"migration: {problem}"
                    for problem in migration_invariants(self.plane)]
        # Exactly-once outcomes across the move: per *request*, outputs
        # must match the fault-free baseline even when the instance
        # changed id and shard mid-flight.
        by_request = baseline.get("outputs_by_request") or {}
        for request in self.requests:
            expected = by_request.get(request.request_id)
            if expected is None or request.status != "done":
                continue
            final = self._final(request)
            if final is None:
                problems.append(
                    f"{request.request_id}: result {request.result!r} "
                    f"unresolvable at campaign end")
            elif (json.dumps(final[1].outputs, sort_keys=True)
                    != json.dumps(expected, sort_keys=True)):
                problems.append(
                    f"{request.request_id}: outputs diverged from the "
                    f"fault-free baseline across the move")
        # The blast-radius invariant: shards that were neither disturbed
        # nor party to a migration must not have noticed anything — logs
        # byte-identical to the twin run.
        for move in self.plane.migrator.completed:
            self.participants.update((move["source"], move["target"]))
        bystanders = set(range(SHARDS)) - self.participants
        if bystanders:
            fault_free = twin()
            problems.extend(
                f"shard {index} (non-participant) diverged from its "
                f"fault-free twin log"
                for index in sorted(bystanders)
                if self.logs(index) != fault_free.logs(index))
        return problems


def _topology(config: CampaignConfig):
    """The topology class ``config.profile`` runs on."""
    return _Plane if config.profile in PLANE_PROFILES else _SingleServer


def _wedged(kernel: SimKernel) -> Optional[str]:
    """The wedge-guard violation, once a run has outlived either guard."""
    if kernel.now > WALL_HORIZON or kernel.events_processed > MAX_EVENTS:
        return (f"wedged: no completion by t={kernel.now:.0f} after "
                f"{kernel.events_processed} events")
    return None


def _fault_free(darwin: DarwinEngine, kernel_seed: int,
                config: CampaignConfig):
    """Build the workload and run it undisturbed; returns the topology.

    At kernel seed 101 its outputs and wall time are the baseline every
    campaign of the cell is held to; at a campaign's own seed it is that
    campaign's twin.
    """
    topo = _topology(config)(darwin, kernel_seed, config)
    while not topo.done():
        if _wedged(topo.kernel) or not topo.kernel.step():
            raise EngineError("fault-free run wedged before completion")
    return topo


def fault_free_baseline(darwin: DarwinEngine,
                        config: Optional[CampaignConfig] = None) -> Dict:
    """Run the workload undisturbed; campaigns must match its outputs."""
    topo = _fault_free(darwin, 101, config or CampaignConfig())
    return {"status": topo.status(), "wall": topo.kernel.now,
            **topo.outputs()}


def plan_for(seed: int, config: CampaignConfig, baseline: Dict) -> FaultPlan:
    """The plan ``run_campaign(seed, config=config)`` generates.

    The horizon follows the cell's fault-free wall time, so disturbances
    land while work is in flight. Node names matter to the single-server
    profiles only; a plane plan names its victims as fractions.
    """
    return FaultPlan.generate(
        seed,
        sorted(node.name for node in uniform(config.nodes, cpus=config.cpus)),
        horizon=max(120.0, baseline["wall"] * 1.5),
        profile=config.profile,
    )


def run_campaign(seed: int, darwin: DarwinEngine,
                 baseline: Optional[Dict] = None,
                 plan: Optional[FaultPlan] = None,
                 config: Optional[CampaignConfig] = None,
                 trace: Optional[Callable[[str], None]] = None,
                 ) -> CampaignResult:
    """Run one seeded chaos campaign; returns its full accounting.

    ``trace`` (the ``--rerun`` repro mode) receives a line per scheduled
    disturbance, per crash, per recovery, and per invariant-catalog entry
    (pass/fail).
    """
    config = config or CampaignConfig()
    if baseline is None:
        baseline = fault_free_baseline(darwin, config=config)
    if plan is None:
        plan = plan_for(seed, config, baseline)
    kernel_seed = 900 + seed * 13
    topo = _topology(config)(darwin, kernel_seed, config)
    kernel = topo.kernel
    result = CampaignResult(seed=seed, plan=plan.to_dict())
    recovery_rng = kernel.rng("chaos-recovery")
    #: when each server that is down went down: one clock per server.
    down: Dict[int, float] = {}

    def say(line: str) -> None:
        """One timestamped ``trace`` line."""
        if trace is not None:
            trace(f"[t={kernel.now:10.1f}] {line}")

    def run_checks(server, where: str, **check_kw) -> List[str]:
        """The invariant catalog on one server; with ``trace``, one
        verdict line per invariant."""
        problems: List[str] = []
        for name, found in invariants.run_catalog(server, **check_kw):
            if trace is not None:
                trace(f"    {'FAIL' if found else 'ok  '} {where}: {name}")
                for problem in found:
                    trace(f"         - {problem}")
            problems.extend(found)
        return problems

    def take_down(index: int, scheduled: bool = True) -> bool:
        """Kill server ``index`` and start the downtime clock; False if
        the topology finds it down (or retired) already. A plan's own
        crash counts only if it took effect; an injected one has counted
        itself."""
        if not topo.crash(index):
            return False
        if scheduled:
            result.crashes += 1
        down.setdefault(index, kernel.now)
        return True

    def ensure_recovered(index: int) -> None:
        """Fail server ``index`` over from durable state if it is down."""
        server = topo.servers().get(index)
        if server is None or server.up:
            return
        try:
            recovered = topo.recover(index)
        except InjectedCrash as exc:
            # Recovery itself was killed, and whatever it had built is
            # down too. Try again from what it left durable.
            result.crashes += 1
            take_down(index, scheduled=False)
            say(f"{topo.prefix(index)}recovery killed at {exc.point} "
                f"(crash {result.crashes})")
            kernel.schedule(recovery_rng.uniform(*topo.recovery_delay),
                            ensure_recovered, index,
                            label="chaos: re-recover")
            return
        result.recoveries += 1
        result.recovery_time += kernel.now - down.pop(index, kernel.now)
        where = f"{topo.prefix(index)}after recovery {result.recoveries}"
        say(f"{where}: epoch {recovered.epoch}; checking invariants")
        result.violations.extend(
            f"{where}: {problem}"
            for problem in run_checks(recovered, where))

    for fault in plan.scheduled:
        halves = topo.disturbance(fault, take_down, ensure_recovered)
        if halves is None:
            result.violations.append(
                f"plan contains unknown category {fault.category!r}")
            continue
        start, stop = halves
        topo.at(fault.time, f"chaos: {fault.category}", start)
        if stop is not None:
            span = fault.params.get("duration",
                                    fault.params.get("recovery_after"))
            topo.at(fault.time + span, f"chaos: {fault.category} over",
                    stop)

    injector = FaultInjector(plan.actions)
    with installed(injector):
        while not topo.done():
            problem = _wedged(kernel)
            if problem is not None:
                result.violations.append(problem)
                break
            try:
                progressed = kernel.step()
            except InjectedCrash as exc:
                result.crashes += 1
                index = topo.victim(exc)
                say(f"injected crash at {exc.point} (crash "
                    f"{result.crashes}): server {index} down")
                if index is None:
                    continue
                take_down(index, scheduled=False)
                delay = recovery_rng.uniform(*topo.recovery_delay)
                kernel.schedule(delay, ensure_recovered, index,
                                label="chaos: recover")
                if topo.after_recovery is not None:
                    kernel.schedule(delay + 1.0, topo.after_recovery,
                                    label="chaos: resume after recovery")
                continue
            if not progressed:
                # Every kill above and in the plan has its failover
                # queued, so a drained queue is the system's doing.
                result.violations.append(
                    "wedged: event queue drained before completion")
                break
        result.status = topo.status()
        say(f"campaign over (status={result.status}); "
            f"final invariant catalog")
        for index, server in topo.servers().items():
            prefix = topo.prefix(index)
            result.violations.extend(
                f"{prefix}{problem}"
                for problem in run_checks(
                    server, f"{prefix}final",
                    baseline_outputs=baseline["outputs"], final=True))
    # Outside the injector: the twin must run fault-free.
    result.violations.extend(topo.end_checks(
        baseline, partial(_fault_free, darwin, kernel_seed, config)))
    result.fired = list(injector.fired)
    result.executed = sorted(topo.executed)
    result.wall = kernel.now
    result.events = kernel.events_processed
    return result
