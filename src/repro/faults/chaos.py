"""Chaos campaigns: run a real workload under a seeded FaultPlan.

One campaign = one all-vs-all process instance on a simulated cluster,
disturbed by a :class:`~repro.faults.plan.FaultPlan` (cluster-level
disturbances scheduled through :class:`ScenarioScript` plus one-shot
crash-point actions armed in the registry), driven to completion through
however many injected crashes and recoveries it takes.

Crash protocol: an :class:`InjectedCrash` unwinding out of a kernel step
means "the server process died in that window". The driver marks the
server down, waits a seeded delay, and recovers from
``store.simulate_crash()`` — so records appended but never synced are
genuinely lost, exactly like a real crash. Recovery itself runs under the
same injector, so a ``recovery.replay`` action can kill the recovering
server and force a second recovery from the same durable log.

After every successful recovery, and once more at the end, the full
invariant catalog (:mod:`repro.faults.invariants`) runs; the campaign
additionally requires the final outputs to be byte-identical to a
fault-free run. Every randomized choice derives from the campaign seed,
so a failing campaign replays bit-for-bit from its recorded plan.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..bio import DarwinEngine, DatabaseProfile
from ..cluster import SimKernel, SimulatedCluster, uniform
from ..cluster.failures import ScenarioScript
from ..core.engine import BioOperaServer
from ..obs import ObservabilityHub
from ..processes import install_all_vs_all
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

#: wedge guards: a campaign that exceeds either has lost an invariant in a
#: way that stalls progress (the violation we report for it).
WALL_HORIZON = 2_000_000.0
MAX_EVENTS = 2_000_000


@dataclass(frozen=True)
class CampaignConfig:
    """One configuration cell: every knob a campaign build can turn.

    The defaults reproduce the classic campaign setup (group commit with
    a small buffer, tight checkpoint/rotation thresholds, leases and
    quarantine on). Sweeps derive cells via :func:`dataclasses.replace`,
    and :meth:`label` gives each cell a stable human-readable key used in
    journals, reports, and ``BENCH_chaos.json``.
    """

    nodes: int = 4
    cpus: int = 2
    granularity: int = 8
    profile: str = "mixed"
    #: shard count for ``profile="shard"`` campaigns (ignored by the
    #: single-server profiles, which is why label() only shows it there).
    shards: int = 4
    checkpoint_interval: int = CHECKPOINT_INTERVAL
    segment_records: int = SEGMENT_RECORDS
    sync_policy: str = "group"
    group_max_pending: int = 8
    leases: Optional[Tuple[float, float]] = LEASES
    quarantine: Optional[Tuple[int, float, float]] = QUARANTINE

    def replace(self, **changes) -> "CampaignConfig":
        """A copy of this config with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def label(self) -> str:
        """Stable short cell key, e.g. ``sync=group/8,ckpt=20,leases=on``."""
        sync = self.sync_policy
        if sync == "group":
            sync = f"group/{self.group_max_pending}"
        lease = ("off" if self.leases is None
                 else f"{self.leases[0]:g}x{self.leases[1]:g}")
        quar = "off" if self.quarantine is None else "on"
        cell = (f"sync={sync},ckpt={self.checkpoint_interval},"
                f"seg={self.segment_records},leases={lease},quar={quar},"
                f"profile={self.profile}")
        if self.profile in ("shard", "rebalance"):
            cell += f",shards={self.shards}"
        return cell

    def to_dict(self) -> Dict:
        """Serialize to a JSON-safe dict (tuples become lists)."""
        data = dataclasses.asdict(self)
        data["leases"] = list(self.leases) if self.leases else None
        data["quarantine"] = (list(self.quarantine)
                              if self.quarantine else None)
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "CampaignConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        kwargs = dict(data)
        if kwargs.get("leases") is not None:
            kwargs["leases"] = tuple(kwargs["leases"])
        if kwargs.get("quarantine") is not None:
            kwargs["quarantine"] = tuple(kwargs["quarantine"])
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
    #: total simulated seconds the server spent down (crash → recovered),
    #: summed across every outage; the sweep's "recovery time" metric.
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


def _build(darwin: DarwinEngine, kernel_seed: int, config: CampaignConfig):
    kernel = SimKernel(seed=kernel_seed)
    cluster = SimulatedCluster(kernel, uniform(config.nodes,
                                               cpus=config.cpus),
                               execution_noise=0.0)
    server = BioOperaServer(
        seed=kernel_seed,
        # Retained history keeps truncated WAL segments around so the
        # invariant catalog can check snapshot+suffix recovery against a
        # full-log replay, byte for byte, after every checkpoint.
        # Group commit by default (small batches) so every campaign
        # exercises the coalesced write+fsync windows; the dispatcher's
        # pre-submit barrier keeps node-visible work durable despite the
        # buffering. Sweeps override any of these knobs per cell.
        store=OperaStore(retain_history=True,
                         segment_records=config.segment_records,
                         sync_policy=config.sync_policy,
                         group_max_pending=config.group_max_pending),
        observability=ObservabilityHub(
            checkpoint_interval=config.checkpoint_interval),
    )
    server.attach_environment(cluster)
    if config.quarantine is not None:
        server.enable_quarantine(*config.quarantine)
    if config.leases is not None:
        server.enable_leases(*config.leases)
    install_all_vs_all(server, darwin)
    instance_id = server.launch("all_vs_all", {
        "db_name": darwin.profile.name,
        "granularity": config.granularity,
    })
    return kernel, cluster, server, instance_id


def fault_free_baseline(darwin: DarwinEngine,
                        config: Optional[CampaignConfig] = None) -> Dict:
    """Run the workload undisturbed; campaigns must match its outputs."""
    config = config or CampaignConfig()
    if config.profile in ("shard", "rebalance"):
        # Imported lazily: shard_campaign imports this module's config
        # and result types.
        from .shard_campaign import shard_baseline

        return shard_baseline(darwin, config)
    kernel, cluster, server, instance_id = _build(
        darwin, kernel_seed=101, config=config,
    )
    status = cluster.run_until_instance_done(instance_id)
    return {
        "status": status,
        "outputs": {instance_id: server.instance(instance_id).outputs},
        "wall": kernel.now,
    }


def _schedule_plan(plan: FaultPlan, cluster: SimulatedCluster,
                   executed: set, result: CampaignResult,
                   ensure_recovered, mark_down=lambda: None) -> None:
    """Translate the plan's scheduled disturbances into kernel events."""
    script = ScenarioScript(cluster)

    def noted(category, fn):
        """Record the category, then run the disturbance."""
        def run():
            """The wrapped disturbance callback."""
            executed.add(category)
            fn()
        return run

    for fault in plan.scheduled:
        category, time, params = fault.category, fault.time, fault.params
        if category == "node-crash":
            node = params["node"]
            script.at(time, f"chaos: crash {node}", noted(
                category,
                lambda n=node: cluster.nodes[n].up and cluster.crash_node(n),
            ))
            script.at(time + params["duration"], f"chaos: restore {node}",
                      lambda n=node: (not cluster.nodes[n].up
                                      and cluster.restore_node(n)))
        elif category == "mass-failure":
            names = params["nodes"]

            def crash_all(names=names):
                """Take the whole node set down at once."""
                for name in names:
                    if cluster.nodes[name].up:
                        cluster.crash_node(name)

            def restore_all(names=names):
                """Bring the mass-failed nodes back."""
                for name in names:
                    if not cluster.nodes[name].up:
                        cluster.restore_node(name)

            script.at(time, "chaos: mass failure", noted(category, crash_all))
            script.at(time + params["duration"], "chaos: mass restore",
                      restore_all)
        elif category == "network-outage":
            script.at(time, "chaos: network outage", noted(
                category,
                lambda: (not cluster.network.outage
                         and cluster.start_network_outage()),
            ))
            script.at(time + params["duration"], "chaos: outage over",
                      lambda: cluster.network.outage
                      and cluster.end_network_outage())
        elif category == "storage-full":
            script.at(time, "chaos: storage full", noted(
                category, lambda: cluster.set_storage_full(True)
            ))
            script.at(time + params["duration"], "chaos: storage freed",
                      lambda: cluster.set_storage_full(False))
        elif category == "io-error-burst":
            rate = params["rate"]
            script.at(time, "chaos: io errors", noted(
                category, lambda r=rate: cluster.set_job_failure_rate(r)
            ))
            script.at(time + params["duration"], "chaos: io errors over",
                      lambda: cluster.set_job_failure_rate(0.0))
        elif category == "load-burst":
            names, fraction = params["nodes"], params["load_fraction"]

            def start_load(names=names, fraction=fraction):
                """Begin the external-load burst."""
                for name in names:
                    cpus = cluster.nodes[name].cpus
                    cluster.set_external_load(name, cpus * fraction)

            def stop_load(names=names):
                """End the external-load burst."""
                for name in names:
                    cluster.set_external_load(name, 0.0)

            script.at(time, "chaos: load burst", noted(category, start_load))
            script.at(time + params["duration"], "chaos: load burst over",
                      stop_load)
        elif category == "partition":
            names = params["nodes"]
            direction = params.get("direction", "both")
            handle: Dict[str, int] = {}

            def cut(names=names, direction=direction, handle=handle):
                """Open the scheduled partition."""
                handle["id"] = cluster.start_partition(
                    names, direction=direction
                )

            def heal(handle=handle):
                """Heal the scheduled partition."""
                pid = handle.pop("id", None)
                if pid is not None:
                    cluster.heal_partition(pid)

            script.at(time, f"chaos: partition {direction}",
                      noted(category, cut))
            script.at(time + params["duration"], "chaos: partition heals",
                      heal)
        elif category == "net-loss":
            rate = params["rate"]
            script.at(time, "chaos: link loss", noted(
                category, lambda r=rate: cluster.set_link_loss("*", "*", r)
            ))
            script.at(time + params["duration"], "chaos: link loss over",
                      lambda: cluster.set_link_loss("*", "*", 0.0))
        elif category == "net-duplicate":
            rate = params["rate"]
            script.at(time, "chaos: duplication", noted(
                category, lambda r=rate: cluster.set_duplication(r)
            ))
            script.at(time + params["duration"], "chaos: duplication over",
                      lambda: cluster.set_duplication(0.0))
        elif category == "net-reorder":
            rate, extra = params["rate"], params.get("extra", 1.0)
            script.at(time, "chaos: reordering", noted(
                category,
                lambda r=rate, e=extra: cluster.set_reordering(r, e),
            ))
            script.at(time + params["duration"], "chaos: reordering over",
                      lambda: cluster.set_reordering(0.0))
        elif category == "server-crash":
            def crash_server():
                """Kill the server (recovery follows after the delay)."""
                if cluster.server.up:
                    cluster.crash_server()
                    result.crashes += 1
                    mark_down()

            script.at(time, "chaos: server crash",
                      noted(category, crash_server))
            script.at(time + params["recovery_after"],
                      "chaos: server recovery", ensure_recovered)
        else:
            result.violations.append(
                f"plan contains unknown category {category!r}"
            )


def run_campaign(seed: int, darwin: DarwinEngine,
                 baseline: Optional[Dict] = None,
                 plan: Optional[FaultPlan] = None,
                 config: Optional[CampaignConfig] = None,
                 trace: Optional[Callable[[str], None]] = None,
                 ) -> CampaignResult:
    """Run one seeded chaos campaign; returns its full accounting.

    ``trace`` (the ``--rerun`` repro mode) receives a line per injected
    crash, per recovery, and per invariant-catalog entry (pass/fail).
    """
    config = config or CampaignConfig()
    if config.profile in ("shard", "rebalance"):
        from .shard_campaign import run_shard_campaign

        return run_shard_campaign(seed, darwin, baseline=baseline,
                                  plan=plan, config=config, trace=trace)
    if baseline is None:
        baseline = fault_free_baseline(darwin, config=config)
    kernel, cluster, _server, instance_id = _build(
        darwin, kernel_seed=900 + seed * 13, config=config,
    )
    if plan is None:
        plan = FaultPlan.generate(
            seed, sorted(cluster.nodes),
            horizon=max(120.0, baseline["wall"] * 1.5),
            profile=config.profile,
        )
    result = CampaignResult(seed=seed, plan=plan.to_dict())
    executed: set = set()
    recovery_rng = kernel.rng("chaos-recovery")
    down = {"since": None}

    def mark_down():
        """Start the downtime clock (first crash of this outage)."""
        if down["since"] is None:
            down["since"] = kernel.now

    def run_checks(server, label, **check_kw):
        """Invariant catalog, flat or per-invariant when tracing."""
        if trace is None:
            return invariants.check_server(server, **check_kw)
        problems: List[str] = []
        for name, found in invariants.run_catalog(server, **check_kw):
            marker = "FAIL" if found else "ok  "
            trace(f"    {marker} {label}: {name}")
            for problem in found:
                trace(f"         - {problem}")
            problems.extend(found)
        return problems

    def ensure_recovered():
        """Restart the server from durable state if it is down."""
        if cluster.server.up:
            return
        try:
            # Records appended but never synced die with the process.
            recovered = cluster.recover_server(
                store=cluster.server.store.simulate_crash())
        except InjectedCrash as exc:
            # Recovery itself was killed; whatever half-recovered server
            # attach() left behind is down too. Try again from its store
            # (which holds everything the failed replay persisted).
            result.crashes += 1
            cluster.server.up = False
            if trace is not None:
                trace(f"[t={kernel.now:10.1f}] recovery killed at "
                      f"{exc.point} (crash {result.crashes})")
            kernel.schedule(recovery_rng.uniform(30.0, 300.0),
                            ensure_recovered, label="chaos: re-recover")
            return
        if config.quarantine is not None:
            # recover() already restored the policy; this re-persists it.
            # Fault actions fire on hit counts, so the commit is part of
            # every seeded campaign's schedule: dropping it changes which
            # windows the crashes land in.
            recovered.enable_quarantine(*config.quarantine)
        result.recoveries += 1
        if down["since"] is not None:
            result.recovery_time += kernel.now - down["since"]
            down["since"] = None
        if trace is not None:
            trace(f"[t={kernel.now:10.1f}] recovery {result.recoveries} "
                  f"complete; checking invariants")
        result.violations.extend(
            f"after recovery {result.recoveries}: {problem}"
            for problem in run_checks(
                recovered, f"recovery {result.recoveries}")
        )

    _schedule_plan(plan, cluster, executed, result, ensure_recovered,
                   mark_down=mark_down)
    injector = FaultInjector(plan.actions)
    with installed(injector):
        while True:
            live = cluster.server.instances.get(instance_id)
            if (cluster.server.up and live is not None and live.terminal):
                break
            if kernel.now > WALL_HORIZON or kernel.events_processed > MAX_EVENTS:
                result.violations.append(
                    f"wedged: no completion by t={kernel.now:.0f} after "
                    f"{kernel.events_processed} events"
                )
                break
            try:
                progressed = kernel.step()
            except InjectedCrash as exc:
                result.crashes += 1
                cluster.server.up = False
                mark_down()
                if trace is not None:
                    trace(f"[t={kernel.now:10.1f}] injected crash at "
                          f"{exc.point} (crash {result.crashes})")
                kernel.schedule(recovery_rng.uniform(30.0, 300.0),
                                ensure_recovered, label="chaos: recover")
                continue
            if not progressed:
                if not cluster.server.up:
                    ensure_recovered()
                    continue
                result.violations.append(
                    "wedged: event queue drained before completion"
                )
                break
        final_live = cluster.server.instances.get(instance_id)
        result.status = final_live.status if final_live is not None else "lost"
        if trace is not None:
            trace(f"[t={kernel.now:10.1f}] campaign over "
                  f"(status={result.status}); final invariant catalog")
        result.violations.extend(run_checks(
            cluster.server, "final",
            baseline_outputs=baseline["outputs"], final=True,
        ))
    result.fired = list(injector.fired)
    result.executed = sorted(executed)
    result.wall = kernel.now
    result.events = kernel.events_processed
    return result
