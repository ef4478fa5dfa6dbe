"""SimulatedCluster: the discrete-event execution environment.

This is the reproduction's stand-in for the paper's physical clusters. It
implements the engine's :class:`~repro.core.engine.environment.\
ExecutionEnvironment` interface on top of the simulation kernel:

* dispatch messages reach per-node PECs after server overhead plus network
  latency ("each alignment requires ... a few seconds to schedule,
  distribute, initiate");
* jobs occupy node CPUs for their costed work, slowed by external load
  (nice mode) and heterogeneous node speeds;
* failures are first-class: node crashes (with a failure-detector delay
  before the server notices), partitions between the server and a node
  subset (reports get lost; a network outage is a partition of every
  node), shared storage filling up, server crashes with store-based
  recovery, and mid-run hardware upgrades;
* an availability/utilization trace is recorded at every change point —
  the raw data behind Figures 5 and 6.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..core.engine.dispatcher import JobRequest
from ..core.engine.environment import ExecutionEnvironment
from ..core.engine.server import BioOperaServer
from ..errors import ClusterError
from .network import Network, SERVER
from .node import NodeSpec, SimNode
from .pec import PEC
from .simulation import SimKernel
from .trace import ClusterTrace


class SimulatedCluster(ExecutionEnvironment):
    """A cluster of simulated nodes driving a BioOpera server."""

    #: node-fabric latency: base seconds plus uniform jitter.
    BASE_LATENCY = 0.05
    JITTER = 0.02
    #: seconds the failure detector takes to declare a silent node down;
    #: also the retry spacing of lost dispatches and join announcements.
    DETECTION_DELAY = 120.0

    def __init__(
        self,
        kernel: SimKernel,
        specs: Sequence[NodeSpec],
        dispatch_overhead: float = 2.0,
        execution_noise: float = 0.15,
        rng_namespace: str = "",
    ):
        self.kernel = kernel
        #: prefix for every kernel RNG stream this cluster draws from.
        #: Sharded control planes run several clusters on one kernel;
        #: namespacing keeps one shard's draws from perturbing another
        #: shard's, so a crashed shard cannot change a healthy shard's
        #: event times. "" preserves existing single-cluster seeds.
        self.rng_namespace = rng_namespace
        self.network = Network(kernel, self.BASE_LATENCY, self.JITTER,
                               rng_namespace=rng_namespace)
        self.dispatch_overhead = dispatch_overhead
        #: sigma of the mean-1 lognormal execution-time noise. Real runs
        #: never hit the costed time exactly (cache effects, I/O, paging);
        #: this variance is what makes coarse partitions suffer stragglers
        #: ("the CPU time for TEUs will always differ", paper Sec. 5.3).
        self.execution_noise = execution_noise
        self.server: Optional[BioOperaServer] = None
        self.storage_full = False
        #: probability a finishing job reports an I/O error instead of its
        #: result (the paper's "file system instability caused the rate of
        #: failed TEUs to increase slightly").
        self.job_failure_rate = 0.0
        self.nodes: Dict[str, SimNode] = {}
        self.pecs: Dict[str, PEC] = {}
        for spec in specs:
            node = SimNode(kernel, spec, self._node_job_done)
            self.nodes[spec.name] = node
            self.pecs[spec.name] = PEC(node, self.network, self)
        self.trace = ClusterTrace(self)
        #: partition id -> (node names, direction) for cluster-level cuts.
        self._partitions: Dict[int, tuple] = {}
        #: cancelled job ids whose dispatch message may still be in flight.
        self._cancelled_jobs: set = set()
        #: node-local finish times (job_id -> kernel time), consumed once
        #: by the tracing layer to compute per-span report delays.
        self._job_finish_times: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # ExecutionEnvironment interface
    # ------------------------------------------------------------------

    def attach(self, server: BioOperaServer) -> None:
        self.server = server
        server.clock = lambda: self.kernel.now
        for node in self.nodes.values():
            if not server.awareness.has_node(node.name):
                server.register_node(
                    node.name, node.cpus, node.speed, node.spec.tags
                )
            if not node.up:
                server.awareness.node_down(node.name, self.kernel.now)

    def submit(self, job: JobRequest, node_name: str) -> None:
        if node_name not in self.nodes:
            raise ClusterError(f"no such node {node_name!r}")
        self.kernel.schedule(
            self.dispatch_overhead, self._send_job, job, node_name,
            label=f"dispatch:{job.job_id}",
        )

    def _send_job(self, job: JobRequest, node_name: str) -> None:
        delivered = self.network.send(
            self._deliver_job, job, node_name, label=f"job:{job.job_id}",
            src=SERVER, dst=node_name,
            on_dropped=lambda: self._note_dispatch_lost(job, node_name),
        )
        if not delivered:
            self._note_dispatch_lost(job, node_name)

    def _note_dispatch_lost(self, job: JobRequest, node_name: str) -> None:
        # Dispatch lost to a cut link — at send time or in flight. If the
        # cut outlives the failure detector the node-down path re-queues
        # the job; for shorter glitches this timeout reports the loss
        # directly (the server's staleness checks make a duplicate report
        # harmless).
        self.kernel.schedule(
            self.DETECTION_DELAY, self._dispatch_lost, job, node_name,
            label=f"dispatch-lost:{job.job_id}",
        )

    def _dispatch_lost(self, job: JobRequest, node_name: str) -> None:
        if self.server is not None and self.server.up:
            self.server.on_job_failed(
                job.job_id, "network-outage", node_name,
                detail="dispatch message lost",
                epoch=job.epoch or None,
            )

    def _deliver_job(self, job: JobRequest, node_name: str) -> None:
        if job.job_id in self._cancelled_jobs:
            self._cancelled_jobs.discard(job.job_id)
            return
        self.pecs[node_name].receive_job(job)
        self.trace.touch(node_name)
        self.trace.record()

    def execution_noise_factor(self) -> float:
        """Sample a mean-1 lognormal work multiplier."""
        sigma = self.execution_noise
        if sigma <= 0:
            return 1.0
        rng = self.rng("execution-noise")
        return rng.lognormvariate(-sigma * sigma / 2.0, sigma)

    def rng(self, name: str):
        """This cluster's namespaced kernel RNG stream ``name``."""
        return self.kernel.rng(self.rng_namespace + name)

    def cancel(self, job_id: str) -> None:
        for node in self.nodes.values():
            if node.kill_job(job_id):
                self.trace.touch(node.name)
                self.trace.record()
                return
        # Not running anywhere yet: the dispatch message is still in
        # flight. Blacklist it so delivery drops it instead of starting a
        # zombie job.
        self._cancelled_jobs.add(job_id)

    def step(self) -> bool:
        return self.kernel.step()

    def schedule(self, delay: float, fn, *args, label: str = ""):
        """Engine-facing timer hook (lease expiries); returns a
        cancellable kernel event."""
        return self.kernel.schedule(delay, fn, *args, label=label)

    def job_alive(self, node_name: str, job_id: str) -> bool:
        """Lease renewal probe: is the job's holder reachable and still
        working on it (or waiting to retransmit its report)?"""
        node = self.nodes.get(node_name)
        if node is None or not node.up:
            return False
        if (self.network.is_cut(SERVER, node_name)
                or self.network.is_cut(node_name, SERVER)):
            return False
        return (node.has_job(job_id)
                or job_id in self.pecs[node_name].pending_reports)

    def schedule_probe(self, node_name: str, delay: float) -> None:
        """Probe a quarantined node after ``delay`` seconds. The probe
        succeeds only if it can actually reach a healthy node; while the
        network is out or the node is down it keeps rescheduling itself,
        so a quarantined node is only re-admitted once genuinely
        reachable."""
        def probe():
            server = self.server
            if server is None or not server.up:
                return  # quarantine state died with the server
            if (not self.nodes[node_name].up
                    or self.network.is_cut(SERVER, node_name)
                    or self.network.is_cut(node_name, SERVER)):
                self.kernel.schedule(delay, probe,
                                     label=f"probe:{node_name}")
                return
            server.on_probe_result(node_name, ok=True)

        self.kernel.schedule(delay, probe, label=f"probe:{node_name}")

    # ------------------------------------------------------------------
    # Upstream delivery (called via the network)
    # ------------------------------------------------------------------

    def deliver_completion(self, job: JobRequest, outputs: Dict[str, Any],
                           cost: float, node_name: str) -> None:
        # No trace record: a report changes no node (the job left its
        # node, and was recorded, when it finished there).
        if self.server is not None and self.server.up:
            self.server.on_job_completed(job.job_id, outputs, cost,
                                         node_name, epoch=job.epoch or None)

    def deliver_failure(self, job: JobRequest, reason: str, node_name: str,
                        detail: str) -> None:
        if self.server is not None and self.server.up:
            self.server.on_job_failed(job.job_id, reason, node_name,
                                      detail=detail,
                                      epoch=job.epoch or None)

    def deliver_load_report(self, node_name: str, load: float) -> None:
        if self.server is not None and self.server.up:
            self.server.on_load_report(node_name, load)

    def _node_job_done(self, node: SimNode, job_id: str,
                       payload: Dict[str, Any], cpu_consumed: float) -> None:
        self.pecs[node.name].job_finished(job_id, payload, cpu_consumed)
        self.trace.touch(node.name)
        self.trace.record()

    def note_job_finished(self, job_id: str) -> None:
        """PEC callback: stamp a job's node-local finish time."""
        self._job_finish_times[job_id] = self.kernel.now

    def job_finish_time(self, job_id: str) -> Optional[float]:
        """Consume (pop) a job's node-local finish stamp, if recorded."""
        return self._job_finish_times.pop(job_id, None)

    # ------------------------------------------------------------------
    # Failure & reconfiguration API (used by scenario scripts and tests)
    # ------------------------------------------------------------------

    def crash_node(self, name: str) -> List[str]:
        """Take a node down hard; lost jobs are detected after a delay."""
        lost = self.nodes[name].crash()
        self.trace.touch(name)
        self.trace.record()
        self.kernel.schedule(
            self.DETECTION_DELAY, self._notify_node_down, name,
            label=f"detect-down:{name}",
        )
        return lost

    def _notify_node_down(self, name: str) -> None:
        if self.server is not None and self.server.up:
            if self.nodes[name].up:
                return  # recovered before detection fired
            self.server.on_node_down(name)

    def restore_node(self, name: str) -> None:
        node = self.nodes[name]
        node.restore()
        self.trace.touch(name)
        self.trace.record()
        self._announce_node_up(name)

    def _announce_node_up(self, name: str) -> None:
        """Send the node's (re)join announcement; a cut link retries until
        it gets through (or the node goes down again)."""
        def retry():
            if self.nodes[name].up:
                self._announce_node_up(name)

        def undelivered():
            self.kernel.schedule(self.DETECTION_DELAY, retry,
                                 label=f"re-announce:{name}")

        sent = self.network.send(self._notify_node_up, name,
                                 label=f"node-up:{name}",
                                 src=name, dst=SERVER,
                                 on_dropped=undelivered)
        if not sent:
            undelivered()

    def _notify_node_up(self, name: str) -> None:
        if self.server is not None and self.server.up and self.nodes[name].up:
            alive = set(self.nodes[name].running_jobs())
            alive |= self.pecs[name].pending_reports
            self.server.on_node_up(name, running=alive)

    def upgrade_node(self, name: str, cpus: Optional[int] = None,
                     speed: Optional[float] = None) -> None:
        self.nodes[name].upgrade(cpus=cpus, speed=speed)
        self.trace.touch(name)
        self.trace.record()
        if self.server is not None and self.server.up:
            self.server.on_node_reconfigured(name, cpus=cpus, speed=speed)

    def set_external_load(self, name: str, load: float) -> None:
        self.nodes[name].set_external_load(load)
        self.pecs[name].load_changed()
        self.trace.touch(name)
        self.trace.record()

    def start_partition(self, nodes: Optional[Sequence[str]] = None,
                        direction: str = "both") -> int:
        """Cut the links between the server and a node subset (every
        node by default: a network outage).

        ``direction`` is ``"both"`` (symmetric cut), ``"to-server"`` (node
        reports vanish, dispatches still arrive — the half-open link that
        produces zombie workers), or ``"to-nodes"`` (dispatches vanish,
        reports still arrive). Returns a partition id for
        :meth:`heal_partition`.
        """
        names = tuple(sorted(nodes if nodes is not None else self.nodes))
        if direction == "both":
            pid = self.network.partition({SERVER}, set(names),
                                         symmetric=True)
        elif direction == "to-server":
            pid = self.network.partition(set(names), {SERVER},
                                         symmetric=False)
        elif direction == "to-nodes":
            pid = self.network.partition({SERVER}, set(names),
                                         symmetric=False)
        else:
            raise ClusterError(f"unknown partition direction {direction!r}")
        self._partitions[pid] = (names, direction)
        self.trace.touch()
        self.trace.record()
        if direction in ("both", "to-server"):
            # The server stops hearing from these nodes; after the failure
            # detector's delay it declares them down. A "to-nodes" cut is
            # invisible to the detector (reports keep flowing) — only the
            # dispatch-lost timeouts and leases cover it.
            self.kernel.schedule(self.DETECTION_DELAY,
                                 self._notify_partition, pid,
                                 label="detect-partition")
        return pid

    def _notify_partition(self, pid: int) -> None:
        entry = self._partitions.get(pid)
        if entry is None:
            return  # healed before detection fired
        names, _direction = entry
        if self.server is not None and self.server.up:
            for name in names:
                self.server.on_node_down(name)

    def heal_partition(self, pid: int) -> None:
        entry = self._partitions.pop(pid, None)
        if entry is None:
            return
        self.network.heal(pid)
        self.trace.touch()
        self.trace.record()
        names, direction = entry
        if direction in ("both", "to-server"):
            for name in names:
                if self.nodes[name].up:
                    self._announce_node_up(name)

    def set_duplication(self, rate: float) -> None:
        self.network.set_duplication(rate)

    def set_reordering(self, rate: float, extra: Optional[float] = None
                       ) -> None:
        self.network.set_reordering(rate, extra)

    def set_link_loss(self, src: str, dst: str, probability: float) -> None:
        self.network.set_loss(src, dst, probability)

    def set_storage_full(self, full: bool) -> None:
        self.storage_full = full
        self.trace.record()

    def set_job_failure_rate(self, rate: float) -> None:
        self.job_failure_rate = max(0.0, min(1.0, rate))

    def crash_server(self) -> None:
        if self.server is None:
            raise ClusterError("no server attached")
        self.server.crash()
        self.trace.record()

    def recover_server(self, store=None) -> BioOperaServer:
        """The failover routine: rebuild the server from its durable
        store and re-attach it.

        Scenario scripts and shard failover (a test's, an operator's or
        the broker's failure detector's) all fail over through here, so
        a failover is assembled in exactly one place: the predecessor's
        hub hands over to a successor of the same configuration
        (:meth:`~repro.obs.ObservabilityHub.successor`);
        :meth:`BioOperaServer.recover` re-derives identity, epoch and
        policies from the store — the only state a recovery on another
        host can rely on; the cumulative run counters carry over.

        ``store`` overrides the store to recover from — the chaos harness
        passes ``old.store.simulate_crash()`` so records appended but never
        synced are lost, exactly as a real crash would lose them.
        """
        if self.server is None:
            raise ClusterError("no server attached")
        old = self.server
        hub = old.obs.successor()
        # Cumulative counters survive the crash (they describe the run,
        # not the server process). Carried before the recovery runs: one
        # killed midway leaves its half-built server attached, and the
        # retry fails over from that one.
        for name, value in old.metrics.items():
            hub.metrics.inc(name, value)
        self.server = BioOperaServer.recover(
            store if store is not None else old.store,
            old.registry, environment=self,
            policy=old.dispatcher.policy, seed=old.seed,
            observability=hub,
        )
        # The predecessor is garbage, but only the cyclic collector would
        # free it; drop the two references it holds to its store, so the
        # store (and every payload a lazy replay left in it) goes now.
        old.store = old.obs.views._store = None
        self.trace.record()
        return self.server

    # ------------------------------------------------------------------
    # Metrics & run helpers
    # ------------------------------------------------------------------

    def available_cpus(self) -> int:
        return sum(
            node.available_cpus() for name, node in self.nodes.items()
            if not (self.network.is_cut(SERVER, name)
                    or self.network.is_cut(name, SERVER))
        )

    def busy_cpus(self) -> float:
        return sum(node.utilization() for node in self.nodes.values())

    def lost_compute_seconds(self) -> float:
        """CPU-seconds of partial progress discarded by crashes and kills."""
        return sum(node.cpu_lost for node in self.nodes.values())

    def run_until_instance_done(self, instance_id: str,
                                horizon: float = 400 * 86400.0) -> str:
        """Advance the simulation until the instance is terminal.

        Stops early (raising) if the event queue drains while the instance
        is still running — that indicates a wedged system, which tests want
        to know about loudly.
        """
        while True:
            instance = (self.server.instances.get(instance_id)
                        if self.server else None)
            if instance is not None and instance.terminal:
                self.trace.record(force=True)
                return instance.status
            if self.kernel.now > horizon:
                raise ClusterError(
                    f"simulation horizon {horizon} reached; instance "
                    f"{instance_id} still {instance.status if instance else 'unknown'}"
                )
            if not self.kernel.step():
                raise ClusterError(
                    f"event queue drained but instance {instance_id} is "
                    f"still not terminal (wedged?)"
                )
