"""The four end-to-end workloads, each as set-up, one unit, and its check.

Every workload is closed-loop with one client: ``run()`` submits a fixed,
seeded amount of work and runs it to completion on one thread and one
``SimKernel``; the caller times ``run()`` with one ``perf_counter`` pair.
``check()`` runs outside that pair: it verifies the outputs and returns the
unit's op count, an event-log digest (equal across units of one seed) and
the simulated-time figures. Only the public API of ``src/repro`` is used.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import shutil
from typing import Any, Dict, List, Sequence, Tuple

from repro.bio.darwin import DarwinEngine
from repro.cluster import DAY, SimKernel, SimulatedCluster, uniform
from repro.core.engine import BioOperaServer
from repro.core.engine.library import ProgramRegistry, ProgramResult
from repro.core.monitor import queries
from repro.core.ocr.parser import parse_ocr
from repro.obs import ObservabilityHub
from repro.obs.merge import jain_index, percentile
from repro.processes.activities import register_all_vs_all_programs
from repro.processes.all_vs_all import (
    build_align_chunk_template,
    build_all_vs_all_template,
    install_all_vs_all,
)
from repro.prov import plan_rerun
from repro.shard import ShardedConsole, ShardedControlPlane
from repro.store.spaces import OperaStore
from repro.workloads import datasets, scenarios

# Re-declared here (as in bench_multitenant.py) so the harness imports
# nothing from the legacy benchmarks.
TENANT_JOB_OCR = """
PROCESS tenant_job
  DESCRIPTION "One tenant's unit of control-plane work"
  INPUT cost DEFAULT 1.0
  OUTPUT receipt = Work.receipt

  ACTIVITY Work
    PROGRAM bench.work
    DESCRIPTION "Burn the costed CPU seconds and return a receipt"
    IN cost = wb.cost
  END
END
"""

TENANTS = 8


def register_tenant_job(registry: ProgramRegistry) -> None:
    """Add the costed no-op behind ``tenant_job`` to ``registry``."""

    def work(inputs: Dict[str, Any], ctx) -> ProgramResult:
        """Occupy a node CPU for the requested cost, return a receipt."""
        return ProgramResult({"receipt": "ok"},
                             cost=float(inputs.get("cost", 1.0)))

    registry.register("bench.work", work, "e2e: costed no-op tenant job")


def digest(value: Any) -> str:
    """Short stable digest of a JSON-able value (dataclasses by repr)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def event_log_digest(stores: Sequence[OperaStore]) -> Tuple[str, int]:
    """Digest and count of every instance event in ``stores``, in order.

    Reads by sequence key (``events_from``): a prefix scan per instance
    would be quadratic in the number of instances.
    """
    sha = hashlib.sha256()
    count = 0
    for store in stores:
        space = store.instances
        for instance_id in space.instance_ids():
            sha.update(instance_id.encode("utf-8"))
            for _seq, event in space.events_from(instance_id, 0):
                sha.update(json.dumps(event, sort_keys=True).encode("utf-8"))
                count += 1
    return sha.hexdigest()[:16], count


class FsyncCounter:
    """Stands in for ``os.fsync``: counts and does not call through.

    Installed by ``durable_recovery`` only, for traced and untraced units
    alike: waiting for this sandbox's device was over half the unit and
    made its wall time spread 29-39 % between runs. No check is weakened
    — the crash model abandons objects and never kills the process, so
    nothing leaves the page cache.
    """

    def __init__(self):
        self.calls = 0
        self._real = None

    def __call__(self, _fd) -> None:
        self.calls += 1

    def install(self) -> None:
        self._real, os.fsync = os.fsync, self

    def remove(self) -> None:
        if self._real is not None:
            os.fsync, self._real = self._real, None


@dataclasses.dataclass
class UnitCheck:
    """What one unit did, as established after its timer stopped."""

    ops: int
    digest: str
    attempted: int
    failed: int
    problems: List[str]
    #: simulated-time figures (exact per seed); never mixed with host time.
    sim: Dict[str, float]


def sim_figures(makespan: float = 0.0, ack_p50: float = 0.0,
                ack_p99: float = 0.0, jobs_failed: float = 0,
                stale_results: float = 0) -> Dict[str, float]:
    """The simulated-time metrics every workload reports (0 when idle)."""
    return {
        "sim.makespan_s": float(makespan),
        "sim.ack_p50_s": float(ack_p50),
        "sim.ack_p99_s": float(ack_p99),
        "sim.jobs_failed": float(jobs_failed),
        "sim.stale_results": float(stale_results),
    }


class Workload:
    """Base: sizes picked by ``smoke``, inputs generated from ``seed``."""

    name = ""
    op = ""

    def __init__(self, seed: int, smoke: bool, work_dir: str):
        self.seed = seed
        self.smoke = smoke
        self.work_dir = work_dir
        #: extra facts for the result envelope (filled by set-up/warm-up).
        self.notes: Dict[str, Any] = {}

    def setup(self) -> None:
        """Generate inputs, reference outputs and population (untimed)."""

    def run(self) -> Any:
        """One unit; the caller times exactly this call."""
        raise NotImplementedError

    def check(self, state: Any) -> UnitCheck:
        """Verify what ``run`` returned (outside the timed region)."""
        raise NotImplementedError

    def warm_up(self) -> UnitCheck:
        """The untimed full-size unit every timed unit is compared with."""
        return self.check(self.run())

    def fsync_calls(self) -> int:
        """``os.fsync`` calls counted so far (0 where none is made)."""
        return 0

    def close(self) -> None:
        """Undo whatever set-up installed (every exit path calls this)."""


# ---------------------------------------------------------------------------
# allvsall_table1
# ---------------------------------------------------------------------------


class AllVsAllTable1(Workload):
    """The paper's first SP38 run (Table 1, Fig. 5) at quarter scale."""

    name = "allvsall_table1"
    op = "durable instance event"

    def setup(self) -> None:
        # The day is scaled so that all ten Section 5.4 events fall inside
        # the ~34 simulated days a run of this size lasts.
        self.entries, self.granularity, self.day = (
            (2_000, 32, 0.002 * DAY) if self.smoke
            else (20_000, 256, 0.09 * DAY))
        self.profile = datasets.scaled_profile(self.entries, seed=38,
                                               name="SP38")
        self.events = 0

    def run(self):
        darwin = DarwinEngine(self.profile, mode="modeled",
                              random_match_rate=5e-4, sample_cap=50,
                              seed=self.seed)
        return scenarios.shared_run(darwin, granularity=self.granularity,
                                    seed=self.seed, day=self.day)

    def warm_up(self) -> UnitCheck:
        # shared_run returns a report, not its store. The warm-up alone
        # runs with launch() recording its server, to read the event log;
        # timed units are then matched to the warm-up by report digest.
        launched: List[BioOperaServer] = []
        original = BioOperaServer.launch

        def recording_launch(server, *args, **kwargs):
            launched.append(server)
            return original(server, *args, **kwargs)

        BioOperaServer.launch = recording_launch
        try:
            report = self.run()
        finally:
            BioOperaServer.launch = original
        # Scripted server crashes replace the server; the cluster holds
        # the current one.
        store = launched[0].environment.server.store
        self.notes["event_log_digest"], self.events = event_log_digest(
            [store])
        return self.check(report)

    def check(self, report) -> UnitCheck:
        problems = []
        if report.status != "completed":
            problems.append(f"instance ended {report.status}")
        # UserInput, QueueGeneration, Preprocessing, two per chunk, two
        # merges.
        expected = 5 + 2 * self.granularity
        if report.activities != expected:
            problems.append(f"{report.activities} activities, "
                            f"expected {expected}")
        if report.manual_interventions != 4:
            problems.append(f"{report.manual_interventions} manual "
                            f"interventions, expected 4")
        return UnitCheck(
            ops=self.events,
            digest=digest(dataclasses.asdict(report)),
            attempted=1,
            failed=0 if report.status == "completed" else 1,
            problems=problems,
            sim=sim_figures(makespan=report.wall_seconds,
                            jobs_failed=report.jobs_failed,
                            stale_results=report.stale_results),
        )


# ---------------------------------------------------------------------------
# burst_plane
# ---------------------------------------------------------------------------


def run_plane_to_completion(plane: ShardedControlPlane, kernel: SimKernel,
                            requests) -> None:
    """Drain the broker, then step until every launched instance ends.

    Open instances are re-checked only every 5000 kernel steps: a check
    per step would make this driver loop quadratic in the burst size.
    """
    plane.drain_requests(horizon=1e9)
    remaining = {request.result for request in requests}
    while remaining:
        stepped = False
        for _ in range(5000):
            if not kernel.step():
                break
            stepped = True
        remaining = {instance_id for instance_id in remaining
                     if not plane.instance(instance_id).terminal}
        if remaining and not stepped:
            raise RuntimeError(f"event queue drained with {len(remaining)} "
                               f"instances still open")


def build_plane(kernel: SimKernel, seed: int, templates,
                registry: ProgramRegistry) -> ShardedControlPlane:
    """The 4-shard, 32-node plane of ``burst_plane``/``operator_reads``."""
    return ShardedControlPlane(
        kernel, shards=4, nodes_per_shard=8, cpus=4, seed=seed,
        registry=registry, templates=templates,
        # 50 ms, not the paper's 2 s: the control plane, not node
        # occupancy, must be what binds.
        dispatch_overhead=0.05,
        # A store-wide snapshot every 50 events is quadratic over a burst
        # and not what these workloads measure.
        checkpoint_interval=1_000_000,
    )


def tenant_order(seed: int) -> List[str]:
    """The eight tenants in a seeded round-robin order."""
    tenants = [f"tenant{index}" for index in range(TENANTS)]
    random.Random(f"tenants/{seed}").shuffle(tenants)
    return tenants


def plane_sim_figures(plane: ShardedControlPlane, requests) -> Dict:
    """Makespan, ack latency and failure counts of a finished plane."""

    def finished_at(instance_id: str) -> float:
        space = plane.shard_of(instance_id).server.store.instances
        last = space.event_count(instance_id) - 1
        for _seq, event in space.events_from(instance_id, last):
            return float(event["time"])
        return 0.0

    latencies = [latency
                 for values in plane.broker.tenant_latencies.values()
                 for latency in values]
    return sim_figures(
        makespan=max(finished_at(request.result) for request in requests),
        ack_p50=percentile(latencies, 0.50),
        ack_p99=percentile(latencies, 0.99),
        jobs_failed=sum(shard.server.metrics["jobs_failed"]
                        for shard in plane.shards),
        stale_results=sum(shard.server.metrics["stale_results_ignored"]
                          for shard in plane.shards),
    )


class BurstPlane(Workload):
    """ROADMAP's launch burst on the sharded control plane."""

    name = "burst_plane"
    op = "instance completed"

    def setup(self) -> None:
        self.launches = 400 if self.smoke else 4_000
        self.tenants = tenant_order(self.seed)
        self.template = parse_ocr(TENANT_JOB_OCR)

    def run(self):
        registry = ProgramRegistry()
        register_tenant_job(registry)
        kernel = SimKernel(seed=self.seed)
        plane = build_plane(kernel, self.seed, [self.template], registry)
        requests = [
            plane.launch(self.tenants[index % TENANTS], "tenant_job",
                         {"cost": 1.0})
            for index in range(self.launches)
        ]
        run_plane_to_completion(plane, kernel, requests)
        return plane, requests

    def check(self, state) -> UnitCheck:
        plane, requests = state
        problems = []
        completed = sum(
            1 for request in requests
            if plane.instance(request.result).status == "completed")
        if completed != self.launches:
            problems.append(f"{completed} of {self.launches} completed")
        sim = plane_sim_figures(plane, requests)
        throughput = [stats["completed"] / sim["sim.makespan_s"]
                      for tenant, stats in
                      plane.broker.tenant_stats().items()
                      if tenant.startswith("tenant")]
        jain = jain_index(throughput)
        if jain < 0.999:
            problems.append(f"Jain index {jain:.5f} < 0.999")
        log_digest, _events = event_log_digest(
            [shard.store for shard in plane.shards])
        return UnitCheck(ops=completed, digest=log_digest,
                         attempted=self.launches,
                         failed=self.launches - completed,
                         problems=problems, sim=sim)


# ---------------------------------------------------------------------------
# durable_recovery
# ---------------------------------------------------------------------------


class DurableRecovery(Workload):
    """Crash and recover one server from its on-disk store, repeatedly."""

    name = "durable_recovery"
    op = "durable instance event"

    def setup(self) -> None:
        self._fsyncs = FsyncCounter()
        self._fsyncs.install()
        self.instances, self.crash_every = ((8, 200) if self.smoke
                                            else (40, 400))
        self.profile = datasets.scaled_profile(120)
        self._units = 0
        # The crash-free in-memory twin: the reference outputs.
        cluster, _store, ids = self._drive(None)
        self.twin_outputs = {
            instance_id: cluster.server.instances[instance_id].outputs
            for instance_id in ids
        }

    def fsync_calls(self) -> int:
        return self._fsyncs.calls

    def close(self) -> None:
        self._fsyncs.remove()

    def failover(self, cluster: SimulatedCluster, path: str) -> None:
        """Kill the server, abandon server and store without ``close()``
        or ``flush()``, and recover from a store freshly opened on the
        directory — what a new process on the same host would do."""
        cluster.crash_server()
        cluster.recover_server(store=OperaStore(path))

    def _drive(self, path):
        """Launch the instances and step to completion; with a ``path``
        the store is on disk and the server fails over on a fixed
        cadence of kernel steps."""
        kernel = SimKernel(seed=self.seed)
        cluster = SimulatedCluster(kernel, uniform(8, cpus=2),
                                   execution_noise=0.1)
        store = OperaStore(path) if path else OperaStore()
        server = BioOperaServer(
            store=store, seed=self.seed,
            observability=ObservabilityHub(checkpoint_interval=500))
        server.attach_environment(cluster)
        install_all_vs_all(server, DarwinEngine(
            self.profile, mode="modeled", random_match_rate=2e-3,
            sample_cap=20, seed=self.seed))
        ids = [
            server.launch("all_vs_all", {"db_name": self.profile.name,
                                         "granularity": 16})
            for _ in range(self.instances)
        ]
        del server, store  # a failover must drop the last reference
        open_ids = list(ids)
        steps = 0
        while open_ids:
            stepped = kernel.step()
            steps += 1
            if path and steps % self.crash_every == 0:
                self.failover(cluster, path)
            if steps % 8 == 0 or not stepped:
                live = cluster.server.instances
                open_ids = [instance_id for instance_id in open_ids
                            if not live[instance_id].terminal]
                if open_ids and not stepped:
                    raise RuntimeError(
                        f"event queue drained with {len(open_ids)} "
                        f"instances still open")
        return cluster, kernel, ids

    def run(self):
        self._units += 1
        path = os.path.join(self.work_dir, f"unit{self._units}")
        os.makedirs(path)
        return self._drive(path) + (path,)

    def check(self, state) -> UnitCheck:
        cluster, kernel, ids, path = state
        server = cluster.server
        problems = []
        failed = 0
        for instance_id in ids:
            instance = server.instances[instance_id]
            if instance.status != "completed":
                failed += 1
                problems.append(f"{instance_id} ended {instance.status}")
            elif instance.outputs != self.twin_outputs[instance_id]:
                failed += 1
                problems.append(f"{instance_id} outputs differ from the "
                                f"crash-free twin's")
        audit = server.store.kv.audit()
        if audit:
            failed += 1
            problems.extend(f"audit: {problem}" for problem in audit)
        log_digest, events = event_log_digest([server.store])
        sim = sim_figures(
            makespan=kernel.now,
            jobs_failed=server.metrics["jobs_failed"],
            stale_results=server.metrics["stale_results_ignored"])
        server.store.close()
        shutil.rmtree(path, ignore_errors=True)
        # One attempt per instance plus one for the store audit.
        return UnitCheck(ops=events, digest=log_digest,
                         attempted=len(ids) + 1, failed=failed,
                         problems=problems, sim=sim)


# ---------------------------------------------------------------------------
# operator_reads
# ---------------------------------------------------------------------------

VIEW_QUERIES = (
    ("node_usage", ()), ("event_histogram", ()),
    ("completions_over_time", (3600.0,)), ("slowest_activities", ()),
    ("retry_hotspots", ()), ("wall_time_breakdown", ()),
)


class ReadOps:
    """The read-mix calls that are not console methods, as methods so the
    ledger can wrap them like any other entry point."""

    def __init__(self, plane: ShardedControlPlane):
        self.plane = plane

    def _store(self, instance_id: str) -> OperaStore:
        return self.plane.shard_of(instance_id).server.store

    def events_scan(self, instance_id: str) -> list:
        """A full prefix scan of one instance's event log."""
        return list(self._store(instance_id).instances.events(instance_id))

    def view_query(self, instance_id: str, query: str, extra: tuple):
        """One of the six view-backed ``core.monitor.queries``."""
        return getattr(queries, query)(self._store(instance_id),
                                       instance_id, *extra)

    def statistics(self, instance_id: str) -> Dict[str, Any]:
        """``BioOperaServer.statistics`` on the owning shard."""
        return self.plane.shard_of(instance_id).server.statistics(
            instance_id)

    def plan_rerun(self, instance_id: str) -> Dict[str, Any]:
        """The rerun plan had ``granularity`` changed (nothing is run)."""
        return plan_rerun(self._store(instance_id), instance_id,
                          changed_inputs={"granularity": 8}).to_dict()


class OperatorReads(Workload):
    """A fixed read mix against a populated, quiescent plane."""

    name = "operator_reads"
    op = "query call"

    def setup(self) -> None:
        if self.smoke:
            jobs, self.rounds, repeat = 200, 3, 1
        else:
            jobs, self.rounds, repeat = 2_000, 20, 3
        profile = datasets.scaled_profile(120)
        registry = ProgramRegistry()
        register_tenant_job(registry)
        register_all_vs_all_programs(registry, DarwinEngine(
            profile, mode="modeled", random_match_rate=2e-3, sample_cap=20,
            seed=self.seed))
        kernel = SimKernel(seed=self.seed)
        plane = build_plane(
            kernel, self.seed,
            [parse_ocr(TENANT_JOB_OCR), build_align_chunk_template(),
             build_all_vs_all_template()], registry)
        tenants = tenant_order(self.seed)
        job_requests = [
            plane.launch(tenants[index % TENANTS], "tenant_job",
                         {"cost": 1.0})
            for index in range(jobs)
        ]
        all_vs_all_requests = [
            plane.launch(tenants[index % TENANTS], "all_vs_all",
                         {"db_name": profile.name, "granularity": 16})
            for index in range(8)
        ]
        requests = job_requests + all_vs_all_requests
        run_plane_to_completion(plane, kernel, requests)
        incomplete = [request.result for request in requests
                      if plane.instance(request.result).status
                      != "completed"]
        if incomplete:
            raise RuntimeError(f"population: {len(incomplete)} instances "
                               f"did not complete")
        self.plane = plane
        self.population = len(requests)
        self.sim = plane_sim_figures(plane, requests)
        self.notes["event_log_digest"], self.notes["population_events"] = (
            event_log_digest([shard.store for shard in plane.shards]))
        self.mix = self._build_mix(
            sorted(request.result for request in job_requests),
            sorted(request.result for request in all_vs_all_requests),
            repeat)

    def _build_mix(self, job_ids, all_vs_all_ids, repeat):
        """One round of reads as ``(target, method, args)`` triples; the
        seed picks which ids are read, never how many."""
        rng = random.Random(f"reads/{self.seed}")
        console = ShardedConsole(self.plane)
        reads = ReadOps(self.plane)
        mix: List[Tuple[Any, str, tuple]] = []
        for _ in range(repeat):
            for method in ("list_instances", "cluster_state",
                           "network_health", "metrics_snapshot",
                           "trace_summary", "export_prov"):
                mix.append((console, method, ()))
        point_reads = ("instance_detail", "intermediate_results",
                       "provenance_run")
        for index in range(100 * repeat):
            mix.append((console, point_reads[index % 3],
                        (rng.choice(job_ids),)))
        for _ in range(20 * repeat):
            mix.append((reads, "events_scan",
                        (rng.choice(job_ids + all_vs_all_ids),)))
        for instance_id in rng.sample(all_vs_all_ids, 2) * repeat:
            for query, extra in VIEW_QUERIES:
                mix.append((reads, "view_query",
                            (instance_id, query, extra)))
            mix.append((console, "provenance_ancestry",
                        (instance_id, "MergeByEntry")))
            mix.append((console, "provenance_descendants",
                        (instance_id, "wb:db_name")))
            mix.append((console, "derivation_path",
                        (instance_id, "wb:db_name", "MergeByEntry")))
            mix.append((reads, "statistics", (instance_id,)))
            mix.append((reads, "plan_rerun", (instance_id,)))
        return mix

    def run(self):
        # Answers of the first and the last round are kept for check();
        # digesting every round here would bill the harness to the unit.
        mix = self.mix
        first = last = None
        raised = 0
        for _ in range(self.rounds):
            answers = []
            for target, method, args in mix:
                try:
                    answers.append(getattr(target, method)(*args))
                except Exception as exc:  # a failed query, counted
                    answers.append(repr(exc))
                    raised += 1
            if first is None:
                first = answers
            last = answers
        return first, last, raised

    def check(self, state) -> UnitCheck:
        first, last, raised = state
        problems = []
        if raised:
            problems.append(f"{raised} queries raised")
        first_digests = [digest(answer) for answer in first]
        differing = sum(
            1 for reference, answer in zip(first_digests, last)
            if digest(answer) != reference)
        if differing:
            problems.append(f"{differing} answers of the last round differ "
                            f"from round 0")
        rows = len(first[0])  # the mix opens with list_instances
        if rows != self.population:
            problems.append(f"list_instances returned {rows} rows for "
                            f"{self.population} instances")
        queries_issued = self.rounds * len(self.mix)
        return UnitCheck(ops=queries_issued, digest=digest(first_digests),
                         attempted=queries_issued, failed=raised + differing,
                         problems=problems, sim=self.sim)


WORKLOADS = {
    workload.name: workload
    for workload in (AllVsAllTable1, BurstPlane, DurableRecovery,
                     OperatorReads)
}
