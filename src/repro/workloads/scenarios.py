"""Scripted experiment runs: the paper's three experiments, end to end.

* :func:`granularity_study` — Figure 4: the all-vs-all over the 522-entry
  set on the exclusive ik-sun cluster, sweeping the number of TEUs.
* :func:`shared_run` — the first SP38 all-vs-all (Table 1 / Figure 5): the
  linneus cluster shared with other users, with the ten labelled events
  reconstructed from Section 5.4.
* :func:`nonshared_run` — the second SP38 all-vs-all (Table 1 / Figure 6):
  the dedicated ik-linux cluster, two planned network outages, and the
  day-25 upgrade that doubles every node's processors.

Every run builds a fresh kernel/cluster/server, so runs are deterministic
given their seeds, and returns a :class:`LifecycleReport` carrying the
measurements the paper reports plus the full availability/utilization
trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..bio.darwin import DarwinEngine
from ..cluster import (
    DAY, ScenarioScript, SimKernel, SimulatedCluster, ik_linux, ik_sun,
    linneus,
)
from ..core.engine import BioOperaServer
from ..processes.all_vs_all import install_all_vs_all
from . import datasets

#: The TEU counts of the Figure 4 sweep (reconstructed grid; the paper's
#: digits are garbled but the range 1..522 and the S1/S2/S3 segments are
#: fixed by the prose).
PAPER_TEU_COUNTS = (1, 5, 10, 15, 20, 25, 50, 75, 100, 150, 200, 250,
                    300, 400, 522)


@dataclass
class GranularityPoint:
    """One row of the Figure 4 table."""

    teus: int
    cpu_seconds: float
    wall_seconds: float
    activities: int
    matches: int


def granularity_study(
    teu_counts: Sequence[int] = PAPER_TEU_COUNTS,
    darwin: Optional[DarwinEngine] = None,
    seed: int = 0,
    execution_noise: float = 0.25,
) -> List[GranularityPoint]:
    """Figure 4: CPU and WALL time of the all-vs-all vs. #TEUs."""
    darwin = darwin or datasets.study_darwin(seed=seed)
    points: List[GranularityPoint] = []
    for teus in teu_counts:
        kernel = SimKernel(seed=1000 + teus * 7 + seed)
        cluster = SimulatedCluster(kernel, ik_sun(),
                                   execution_noise=execution_noise)
        server = BioOperaServer(seed=seed)
        server.attach_environment(cluster)
        install_all_vs_all(server, darwin)
        instance_id = server.launch("all_vs_all", {
            "db_name": darwin.profile.name,
            "granularity": teus,
        })
        cluster.run_until_instance_done(instance_id)
        stats = server.statistics(instance_id)
        points.append(GranularityPoint(
            teus=teus,
            cpu_seconds=stats["cpu_seconds"],
            wall_seconds=kernel.now,
            activities=stats["activities_completed"],
            matches=server.instance(instance_id).outputs["match_count"],
        ))
    return points


@dataclass
class LifecycleReport:
    """Everything Table 1 and the lifecycle figures need from one run."""

    name: str
    status: str
    wall_seconds: float
    cpu_seconds: float
    activities: int
    max_cpus: float
    utilization_fraction: float
    manual_interventions: int
    match_count: int
    jobs_dispatched: int
    jobs_completed: int
    jobs_failed: int
    stale_results: int
    nodes_failed: int
    annotations: List[Tuple[float, str]]
    trace_daily: List[Tuple[float, float, float]]
    failure_reasons: Dict[str, int]

    @property
    def wall_days(self) -> float:
        return self.wall_seconds / DAY

    @property
    def cpu_days(self) -> float:
        return self.cpu_seconds / DAY

    @property
    def cpu_per_activity(self) -> float:
        return self.cpu_seconds / self.activities if self.activities else 0.0


def _report(name: str, server: BioOperaServer, cluster: SimulatedCluster,
            instance_id: str, day: float = DAY) -> LifecycleReport:
    instance = server.instance(instance_id)
    stats = server.statistics(instance_id)
    failure_reasons: Dict[str, int] = {}
    for event in server.store.instances.events(instance_id):
        if event["type"] == "task_failed":
            reason = event["reason"]
            failure_reasons[reason] = failure_reasons.get(reason, 0) + 1
    outputs = instance.outputs or {}
    return LifecycleReport(
        name=name,
        status=instance.status,
        wall_seconds=cluster.kernel.now,
        cpu_seconds=stats["cpu_seconds"],
        activities=stats["activities_completed"],
        max_cpus=cluster.trace.max_available(),
        utilization_fraction=cluster.trace.utilization_fraction(),
        manual_interventions=server.metrics["manual_interventions"],
        match_count=outputs.get("match_count", 0) or 0,
        jobs_dispatched=server.metrics["jobs_dispatched"],
        jobs_completed=server.metrics["jobs_completed"],
        jobs_failed=server.metrics["jobs_failed"],
        stale_results=server.metrics["stale_results_ignored"],
        nodes_failed=server.metrics["nodes_failed"],
        annotations=list(cluster.trace.annotations),
        trace_daily=cluster.trace.series(step=day),
        failure_reasons=failure_reasons,
    )


def shared_run(
    darwin: Optional[DarwinEngine] = None,
    granularity: int = 512,
    seed: int = 0,
    day: float = DAY,
) -> LifecycleReport:
    """The SP38 all-vs-all on the shared linneus cluster (Fig. 5, Table 1).

    Ten labelled events reconstructed from Section 5.4:

    1.  day 2   — another user requests exclusive access: manual suspend,
                  resumed a day later;
    2.  day 5   — the sole BioOpera server crash (protocol bug), automatic
                  resume when the server restarts 4 h later;
    3.  day 8   — massive hardware failure: ten nodes down for 12 h;
    4.  day 11  — cluster heavily used by other (higher-priority) jobs for
                  three days: progress all but stops;
    5.  day 16  — shared storage fills up; nobody is watching, so the
                  process is only stopped manually half a day later;
    6.  day 17  — storage fixed, manual resume;
    7.  day 20  — second massive hardware failure (whole cluster, 6 h);
    8.  day 24  — the machine hosting the BioOpera server is shut down for
                  maintenance for 8 h and restarted (event 9);
    10. day 30  — file-system instability: elevated TEU failure rate for
                  two days plus a 30-minute network outage in which some
                  TEUs' results fail to reach the server and are
                  re-scheduled automatically.

    ``day`` scales the whole schedule (tests pass a small value together
    with a small database).
    """
    darwin = darwin or datasets.sp38_darwin(seed=seed)
    kernel = SimKernel(seed=500 + seed)
    cluster = SimulatedCluster(kernel, linneus(), execution_noise=0.25)
    server = BioOperaServer(seed=seed)
    server.attach_environment(cluster)
    install_all_vs_all(server, darwin)

    instance_id = server.launch("all_vs_all", {
        "db_name": darwin.profile.name,
        "granularity": granularity,
        "refine_placement": "refine",
    })

    script = ScenarioScript(cluster)
    pc_nodes = [n for n in sorted(cluster.nodes) if n != "linneus-sparc"]

    # Everyday multi-user background load on the PCs (nice mode).
    script.background_load(0.0, 60 * day, pc_nodes, mean_fraction=0.30,
                           change_every=max(60.0, day / 6))
    # 1: another user needs the whole cluster.
    script.suspend_instance(2.0 * day, instance_id,
                            label="other user needs cluster")
    script.resume_instance(3.0 * day, instance_id,
                           label="cluster freed, resume")
    # 2: the single BioOpera server crash.
    script.server_crash(5.0 * day, recovery_after=4 * (day / 24),
                        label="BioOpera server crash")
    # 3: massive hardware failure (ten nodes).
    script.mass_failure(8.0 * day, pc_nodes[:10], duration=12 * (day / 24),
                        label="cluster failure")
    # 4: other users' jobs saturate the cluster for three days.
    script.load_burst(11.0 * day, 3.0 * day, pc_nodes, 0.97,
                      label="cluster busy with other jobs")
    # 5+6: disk full, noticed late, fixed, resumed.
    script.at(16.0 * day, "disk space shortage",
              cluster.set_storage_full, True)
    script.suspend_instance(16.5 * day, instance_id,
                            label="manual stop (disk full)")
    script.at(17.0 * day, "disk space freed",
              cluster.set_storage_full, False)
    script.resume_instance(17.25 * day, instance_id,
                           label="resume after disk fixed")
    # 7: second massive hardware failure (the whole cluster, 6 h).
    script.mass_failure(20.0 * day, sorted(cluster.nodes),
                        duration=6 * (day / 24),
                        label="cluster failure (all nodes)")
    # 8+9: server host maintenance.
    script.server_crash(24.0 * day, recovery_after=8 * (day / 24),
                        label="server maintenance",
                        recovery_label="server restarted")
    # 10: file-system instability + a 30-minute outage that loses reports.
    script.at(29.0 * day, "file system instability",
              cluster.set_job_failure_rate, 0.10)
    script.network_outage(30.0 * day, duration=0.5 * (day / 24),
                          label="TEUs fail to report (outage)")
    script.at(31.0 * day, "file system stable again",
              cluster.set_job_failure_rate, 0.0)

    # The horizon is a generous backstop; genuinely wedged runs are
    # caught earlier by the event-queue-drained check.
    cluster.run_until_instance_done(instance_id, horizon=20_000 * day)
    # NB: cluster.server, not the launch-time server object — server
    # crashes in the script replace it with a recovered instance.
    return _report("all_vs_all shared (linneus)", cluster.server, cluster,
                   instance_id, day=day)


def nonshared_run(
    darwin: Optional[DarwinEngine] = None,
    granularity: int = 512,
    seed: int = 0,
    day: float = DAY,
    upgrade_day: float = 25.0,
) -> LifecycleReport:
    """The SP38 all-vs-all on the dedicated ik-linux cluster (Fig. 6).

    Three events: two planned network outages (the process is suspended
    first, as the paper describes), and the day-25 operating-system
    reconfiguration that enables the second processor of every node —
    after which utilization doubles immediately.
    """
    darwin = darwin or datasets.sp38_darwin(seed=seed)
    kernel = SimKernel(seed=700 + seed)
    cluster = SimulatedCluster(kernel, ik_linux(initial_cpus=1),
                               execution_noise=0.2)
    server = BioOperaServer(seed=seed)
    server.attach_environment(cluster)
    install_all_vs_all(server, darwin)

    instance_id = server.launch("all_vs_all", {
        "db_name": darwin.profile.name,
        "granularity": granularity,
    })

    script = ScenarioScript(cluster)
    # Planned outage 1 (day 10): suspend, outage, resume.
    script.suspend_instance(10.0 * day - 2 * (day / 24), instance_id,
                            label="suspend for planned outage")
    script.network_outage(10.0 * day, duration=6 * (day / 24),
                          label="planned network outage 1")
    script.resume_instance(10.0 * day + 8 * (day / 24), instance_id,
                           label="resume after outage 1")
    # Day 25: second processor enabled on every node.
    script.upgrade_all(upgrade_day * day, cpus=2,
                       label="OS configuration change (2nd CPU)")
    # Planned outage 2 (day 35).
    script.suspend_instance(35.0 * day - 2 * (day / 24), instance_id,
                            label="suspend for planned outage")
    script.network_outage(35.0 * day, duration=6 * (day / 24),
                          label="planned network outage 2")
    script.resume_instance(35.0 * day + 8 * (day / 24), instance_id,
                           label="resume after outage 2")

    cluster.run_until_instance_done(instance_id, horizon=20_000 * day)
    return _report("all_vs_all non-shared (ik-linux)", cluster.server,
                   cluster, instance_id, day=day)
