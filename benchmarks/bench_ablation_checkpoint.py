"""A1 — checkpoint granularity ablation (Section 3.3).

"Since checkpointing is done for complete activities, smaller activities
result in less work lost when failures occur." BioOpera checkpoints at
activity level; the ablation compares:

* work lost to one node crash when TEUs are coarse vs. fine (finer TEUs
  lose less in-flight work), and
* activity-level checkpointing vs. a hypothetical process-level-only
  checkpoint (which would discard *all* completed work at the crash) —
  computed from the same event log.
"""

from repro.bio import DarwinEngine, DatabaseProfile
from repro.cluster import SimKernel, SimulatedCluster, uniform
from repro.core.engine import BioOperaServer
from repro.processes import install_all_vs_all
from repro.workloads.reporting import format_table

from .conftest import cached


def _run(granularity, crash_at=60.0, seed=31):
    profile = DatabaseProfile.synthetic("ckpt", 300, seed=11)
    darwin = DarwinEngine(profile, mode="modeled", random_match_rate=1e-3,
                          sample_cap=100, seed=5)
    kernel = SimKernel(seed=seed)
    cluster = SimulatedCluster(kernel, uniform(4, cpus=2),
                               execution_noise=0.1)
    server = BioOperaServer(seed=seed)
    server.attach_environment(cluster)
    install_all_vs_all(server, darwin)
    instance_id = server.launch("all_vs_all", {
        "db_name": profile.name, "granularity": granularity,
    })
    kernel.schedule(crash_at, cluster.crash_node, "node001")
    kernel.schedule(crash_at + 400.0, cluster.restore_node, "node001")
    status = cluster.run_until_instance_done(instance_id)
    assert status == "completed"

    # Activity-level checkpointing loses only the partial progress of the
    # attempts that were running on the crashed node:
    lost_inflight = cluster.lost_compute_seconds()
    # A process-level-only checkpoint would also discard every activity
    # completed before the crash:
    completed_before_crash = sum(
        event["cost"]
        for event in server.store.instances.events(instance_id)
        if event["type"] == "task_completed"
        and event["time"] <= crash_at and event.get("cost")
    )
    return {
        "granularity": granularity,
        "wall": kernel.now,
        "lost_activity_ckpt": lost_inflight,
        "lost_process_ckpt": lost_inflight + completed_before_crash,
    }


def _compute():
    return [_run(granularity) for granularity in (4, 16, 64)]


def test_a1_checkpoint_granularity(artifact):
    rows = cached("a1", _compute)
    table = format_table(
        ("TEUs", "WALL (s)", "lost: activity ckpt (s)",
         "lost: process-level ckpt (s)"),
        [
            (r["granularity"], f"{r['wall']:.0f}",
             f"{r['lost_activity_ckpt']:.0f}",
             f"{r['lost_process_ckpt']:.0f}")
            for r in rows
        ],
    )
    artifact("a1_checkpoint_granularity", table)

    by_granularity = {r["granularity"]: r for r in rows}
    # finer activities lose less work to the same crash
    assert (by_granularity[64]["lost_activity_ckpt"]
            < by_granularity[4]["lost_activity_ckpt"])
    # activity-level checkpointing always dominates process-level-only
    for row in rows:
        assert row["lost_activity_ckpt"] <= row["lost_process_ckpt"]
    # and by a lot, once any work has completed before the crash
    assert (by_granularity[64]["lost_process_ckpt"]
            > 3 * by_granularity[64]["lost_activity_ckpt"])
