"""A3 — scheduling-policy ablation on a heterogeneous cluster.

"The node is determined by the scheduling and load balancing policy in
use" (Section 3.2). On the heterogeneous linneus cluster (fast dual PCs
plus a slower Sparc) with background load, the capacity-aware default is
compared against least-loaded, round-robin, and random placement.
"""

from repro.bio import DarwinEngine, DatabaseProfile
from repro.cluster import NodeSpec, SimKernel, SimulatedCluster
from repro.core.engine import BioOperaServer, make_policy
from repro.processes import install_all_vs_all
from repro.workloads.reporting import format_table

from .conftest import cached

#: strongly heterogeneous cluster: same CPU count, very different speeds.
SPECS = [
    NodeSpec("fast1", cpus=2, speed=2.0),
    NodeSpec("fast2", cpus=2, speed=2.0),
    NodeSpec("mid1", cpus=2, speed=1.0),
    NodeSpec("mid2", cpus=2, speed=1.0),
    NodeSpec("slow1", cpus=2, speed=0.4),
    NodeSpec("slow2", cpus=2, speed=0.4),
]


def _run(policy_name, seed=51):
    profile = DatabaseProfile.synthetic("sched", 300, seed=17)
    darwin = DarwinEngine(profile, mode="modeled", random_match_rate=1e-3,
                          sample_cap=100, seed=9)
    kernel = SimKernel(seed=seed)
    cluster = SimulatedCluster(kernel, list(SPECS), execution_noise=0.1)
    server = BioOperaServer(policy=make_policy(policy_name, seed=seed),
                            seed=seed)
    server.attach_environment(cluster)
    install_all_vs_all(server, darwin)
    # other users camp on the fast nodes; load-aware policies route
    # around them, blind policies park TEUs there to crawl
    cluster.set_external_load("fast1", 1.5)
    cluster.set_external_load("fast2", 1.5)
    kernel.run(until=1.0)  # let the load reports reach the server
    # fewer TEUs than CPU slots: placement is a real choice, and a bad
    # choice (a crawling fast node, a slow node) becomes the straggler
    instance_id = server.launch("all_vs_all", {
        "db_name": profile.name, "granularity": 8,
    })
    status = cluster.run_until_instance_done(instance_id)
    assert status == "completed"
    stats = server.statistics(instance_id)
    return {
        "policy": policy_name,
        "wall": kernel.now,
        "cpu": stats["cpu_seconds"],
    }


def _compute():
    policies = ("capacity-aware", "least-loaded", "round-robin", "random")
    rows = []
    for name in policies:
        runs = [_run(name, seed=51 + 10 * k) for k in range(3)]
        rows.append({
            "policy": name,
            "wall": sum(r["wall"] for r in runs) / len(runs),
            "cpu": sum(r["cpu"] for r in runs) / len(runs),
        })
    return rows


def test_a3_scheduling_policies(artifact):
    rows = cached("a3", _compute)
    best = min(r["wall"] for r in rows)
    table = format_table(
        ("policy", "WALL (s)", "CPU (s)", "vs best"),
        [
            (r["policy"], f"{r['wall']:.0f}", f"{r['cpu']:.0f}",
             f"{r['wall'] / best - 1:+.0%}")
            for r in rows
        ],
    )
    artifact("a3_scheduler_policies", table)

    walls = {r["policy"]: r["wall"] for r in rows}
    # the speed-aware default beats speed-blind placement on this cluster
    assert walls["capacity-aware"] <= walls["round-robin"]
    assert walls["capacity-aware"] <= walls["random"]
    # and is within noise of the best policy overall
    assert walls["capacity-aware"] <= best * 1.1


def test_a3_policies_agree_on_results():
    rows = cached("a3", _compute)
    # placement policy must never change what is computed, only when
    assert len(rows) == 4
