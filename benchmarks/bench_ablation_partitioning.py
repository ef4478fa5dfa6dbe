"""A4 — partitioning-strategy ablation for the parallel task.

The all-vs-all workload is triangular: entry *i* is compared against every
entry *j > i*, so naive contiguous partitions are badly imbalanced (the
first TEU does far more pairs than the last). The ablation compares the
three strategies of :mod:`repro.processes.partitioning` at the paper's
optimal granularity.
"""

from repro.cluster import SimKernel, SimulatedCluster, ik_sun
from repro.core.engine import BioOperaServer
from repro.processes import install_all_vs_all
from repro.workloads import datasets
from repro.workloads.reporting import format_table

from .conftest import cached


def _run(strategy, seed=61):
    darwin = datasets.study_darwin(seed=2)
    kernel = SimKernel(seed=seed)
    # low execution noise: this ablation isolates partition imbalance
    cluster = SimulatedCluster(kernel, ik_sun(), execution_noise=0.05)
    server = BioOperaServer(seed=seed)
    server.attach_environment(cluster)
    install_all_vs_all(server, darwin)
    instance_id = server.launch("all_vs_all", {
        "db_name": darwin.profile.name,
        "granularity": 15,  # == #CPUs: stragglers bite hardest here
        "partition_strategy": strategy,
    })
    status = cluster.run_until_instance_done(instance_id)
    assert status == "completed"
    return {
        "strategy": strategy,
        "wall": kernel.now,
        "matches": server.instance(instance_id).outputs["match_count"],
    }


def _compute():
    return [_run(s) for s in ("interleaved", "contiguous", "balanced")]


def test_a4_partition_strategies(artifact):
    rows = cached("a4", _compute)
    table = format_table(
        ("strategy", "WALL (s)", "matches"),
        [(r["strategy"], f"{r['wall']:.0f}", r["matches"]) for r in rows],
    )
    artifact("a4_partitioning", table)

    walls = {r["strategy"]: r["wall"] for r in rows}
    # contiguous ranges over the triangular workload straggle badly
    assert walls["contiguous"] > 1.15 * walls["interleaved"]
    # cost-balanced partitions are at least as good as interleaving
    assert walls["balanced"] <= walls["interleaved"] * 1.1
    # the strategy must not change the science: match counts agree up to
    # the synthetic background-match sampling (keyed per TEU in modeled
    # mode), i.e. well within 10%
    counts = [r["matches"] for r in rows]
    assert max(counts) <= 1.1 * min(counts)
