"""D1 — the dependability matrix (Section 5.4's event taxonomy).

For each failure class of the shared-cluster narrative, run the same
all-vs-all workload, inject exactly that failure, and report: completion,
WALL-time overhead vs. the undisturbed run, CPU-time lost to re-executed
work, and how many manual interventions were required. The paper's
conclusion — "all other events can now be masked by BioOpera so that no
manual intervention is necessary" — becomes a table.
"""

from repro.bio import DarwinEngine, DatabaseProfile
from repro.cluster import SimKernel, SimulatedCluster, uniform
from repro.cluster.failures import DISTURBANCES
from repro.core.engine import BioOperaServer, work_lost_to_failures
from repro.processes import install_all_vs_all
from repro.workloads.reporting import format_table

from .conftest import cached


def _run(disturb=None, manual=0, seed=21):
    profile = DatabaseProfile.synthetic("dmatrix", 260, seed=9)
    darwin = DarwinEngine(profile, mode="modeled", random_match_rate=1e-3,
                          sample_cap=100, seed=3)
    kernel = SimKernel(seed=seed)
    cluster = SimulatedCluster(kernel, uniform(6, cpus=2),
                               execution_noise=0.1)
    server = BioOperaServer(seed=seed)
    server.attach_environment(cluster)
    install_all_vs_all(server, darwin)
    instance_id = server.launch("all_vs_all", {
        "db_name": profile.name, "granularity": 24,
    })
    if disturb is not None:
        disturb(kernel, cluster, server, instance_id)
    status = cluster.run_until_instance_done(instance_id)
    server = cluster.server
    lost = work_lost_to_failures(server.store, instance_id)
    return {
        "status": status,
        "wall": kernel.now,
        "outputs": server.instance(instance_id).outputs,
        "lost": sum(lost.values()),
        "interventions": server.metrics["manual_interventions"],
    }


def _window(category, start_at, end_at, **params):
    """Disturb with the ``DISTURBANCES`` row ``category`` from
    ``start_at`` to ``end_at`` (simulated seconds)."""
    def disturb(kernel, cluster, server, iid):
        start, stop = DISTURBANCES[category](cluster, params)
        kernel.schedule(start_at, start)
        kernel.schedule(end_at, stop)

    return disturb


def _scenarios():
    def server_crash(kernel, cluster, server, iid):
        kernel.schedule(70.0, cluster.crash_server)
        kernel.schedule(900.0, cluster.recover_server)

    def suspend_resume(kernel, cluster, server, iid):
        kernel.schedule(40.0, server.suspend, iid, "other user")
        kernel.schedule(2000.0, server.resume, iid)

    def io_errors(kernel, cluster, server, iid):
        cluster.set_job_failure_rate(0.15)
        kernel.schedule(2000.0, cluster.set_job_failure_rate, 0.0)

    nodes = [f"node{index:03d}" for index in range(1, 7)]
    return [
        ("baseline (no failure)", None, 0),
        ("node crash", _window("node-crash", 60.0, 1200.0,
                               node="node002"), 0),
        ("whole-cluster failure", _window("mass-failure", 80.0, 2400.0,
                                          nodes=nodes), 0),
        ("BioOpera server crash", server_crash, 0),
        ("network outage", _window("network-outage", 60.0, 2000.0), 0),
        ("disk full", _window("storage-full", 50.0, 1500.0), 0),
        ("operator suspend/resume", suspend_resume, 2),
        ("file-system instability", io_errors, 0),
    ]


def _compute():
    rows = []
    baseline = None
    for label, disturb, manual in _scenarios():
        result = _run(disturb, manual)
        if baseline is None:
            baseline = result
        rows.append((label, result))
    return baseline, rows


def test_d1_matrix(artifact):
    baseline, rows = cached("d1", _compute)
    table = format_table(
        ("failure class", "status", "WALL overhead", "CPU-s lost",
         "manual actions"),
        [
            (
                label,
                result["status"],
                f"{result['wall'] / baseline['wall'] - 1:+.0%}",
                f"{result['lost']:.0f}",
                result["interventions"],
            )
            for label, result in rows
        ],
    )
    artifact("d1_dependability_matrix", table)

    for label, result in rows:
        # every failure class is survived...
        assert result["status"] == "completed", label
        # ...with identical results...
        assert result["outputs"] == baseline["outputs"], label
        # ...and no unplanned operator involvement.
        expected_manual = 2 if "suspend" in label else 0
        assert result["interventions"] == expected_manual, label


def test_d1_failures_cost_wall_not_correctness():
    baseline, rows = cached("d1", _compute)
    disturbed = [r for label, r in rows if label != "baseline (no failure)"]
    # at least some scenarios must actually have slowed the run down —
    # otherwise the injection isn't biting and the matrix proves nothing
    assert any(r["wall"] > baseline["wall"] * 1.1 for r in disturbed)
    assert any(r["lost"] > 0 for r in disturbed)
