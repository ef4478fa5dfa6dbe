"""Integration: the dependability claims, exercised end to end.

Each test runs the real all-vs-all process on the simulated cluster and
injects one failure class from the paper's Figure 5 taxonomy, asserting
(a) the run completes, (b) the results are identical to an undisturbed
run, and (c) completed work is not silently lost or duplicated.
"""

import pytest

from repro.bio import DarwinEngine, DatabaseProfile
from repro.cluster import SimKernel, SimulatedCluster, uniform
from repro.cluster.failures import DISTURBANCES
from repro.core.engine import BioOperaServer
from repro.processes import install_all_vs_all


@pytest.fixture(scope="module")
def darwin():
    profile = DatabaseProfile.synthetic("itest", 120, seed=5)
    return DarwinEngine(profile, mode="modeled", random_match_rate=2e-3,
                        sample_cap=200, seed=2)


def launch(darwin, seed=11, nodes=4, cpus=2, granularity=8, noise=0.0):
    kernel = SimKernel(seed=seed)
    cluster = SimulatedCluster(kernel, uniform(nodes, cpus=cpus),
                               execution_noise=noise)
    server = BioOperaServer(seed=seed)
    server.attach_environment(cluster)
    install_all_vs_all(server, darwin)
    instance_id = server.launch("all_vs_all", {
        "db_name": darwin.profile.name,
        "granularity": granularity,
    })
    return kernel, cluster, server, instance_id


@pytest.fixture(scope="module")
def baseline(darwin):
    kernel, cluster, server, iid = launch(darwin)
    cluster.run_until_instance_done(iid)
    return {
        "outputs": server.instance(iid).outputs,
        "wall": kernel.now,
        "events": server.store.instances.event_count(iid),
    }


def outage(kernel, cluster, start_at, end_at):
    """A network outage (a partition of every node) from ``start_at``
    to ``end_at``."""
    start, stop = DISTURBANCES["network-outage"](cluster, {})
    kernel.schedule(start_at, start)
    kernel.schedule(end_at, stop)


def run_with(darwin, disturb, **kw):
    kernel, cluster, server, iid = launch(darwin, **kw)
    disturb(kernel, cluster, server, iid)
    status = cluster.run_until_instance_done(iid)
    return kernel, cluster, server, iid, status


class TestFailureMatrix:
    def test_node_crash_mid_run(self, darwin, baseline):
        def disturb(kernel, cluster, server, iid):
            kernel.schedule(200.0, cluster.crash_node, "node001")
            kernel.schedule(2000.0, cluster.restore_node, "node001")

        _k, _c, server, iid, status = run_with(darwin, disturb)
        assert status == "completed"
        assert server.instance(iid).outputs == baseline["outputs"]

    def test_entire_cluster_failure(self, darwin, baseline):
        def disturb(kernel, cluster, server, iid):
            def crash_all():
                for name in list(cluster.nodes):
                    cluster.crash_node(name)

            def restore_all():
                for name in list(cluster.nodes):
                    cluster.restore_node(name)

            kernel.schedule(300.0, crash_all)
            kernel.schedule(4000.0, restore_all)

        _k, _c, server, iid, status = run_with(darwin, disturb)
        assert status == "completed"
        assert server.instance(iid).outputs == baseline["outputs"]

    def test_server_crash_and_recovery(self, darwin, baseline):
        def disturb(kernel, cluster, server, iid):
            kernel.schedule(250.0, cluster.crash_server)
            kernel.schedule(1000.0, cluster.recover_server)

        _k, cluster, _s, iid, status = run_with(darwin, disturb)
        assert status == "completed"
        assert cluster.server.instance(iid).outputs == baseline["outputs"]

    def test_network_outage(self, darwin, baseline):
        def disturb(kernel, cluster, server, iid):
            outage(kernel, cluster, 200.0, 2500.0)

        _k, _c, server, iid, status = run_with(darwin, disturb)
        assert status == "completed"
        assert server.instance(iid).outputs == baseline["outputs"]

    def test_disk_full_window(self, darwin, baseline):
        def disturb(kernel, cluster, server, iid):
            kernel.schedule(150.0, cluster.set_storage_full, True)
            kernel.schedule(2000.0, cluster.set_storage_full, False)

        _k, _c, server, iid, status = run_with(darwin, disturb)
        assert status == "completed"
        assert server.instance(iid).outputs == baseline["outputs"]

    def test_suspend_resume_window(self, darwin, baseline):
        def disturb(kernel, cluster, server, iid):
            # mid-run for this workload (baseline wall is ~75 s)
            kernel.schedule(10.0, server.suspend, iid, "other user")
            kernel.schedule(5000.0, server.resume, iid)

        kernel, _c, server, iid, status = run_with(darwin, disturb)
        assert status == "completed"
        assert server.instance(iid).outputs == baseline["outputs"]
        assert kernel.now > baseline["wall"]  # suspension costs wall time

    def test_hardware_upgrade_mid_run(self, darwin):
        # more TEUs than CPUs, so extra processors actually absorb work
        kernel0, _c0, server0, iid0 = launch(darwin, granularity=32)
        _c0.run_until_instance_done(iid0)
        flat_wall = kernel0.now
        flat_outputs = server0.instance(iid0).outputs

        def disturb(kernel, cluster, server, iid):
            def upgrade():
                for name in list(cluster.nodes):
                    cluster.upgrade_node(name, cpus=4)

            kernel.schedule(10.0, upgrade)

        kernel, _c, server, iid, status = run_with(darwin, disturb,
                                                   granularity=32)
        assert status == "completed"
        assert server.instance(iid).outputs == flat_outputs
        assert kernel.now < flat_wall  # more CPUs help

    def test_io_error_burst(self, darwin, baseline):
        def disturb(kernel, cluster, server, iid):
            cluster.set_job_failure_rate(0.3)
            kernel.schedule(3000.0, cluster.set_job_failure_rate, 0.0)

        _k, _c, server, iid, status = run_with(darwin, disturb, seed=13)
        assert status == "completed"
        assert server.instance(iid).outputs == baseline["outputs"]

    def test_combined_catastrophe(self, darwin, baseline):
        """Everything at once: crash + outage + server loss + disk full."""
        def disturb(kernel, cluster, server, iid):
            kernel.schedule(100.0, cluster.crash_node, "node002")
            outage(kernel, cluster, 220.0, 900.0)
            kernel.schedule(1000.0, cluster.crash_server)
            kernel.schedule(1800.0, cluster.recover_server)
            kernel.schedule(2000.0, cluster.set_storage_full, True)
            kernel.schedule(2600.0, cluster.set_storage_full, False)
            kernel.schedule(3000.0, cluster.restore_node, "node002")

        _k, cluster, _s, iid, status = run_with(darwin, disturb)
        assert status == "completed"
        assert cluster.server.instance(iid).outputs == baseline["outputs"]


class TestCrashPointSweep:
    """Recovery correctness must be independent of *when* the server dies."""

    @pytest.mark.parametrize("crash_at", [50.0, 300.0, 700.0, 1200.0, 2500.0])
    def test_server_crash_at_many_points(self, darwin, baseline, crash_at):
        def disturb(kernel, cluster, server, iid):
            kernel.schedule(crash_at, cluster.crash_server)
            kernel.schedule(crash_at + 600.0, cluster.recover_server)

        _k, cluster, _s, iid, status = run_with(darwin, disturb)
        assert status == "completed"
        assert cluster.server.instance(iid).outputs == baseline["outputs"]

    @pytest.mark.parametrize("crash_at", [100.0, 600.0, 1500.0])
    def test_node_crash_at_many_points(self, darwin, baseline, crash_at):
        def disturb(kernel, cluster, server, iid):
            kernel.schedule(crash_at, cluster.crash_node, "node003")
            kernel.schedule(crash_at + 1000.0, cluster.restore_node,
                            "node003")

        _k, _c, server, iid, status = run_with(darwin, disturb)
        assert status == "completed"
        assert server.instance(iid).outputs == baseline["outputs"]


class TestEventLogInvariants:
    def test_log_replay_after_disturbed_run(self, darwin):
        from repro.core.engine import replay_instance, verify_log

        def disturb(kernel, cluster, server, iid):
            kernel.schedule(200.0, cluster.crash_node, "node001")
            kernel.schedule(1500.0, cluster.restore_node, "node001")
            kernel.schedule(400.0, cluster.crash_server)
            kernel.schedule(1000.0, cluster.recover_server)

        _k, cluster, _s, iid, _status = run_with(darwin, disturb)
        server = cluster.server
        assert verify_log(server.store, iid, server._resolver) == []
        twin = replay_instance(server.store, iid, server._resolver)
        assert twin.status == "completed"
        assert twin.outputs == server.instance(iid).outputs

    def test_no_duplicate_completions_per_attempt(self, darwin):
        def disturb(kernel, cluster, server, iid):
            outage(kernel, cluster, 200.0, 1200.0)

        _k, _c, server, iid, _status = run_with(darwin, disturb)
        seen = set()
        for event in server.store.instances.events(iid):
            if event["type"] == "task_completed" and event.get("node"):
                key = event["path"]
                assert key not in seen, f"{key} completed twice"
                seen.add(key)
