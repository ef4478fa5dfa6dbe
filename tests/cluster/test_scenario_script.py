"""ScenarioScript: scheduled operations, annotations, background load."""

import pytest

from repro.cluster import (
    DAY,
    HOUR,
    SERVER,
    ScenarioScript,
    SimKernel,
    SimulatedCluster,
    uniform,
)
from repro.core.engine import BioOperaServer, ProgramRegistry, ProgramResult


def build(n_nodes=2, cpus=2, seed=1):
    kernel = SimKernel(seed=seed)
    cluster = SimulatedCluster(kernel, uniform(n_nodes, cpus=cpus))
    registry = ProgramRegistry()
    registry.register("w.u", lambda i, c: ProgramResult({}, 50.0))
    server = BioOperaServer(registry=registry, seed=seed)
    server.attach_environment(cluster)
    server.define_template_ocr(
        "PROCESS P\n  ACTIVITY A\n    PROGRAM w.u\n  END\nEND")
    return kernel, cluster, server


class TestScheduling:
    def test_at_runs_and_annotates(self):
        kernel, cluster, _server = build()
        fired = []
        script = ScenarioScript(cluster)
        script.at(10.0, "my event", fired.append, "x")
        kernel.run(until=20.0)
        assert fired == ["x"]
        assert (10.0, "my event") in cluster.trace.annotations

    def test_node_crash_pair(self):
        kernel, cluster, _server = build()
        script = ScenarioScript(cluster)
        script.node_crash(5.0, "node001", duration=10.0)
        kernel.run(until=6.0)
        assert not cluster.nodes["node001"].up
        kernel.run(until=16.0)
        assert cluster.nodes["node001"].up

    def test_storage_full_window(self):
        kernel, cluster, _server = build()
        script = ScenarioScript(cluster)
        script.storage_full(5.0, duration=10.0)
        kernel.run(until=6.0)
        assert cluster.storage_full
        kernel.run(until=16.0)
        assert not cluster.storage_full

    def test_network_outage_window(self):
        """An outage cuts every node off the server, then heals."""
        kernel, cluster, _server = build()
        script = ScenarioScript(cluster)
        script.network_outage(5.0, duration=10.0)
        kernel.run(until=6.0)
        assert all(cluster.network.is_cut(SERVER, name)
                   and cluster.network.is_cut(name, SERVER)
                   for name in cluster.nodes)
        assert cluster.available_cpus() == 0
        kernel.run(until=16.0)
        assert not any(cluster.network.is_cut(SERVER, name)
                       for name in cluster.nodes)
        assert cluster.network.health()["partitions_active"] == 0
        assert cluster.trace.annotations == [
            (5.0, "network outage"), (15.0, "network outage over")]

    def test_server_maintenance(self):
        kernel, cluster, server = build()
        script = ScenarioScript(cluster)
        script.server_crash(5.0, recovery_after=10.0,
                            label="server maintenance",
                            recovery_label="server restarted")
        kernel.run(until=6.0)
        assert not cluster.server.up
        kernel.run(until=16.0)
        assert cluster.server.up
        assert cluster.server is not server  # recovered replacement
        assert cluster.trace.annotations == [
            (5.0, "server maintenance"), (15.0, "server restarted")]

    def test_upgrade_all(self):
        kernel, cluster, server = build(cpus=1)
        script = ScenarioScript(cluster)
        script.upgrade_all(5.0, cpus=2)
        kernel.run(until=6.0)
        assert all(node.cpus == 2 for node in cluster.nodes.values())
        assert server.awareness.node("node001").cpus == 2

    def test_suspend_resume_instance(self):
        kernel, cluster, server = build()
        iid = server.launch("P")
        script = ScenarioScript(cluster)
        script.suspend_instance(5.0, iid)
        script.resume_instance(10.0, iid)
        kernel.run(until=6.0)
        assert server.instance(iid).status == "suspended"
        kernel.run(until=11.0)
        assert server.instance(iid).status == "running"


class TestLoadPatterns:
    def test_load_burst_sets_and_clears(self):
        kernel, cluster, _server = build()
        script = ScenarioScript(cluster)
        script.load_burst(5.0, 10.0, ["node001"], 0.5)
        kernel.run(until=6.0)
        assert cluster.nodes["node001"].external_load == pytest.approx(1.0)
        assert cluster.nodes["node002"].external_load == 0.0
        kernel.run(until=16.0)
        assert cluster.nodes["node001"].external_load == 0.0

    def test_background_load_fluctuates_within_bounds(self):
        kernel, cluster, _server = build()
        script = ScenarioScript(cluster)
        script.background_load(0.0, 2 * DAY, ["node001", "node002"],
                               mean_fraction=0.4, change_every=HOUR)
        observed = []

        def sample():
            observed.append(cluster.nodes["node001"].external_load)
            if kernel.now < 2 * DAY:
                kernel.schedule(HOUR, sample)

        kernel.schedule(HOUR, sample)
        kernel.run(until=2 * DAY + 1)
        assert observed
        assert all(0.0 <= load <= 2.0 for load in observed)
        assert len(set(observed)) > 3  # actually fluctuates

    def test_background_load_deterministic(self):
        loads = []
        for _ in range(2):
            kernel, cluster, _server = build(seed=9)
            script = ScenarioScript(cluster)
            script.background_load(0.0, DAY, ["node001"], 0.3,
                                   change_every=2 * HOUR)
            kernel.run(until=DAY)
            loads.append(cluster.nodes["node001"].external_load)
        assert loads[0] == loads[1]

    def test_background_load_clears_after_end(self):
        kernel, cluster, _server = build()
        script = ScenarioScript(cluster)
        script.background_load(0.0, HOUR, ["node001"], 0.9,
                               change_every=10 * 60.0)
        kernel.run(until=3 * HOUR)
        assert cluster.nodes["node001"].external_load == 0.0
