"""SimulatedCluster: dispatch, failures, outages, recovery, tracing."""

import pytest

from repro.cluster import ScenarioScript, SimKernel, SimulatedCluster, uniform
from repro.core.engine import BioOperaServer, ProgramRegistry, ProgramResult

FAN = """
PROCESS Fan
  INPUT items
  OUTPUT results = F.results
  PARALLEL F
    FOREACH wb.items AS e
    ACTIVITY Unit
      PROGRAM w.unit
    END
  END
END
"""


def build(n_nodes=3, cpus=2, unit_cost=100.0, seed=1, noise=0.0):
    registry = ProgramRegistry()
    registry.register(
        "w.unit",
        lambda i, c: ProgramResult({"v": i["e"]}, cost=unit_cost),
    )
    kernel = SimKernel(seed=seed)
    cluster = SimulatedCluster(kernel, uniform(n_nodes, cpus=cpus),
                               execution_noise=noise)
    server = BioOperaServer(registry=registry, seed=seed)
    server.attach_environment(cluster)
    server.define_template_ocr(FAN)
    return kernel, cluster, server


class TestHappyPath:
    def test_fan_completes_with_parallel_speedup(self):
        kernel, cluster, server = build(n_nodes=3, cpus=2)
        iid = server.launch("Fan", {"items": list(range(12))})
        assert cluster.run_until_instance_done(iid) == "completed"
        # 12 jobs of 100s on 6 CPUs: two waves plus overheads
        assert 200.0 <= kernel.now <= 260.0

    def test_server_clock_is_simulation_time(self):
        kernel, cluster, server = build()
        assert server.clock() == kernel.now

    def test_results_correct(self):
        _k, cluster, server = build()
        iid = server.launch("Fan", {"items": [3, 1, 4]})
        cluster.run_until_instance_done(iid)
        results = server.instance(iid).outputs["results"]
        assert [r["v"] for r in results] == [3, 1, 4]

    def test_cancel_kills_running_job(self):
        kernel, cluster, server = build()
        iid = server.launch("Fan", {"items": [1]})
        kernel.run(until=10.0)  # job is running on a node
        server.abort(iid, "test")
        assert all(not node.running_jobs()
                   for node in cluster.nodes.values())

    def test_deterministic_given_seed(self):
        walls = []
        for _ in range(2):
            kernel, cluster, server = build(seed=42, noise=0.2)
            iid = server.launch("Fan", {"items": list(range(8))})
            cluster.run_until_instance_done(iid)
            walls.append(kernel.now)
        assert walls[0] == walls[1]


class TestNodeFailure:
    def test_node_crash_work_is_rerun(self):
        kernel, cluster, server = build(n_nodes=2, cpus=1)
        iid = server.launch("Fan", {"items": [1, 2]})
        kernel.run(until=10.0)
        cluster.crash_node("node001")
        cluster.kernel.schedule(300.0, cluster.restore_node, "node001")
        assert cluster.run_until_instance_done(iid) == "completed"
        events = list(server.store.instances.events(iid))
        crash_failures = [e for e in events
                          if e["type"] == "task_failed"
                          and e["reason"] == "node-crash"]
        assert len(crash_failures) == 1

    def test_crash_detected_after_delay(self):
        assert SimulatedCluster.DETECTION_DELAY == 120.0
        kernel, cluster, server = build()
        iid = server.launch("Fan", {"items": [1]})
        kernel.run(until=10.0)
        cluster.crash_node("node001")
        assert server.awareness.node("node001").up  # not yet detected
        kernel.run(until=10.0 + 121.0)
        assert not server.awareness.node("node001").up

    def test_fast_recovery_cancels_detection(self):
        kernel, cluster, server = build()
        iid = server.launch("Fan", {"items": [1]})
        kernel.run(until=5.0)
        cluster.crash_node("node001")
        cluster.restore_node("node001")
        kernel.run(until=200.0)
        assert server.awareness.node("node001").up

    def test_whole_cluster_crash_and_recovery(self):
        kernel, cluster, server = build(n_nodes=2, cpus=1)
        iid = server.launch("Fan", {"items": [1, 2, 3, 4]})
        kernel.run(until=20.0)
        for name in list(cluster.nodes):
            cluster.crash_node(name)
        kernel.schedule(3600.0, cluster.restore_node, "node001")
        kernel.schedule(3600.0, cluster.restore_node, "node002")
        assert cluster.run_until_instance_done(iid) == "completed"


class TestNetworkOutage:
    def test_long_outage_loses_results_but_run_recovers(self, monkeypatch):
        monkeypatch.setattr(SimulatedCluster, "DETECTION_DELAY", 60.0)
        kernel, cluster, server = build(n_nodes=2, cpus=1)
        iid = server.launch("Fan", {"items": [1, 2]})
        kernel.run(until=50.0)  # jobs running (100s each)
        pid = cluster.start_partition()  # every node: an outage
        # outage longer than PEC retransmission budget
        kernel.schedule(3000.0, cluster.heal_partition, pid)
        assert cluster.run_until_instance_done(iid) == "completed"
        assert cluster.network.messages_dropped > 0

    def test_short_glitch_recovered_by_retransmission(self, monkeypatch):
        monkeypatch.setattr(SimulatedCluster, "DETECTION_DELAY", 3600.0)
        kernel, cluster, server = build(n_nodes=2, cpus=1)
        iid = server.launch("Fan", {"items": [1, 2]})
        kernel.run(until=99.0)  # just before completion reports
        pid = cluster.start_partition()
        kernel.schedule(120.0, cluster.heal_partition, pid)
        assert cluster.run_until_instance_done(iid) == "completed"
        # no rework: each unit ran once
        assert server.metrics["jobs_dispatched"] == 2


class TestStorageAndIO:
    def test_disk_full_fails_jobs_until_freed(self):
        kernel, cluster, server = build(n_nodes=1, cpus=1)
        cluster.set_storage_full(True)
        iid = server.launch("Fan", {"items": [1]})
        kernel.run(until=500.0)
        instance = server.instance(iid)
        assert instance.status == "running"  # retrying, not aborted
        cluster.set_storage_full(False)
        assert cluster.run_until_instance_done(iid) == "completed"
        events = list(server.store.instances.events(iid))
        assert any(e.get("reason") == "disk-full" for e in events)

    def test_io_error_rate_causes_retries(self):
        kernel, cluster, server = build(n_nodes=2, cpus=2, seed=3)
        cluster.set_job_failure_rate(0.5)
        iid = server.launch("Fan", {"items": list(range(6))})
        kernel.schedule(1000.0, cluster.set_job_failure_rate, 0.0)
        assert cluster.run_until_instance_done(iid) == "completed"
        events = list(server.store.instances.events(iid))
        io_errors = [e for e in events if e.get("reason") == "io-error"]
        assert io_errors  # some jobs failed and were retried


class TestServerCrash:
    def test_server_crash_and_recovery_completes(self):
        kernel, cluster, server = build(n_nodes=2, cpus=1)
        iid = server.launch("Fan", {"items": [1, 2, 3, 4]})
        kernel.run(until=50.0)
        cluster.crash_server()
        kernel.schedule(600.0, cluster.recover_server)
        kernel.run(until=651.0)
        recovered = cluster.server
        assert recovered is not server
        assert cluster.run_until_instance_done(iid) == "completed"
        assert recovered.instance(iid).outputs["results"]

    def test_results_during_server_downtime_are_lost_then_redone(self):
        kernel, cluster, server = build(n_nodes=2, cpus=1)
        iid = server.launch("Fan", {"items": [1, 2]})
        kernel.run(until=50.0)
        cluster.crash_server()
        kernel.run(until=200.0)  # jobs complete, reports dropped
        cluster.recover_server()
        assert cluster.run_until_instance_done(iid) == "completed"
        # server-recovery failures recorded for the in-flight tasks
        events = list(cluster.server.store.instances.events(iid))
        assert any(e.get("reason") == "server-recovery" for e in events)


class TestUpgradeAndTrace:
    def test_upgrade_doubles_throughput(self):
        kernel, cluster, server = build(n_nodes=2, cpus=1)
        iid = server.launch("Fan", {"items": list(range(8))})
        kernel.run(until=150.0)
        for name in list(cluster.nodes):
            cluster.upgrade_node(name, cpus=2)
        cluster.run_until_instance_done(iid)
        assert server.awareness.node("node001").cpus == 2
        assert cluster.trace.max_available() == 4.0

    def test_trace_availability_and_utilization(self):
        kernel, cluster, server = build(n_nodes=2, cpus=2)
        iid = server.launch("Fan", {"items": [1, 2, 3, 4]})
        cluster.run_until_instance_done(iid)
        assert cluster.trace.max_available() == 4.0
        available, busy = cluster.trace.integrals()
        assert 0 < busy <= available

    def test_trace_series_resampling(self):
        kernel, cluster, server = build(n_nodes=1, cpus=1)
        iid = server.launch("Fan", {"items": [1]})
        cluster.run_until_instance_done(iid)
        series = cluster.trace.series(step=10.0)
        assert series[0][0] == 0.0
        assert all(t2 - t1 == pytest.approx(10.0)
                   for (t1, _, _), (t2, _, _) in zip(series, series[1:]))

    def test_scenario_annotations_recorded(self):
        kernel, cluster, server = build(n_nodes=2, cpus=1)
        script = ScenarioScript(cluster)
        script.node_crash(30.0, "node001", duration=60.0)
        iid = server.launch("Fan", {"items": [1, 2]})
        cluster.run_until_instance_done(iid)
        labels = [label for _t, label in cluster.trace.annotations]
        assert "node node001 failure" in labels
        assert "node node001 failure repaired" in labels


class TestExecutionNoise:
    def test_noise_changes_durations(self):
        kernel1, cluster1, server1 = build(seed=5, noise=0.0)
        iid1 = server1.launch("Fan", {"items": [1]})
        cluster1.run_until_instance_done(iid1)
        kernel2, cluster2, server2 = build(seed=5, noise=0.5)
        iid2 = server2.launch("Fan", {"items": [1]})
        cluster2.run_until_instance_done(iid2)
        assert kernel1.now != kernel2.now

    def test_noise_factor_mean_near_one(self):
        _k, cluster, _s = build(noise=0.3)
        samples = [cluster.execution_noise_factor() for _ in range(4000)]
        assert sum(samples) / len(samples) == pytest.approx(1.0, rel=0.05)
