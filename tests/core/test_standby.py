"""Hot-standby server failover (the paper's future-work architecture)."""

import pytest

from repro.cluster import SimKernel, SimulatedCluster, uniform
from repro.core.engine import (
    BioOperaServer,
    ProgramRegistry,
    ProgramResult,
    StandbyMonitor,
    attach_standby,
)
from repro.errors import ClusterError

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


def build(seed=3, takeover_after=60.0, check_interval=15.0):
    registry = ProgramRegistry()
    registry.register("w.unit",
                      lambda i, c: ProgramResult({"v": i["e"]}, cost=200.0))
    kernel = SimKernel(seed=seed)
    cluster = SimulatedCluster(kernel, uniform(3, cpus=2))
    server = BioOperaServer(registry=registry, seed=seed)
    server.attach_environment(cluster)
    server.define_template_ocr(FAN)
    monitor = attach_standby(cluster, takeover_after=takeover_after,
                             check_interval=check_interval)
    return kernel, cluster, server, monitor


class TestFailover:
    def test_takeover_after_silence(self):
        kernel, cluster, server, monitor = build()
        iid = server.launch("Fan", {"items": [1, 2, 3, 4]})
        kernel.run(until=30.0)
        cluster.crash_server()
        # standby promotes within takeover_after + check_interval
        kernel.run(until=30.0 + 60.0 + 20.0)
        assert monitor.takeovers == 1
        assert cluster.server is not server
        assert cluster.server.up

    def test_run_completes_through_failover_without_operator(self):
        kernel, cluster, server, monitor = build()
        iid = server.launch("Fan", {"items": [1, 2, 3, 4, 5, 6, 7, 8]})
        kernel.run(until=50.0)
        cluster.crash_server()
        status = cluster.run_until_instance_done(iid)
        assert status == "completed"
        results = cluster.server.instance(iid).outputs["results"]
        assert [r["v"] for r in results] == [1, 2, 3, 4, 5, 6, 7, 8]
        # nobody called recover_server manually
        assert cluster.server.metrics["manual_interventions"] == 0
        assert cluster.server.metrics["standby_takeovers"] == 1

    def test_downtime_bounded_by_detection_window(self):
        kernel, cluster, server, monitor = build(takeover_after=45.0,
                                                 check_interval=10.0)
        iid = server.launch("Fan", {"items": [1]})
        kernel.run(until=20.0)
        crash_time = kernel.now
        cluster.crash_server()
        while cluster.server is server:
            kernel.step()
        downtime = kernel.now - crash_time
        assert downtime <= 45.0 + 10.0 + 1.0

    def test_healthy_primary_never_replaced(self):
        kernel, cluster, server, monitor = build()
        iid = server.launch("Fan", {"items": [1, 2]})
        cluster.run_until_instance_done(iid)
        assert monitor.takeovers == 0
        assert cluster.server is server

    def test_double_failover(self):
        kernel, cluster, server, monitor = build()
        iid = server.launch("Fan", {"items": [1, 2, 3, 4, 5, 6]})
        kernel.run(until=30.0)
        cluster.crash_server()
        kernel.run(until=150.0)
        assert monitor.takeovers == 1
        cluster.crash_server()  # the replacement dies too
        status = cluster.run_until_instance_done(iid)
        assert status == "completed"
        assert monitor.takeovers == 2
        assert cluster.server.metrics["standby_takeovers"] == 2

    def test_disabled_monitor_does_nothing(self):
        kernel, cluster, server, monitor = build()
        monitor.enabled = False
        iid = server.launch("Fan", {"items": [1, 2]})
        kernel.run(until=10.0)
        cluster.crash_server()
        kernel.run(until=500.0)
        assert monitor.takeovers == 0
        assert cluster.server is server  # still the dead primary


def _bare_cluster(with_server=True):
    kernel = SimKernel(seed=1)
    cluster = SimulatedCluster(kernel, uniform(1))
    if with_server:
        BioOperaServer().attach_environment(cluster)
    return kernel, cluster


class TestMonitorUnit:
    def test_promote_without_primary_raises(self):
        _kernel, cluster = _bare_cluster(with_server=False)
        with pytest.raises(ClusterError):
            StandbyMonitor(cluster).promote()

    def test_check_respects_window(self):
        kernel, cluster = _bare_cluster()
        primary = cluster.server
        monitor = StandbyMonitor(cluster, takeover_after=30.0)
        primary.crash()
        kernel.run(until=10.0)
        assert monitor.check() is None      # still within the window
        kernel.run(until=31.0)
        replacement = monitor.check()
        assert replacement is not None and replacement is not primary
        assert cluster.server is replacement

    def test_heartbeat_resets_silence(self):
        kernel, cluster = _bare_cluster()
        monitor = StandbyMonitor(cluster, takeover_after=30.0)
        kernel.run(until=25.0)
        assert monitor.silence() == 25.0
        monitor.receive_heartbeat()
        assert monitor.silence() == 0.0
