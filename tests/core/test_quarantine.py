"""Node quarantine: repeatedly failing nodes are benched until probed.

A node that keeps failing jobs for node-attributed reasons (I/O errors,
program crashes) poisons every retry the dispatcher feeds it. With
quarantine enabled the server blacklists such a node after ``threshold``
strikes inside a sliding ``window``, keeps it out of placement, and
re-admits it only when a probe scheduled ``probe_after`` seconds later
reports it healthy. Shared-cause failures (disk-full, network-outage)
never count — benching nodes for the SAN's sins shrinks the cluster for
nothing.
"""

from repro.cluster import SimKernel, SimulatedCluster, uniform
from repro.core.engine import (
    BioOperaServer, ProgramRegistry, ProgramResult, events as ev,
)
from repro.errors import ActivityFailure

OCR = "PROCESS P\n  ACTIVITY A\n    PROGRAM w.u\n  END\nEND"


def _cluster(seed=51, nodes=2, threshold=2, window=100.0, probe_after=40.0,
             program=None, quarantine=True):
    kernel = SimKernel(seed=seed)
    cluster = SimulatedCluster(kernel, uniform(nodes, cpus=1))
    registry = ProgramRegistry()
    registry.register(
        "w.u", program or (lambda inputs, ctx: ProgramResult({}, 5.0)))
    server = BioOperaServer(registry=registry)
    server.attach_environment(cluster)
    if quarantine:
        server.enable_quarantine(threshold, window, probe_after)
    server.define_template_ocr(OCR)
    return kernel, cluster, server


class TestStrikeAccounting:
    def test_strikes_within_window_quarantine_the_node(self):
        kernel, cluster, server = _cluster(threshold=2, window=100.0)
        server.quarantine.strike("node001", 10.0)
        assert not server.awareness.node("node001").quarantined
        server.quarantine.strike("node001", 20.0)
        assert server.awareness.node("node001").quarantined
        assert server.metrics["nodes_quarantined"] == 1
        names = [v.name for v in server.awareness.candidates()]
        assert "node001" not in names and "node002" in names

    def test_strikes_outside_window_do_not_accumulate(self):
        kernel, cluster, server = _cluster(threshold=2, window=100.0)
        server.quarantine.strike("node001", 10.0)
        server.quarantine.strike("node001", 200.0)  # first strike expired
        assert not server.awareness.node("node001").quarantined

    def test_shared_cause_reasons_are_not_node_attributed(self):
        assert "io-error" in ev.NODE_ATTRIBUTED_REASONS
        assert "program-error" in ev.NODE_ATTRIBUTED_REASONS
        assert "injected-fault" in ev.NODE_ATTRIBUTED_REASONS
        assert "disk-full" not in ev.NODE_ATTRIBUTED_REASONS
        assert "network-outage" not in ev.NODE_ATTRIBUTED_REASONS
        assert "node-down" not in ev.NODE_ATTRIBUTED_REASONS

    def test_environment_without_probe_support_never_quarantines(self):
        kernel, cluster, server = _cluster(quarantine=False)
        server.environment = object()  # no schedule_probe: no way back
        server.enable_quarantine(1, 100.0, 40.0)
        server.quarantine.strike("node001", 10.0)
        assert not server.awareness.node("node001").quarantined


class TestProbeReadmission:
    def test_probe_success_readmits_the_node(self):
        kernel, cluster, server = _cluster(threshold=1, probe_after=40.0)
        server.quarantine.strike("node001", kernel.now)
        assert server.awareness.node("node001").quarantined
        kernel.run(until=kernel.now + 45.0)  # the scheduled probe fires
        assert not server.awareness.node("node001").quarantined

    def test_failed_probe_keeps_the_node_benched(self):
        kernel, cluster, server = _cluster(threshold=1)
        server.quarantine.strike("node001", 5.0)
        server.on_probe_result("node001", ok=False)
        assert server.awareness.node("node001").quarantined
        server.on_probe_result("node001", ok=True)
        assert not server.awareness.node("node001").quarantined

    def test_node_restart_clears_quarantine_and_history(self):
        kernel, cluster, server = _cluster(threshold=2)
        server.quarantine.strike("node001", 10.0)
        server.quarantine.strike("node001", 11.0)
        assert server.awareness.node("node001").quarantined
        cluster.crash_node("node001")
        cluster.restore_node("node001")
        kernel.run(until=kernel.now + 10.0)  # deliver the node-up report
        assert not server.awareness.node("node001").quarantined
        # history was wiped too: one fresh strike must not re-quarantine
        server.quarantine.strike("node001", 12.0)
        assert not server.awareness.node("node001").quarantined


class TestEndToEnd:
    def test_flaky_node_is_benched_probed_and_work_completes(self):
        """A single-node cluster whose program fails three times running:
        the node is quarantined on the third strike, the retry waits for
        the probe, and the instance still completes after re-admission."""
        calls = {"n": 0}

        def flaky(inputs, ctx):
            calls["n"] += 1
            if calls["n"] <= 3:
                raise ActivityFailure("io-error", detail="flaky scratch disk")
            return ProgramResult({}, 5.0)

        kernel, cluster, server = _cluster(
            seed=52, nodes=1, threshold=3, window=1000.0, probe_after=40.0,
            program=flaky,
        )
        instance_id = server.launch("P")
        status = cluster.run_until_instance_done(instance_id)
        assert status == "completed"
        assert server.metrics["nodes_quarantined"] == 1
        assert server.metrics["jobs_failed"] == 3
        assert not server.awareness.node("node001").quarantined

    def test_recover_server_carries_quarantine_config(self):
        kernel, cluster, server = _cluster(threshold=4, window=77.0,
                                           probe_after=33.0)
        instance_id = server.launch("P")
        kernel.run(until=2.0)
        cluster.crash_server()
        cluster.recover_server()
        assert cluster.server is not server
        assert cluster.server.quarantine.args == (4, 77.0, 33.0)
        status = cluster.run_until_instance_done(instance_id)
        assert status == "completed"
