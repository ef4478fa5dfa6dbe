"""Per-link fault fabric: partitions, loss, duplication, reordering.

The network is no longer all-or-nothing: links between named endpoints can
be cut in either direction (or both), lose messages probabilistically,
duplicate them, or reorder them — and a cut that starts while a message is
in flight kills it at delivery time instead of letting it tunnel through.
These tests pin the fabric's semantics directly on :class:`Network`, then
the cluster-level partition API (`start_partition`/`heal_partition`) that
the failure detector and chaos harness drive.
"""

from repro.cluster import (
    ANY,
    SERVER,
    ScenarioScript,
    SimKernel,
    SimulatedCluster,
    uniform,
)
from repro.cluster.failures import DISTURBANCES
from repro.cluster.network import Network
from repro.core.engine import BioOperaServer, ProgramRegistry, ProgramResult


def _network(seed=1, **kw):
    kernel = SimKernel(seed=seed)
    return kernel, Network(kernel, **kw)


def _drain(kernel):
    while kernel.step():
        pass


class TestDirectedPartitions:
    def test_asymmetric_cut_blocks_one_direction_only(self):
        kernel, net = _network()
        net.partition({"a"}, {"b"}, symmetric=False)
        got = []
        assert net.send(got.append, "a->b", src="a", dst="b") is False
        assert net.send(got.append, "b->a", src="b", dst="a") is True
        _drain(kernel)
        assert got == ["b->a"]

    def test_symmetric_cut_blocks_both_directions(self):
        kernel, net = _network()
        pid = net.partition({"a"}, {"b"})
        assert not net.send(lambda: None, src="a", dst="b")
        assert not net.send(lambda: None, src="b", dst="a")
        net.heal(pid)
        assert net.send(lambda: None, src="a", dst="b")
        assert net.send(lambda: None, src="b", dst="a")

    def test_wildcard_endpoint_cuts_every_link_to_target(self):
        kernel, net = _network()
        net.partition({ANY}, {"b"}, symmetric=False)
        assert not net.send(lambda: None, src="a", dst="b")
        assert not net.send(lambda: None, src="z", dst="b")
        assert net.send(lambda: None, src="b", dst="a")

    def test_overlapping_partitions_heal_independently(self):
        kernel, net = _network()
        p1 = net.partition({"a"}, {"b"})
        p2 = net.partition({"a"}, {"c"})
        net.heal(p1)
        assert net.send(lambda: None, src="a", dst="b")
        assert not net.send(lambda: None, src="a", dst="c")
        net.heal(p2)
        assert net.send(lambda: None, src="a", dst="c")

    def test_inflight_message_killed_by_cut_invokes_on_dropped(self):
        kernel, net = _network()
        delivered = []
        dropped = []
        assert net.send(delivered.append, "late", src="a", dst="b",
                        on_dropped=lambda: dropped.append("late"))
        # cut starts while the message is in flight
        net.partition({"a"}, {"b"})
        _drain(kernel)
        assert delivered == []
        assert dropped == ["late"]
        assert net.inflight_killed == 1
        assert net.messages_dropped == 1

    def test_send_time_cut_returns_false_without_on_dropped_call(self):
        kernel, net = _network()
        dropped = []
        net.partition({"a"}, {"b"})
        sent = net.send(lambda: None, src="a", dst="b",
                        on_dropped=lambda: dropped.append(1))
        assert sent is False
        _drain(kernel)
        # a False return IS the signal; on_dropped covers post-send losses
        assert dropped == []


class TestLossDuplicationReordering:
    def test_asymmetric_loss_drops_one_direction(self):
        kernel, net = _network()
        net.set_loss("a", "b", 1.0)
        got = []
        assert net.send(got.append, "a->b", src="a", dst="b") is False
        assert net.send(got.append, "b->a", src="b", dst="a") is True
        _drain(kernel)
        assert got == ["b->a"]
        assert net.messages_dropped == 1

    def test_loss_rule_cleared_by_zero_probability(self):
        kernel, net = _network()
        net.set_loss("a", "b", 1.0)
        net.set_loss("a", "b", 0.0)
        assert net.send(lambda: None, src="a", dst="b") is True
        assert net.loss_probability("a", "b") == 0.0

    def test_wildcard_loss_applies_to_all_links(self):
        kernel, net = _network()
        net.set_loss(ANY, ANY, 1.0)
        assert net.send(lambda: None, src="a", dst="b") is False
        assert net.send(lambda: None, src="x", dst="y") is False

    def test_fractional_loss_drops_some_but_not_all(self):
        kernel, net = _network(seed=3)
        net.set_loss("a", "b", 0.5)
        results = [net.send(lambda: None, src="a", dst="b")
                   for _ in range(40)]
        assert any(results) and not all(results)

    def test_duplication_delivers_twice(self):
        kernel, net = _network()
        net.set_duplication(1.0)
        got = []
        net.send(got.append, "msg", src="a", dst="b")
        _drain(kernel)
        assert got == ["msg", "msg"]
        assert net.messages_duplicated == 1

    def test_reordering_flips_arrival_order(self):
        kernel, net = _network(seed=5, jitter=0.0)
        net.set_reordering(1.0, extra=50.0)
        order = []
        for i in range(10):
            net.send(order.append, i, src="a", dst="b")
        _drain(kernel)
        assert sorted(order) == list(range(10))
        assert order != list(range(10))
        assert net.messages_reordered == 10

    def test_disabled_features_draw_no_rng(self):
        """With every fabric feature off, the kernel's fault streams stay
        untouched — existing seeded runs must be bit-identical."""
        kernel, net = _network(seed=9)
        for _ in range(5):
            net.send(lambda: None, src="a", dst="b")
        _drain(kernel)
        # streams would have been consumed had the features been consulted
        assert kernel.rng("network-loss").random() == \
            SimKernel(seed=9).rng("network-loss").random()
        assert kernel.rng("network-dup").random() == \
            SimKernel(seed=9).rng("network-dup").random()


def _cluster_with_job(monkeypatch, seed=21, nodes=2, cost=300.0):
    monkeypatch.setattr(SimulatedCluster, "DETECTION_DELAY", 30.0)
    kernel = SimKernel(seed=seed)
    cluster = SimulatedCluster(kernel, uniform(nodes, cpus=1),
                               execution_noise=0.0)
    registry = ProgramRegistry()
    registry.register("w.u", lambda inputs, ctx: ProgramResult({}, cost))
    server = BioOperaServer(registry=registry)
    server.attach_environment(cluster)
    server.define_template_ocr(
        "PROCESS P\n  ACTIVITY A\n    PROGRAM w.u\n  END\nEND")
    instance_id = server.launch("P")
    return kernel, cluster, server, instance_id


class TestClusterPartitionAPI:
    def test_symmetric_partition_detected_as_node_down_then_heals(
            self, monkeypatch):
        kernel, cluster, server, instance_id = _cluster_with_job(monkeypatch)
        kernel.run(until=10.0)  # dispatch has landed
        pid = cluster.start_partition(["node001"], direction="both")
        kernel.run(until=50.0)  # past detection_delay
        assert server.awareness.node("node001").up is False
        cluster.heal_partition(pid)
        kernel.run(until=60.0)
        assert server.awareness.node("node001").up is True
        status = cluster.run_until_instance_done(instance_id)
        assert status == "completed"

    def test_to_nodes_cut_is_invisible_to_failure_detector(
            self, monkeypatch):
        kernel, cluster, server, instance_id = _cluster_with_job(monkeypatch)
        kernel.run(until=10.0)
        cluster.start_partition(["node001"], direction="to-nodes")
        kernel.run(until=80.0)
        # reports still flow, so the detector never fires
        assert server.awareness.node("node001").up is True

    def test_available_cpus_excludes_partitioned_nodes(self):
        kernel = SimKernel(seed=4)
        cluster = SimulatedCluster(kernel, uniform(3, cpus=2))
        assert cluster.available_cpus() == 6
        pid = cluster.start_partition(["node001", "node002"],
                                      direction="to-server")
        assert cluster.available_cpus() == 2
        cluster.heal_partition(pid)
        assert cluster.available_cpus() == 6


class TestOneCutMechanism:
    """A network outage is a partition of every node: it opens and heals
    through the same fabric rules, so it composes with any other cut."""

    def _cluster(self):
        kernel = SimKernel(seed=21)
        cluster = SimulatedCluster(kernel, uniform(2, cpus=1),
                                   execution_noise=0.0)
        registry = ProgramRegistry()
        registry.register("w.u", lambda inputs, ctx: ProgramResult({}, 50.0))
        server = BioOperaServer(registry=registry)
        server.attach_environment(cluster)
        server.define_template_ocr(
            "PROCESS P\n  ACTIVITY A\n    PROGRAM w.u\n  END\nEND")
        return kernel, cluster, server

    def test_an_outage_does_not_tunnel_through_a_partition(self):
        """The end of an outage announces each node over the fabric; a
        node still behind its own cut stays down at the server until
        that cut heals, and nothing is dispatched into it."""
        kernel, cluster, server = self._cluster()
        pid = cluster.start_partition(["node001"])
        ScenarioScript(cluster).network_outage(10.0, duration=200.0)
        kernel.run(until=400.0)  # outage over, node001's cut still open
        assert server.awareness.node("node001").up is False
        assert server.awareness.node("node002").up is True
        iid = server.launch("P")
        kernel.run(until=600.0)
        assert not cluster.nodes["node001"].running_jobs()
        cluster.heal_partition(pid)
        kernel.run(until=610.0)
        assert server.awareness.node("node001").up is True
        assert cluster.run_until_instance_done(iid) == "completed"

    def test_overlapping_cuts_heal_independently(self):
        kernel, cluster, server = self._cluster()
        start, stop = DISTURBANCES["network-outage"](cluster, {})
        start()
        pid = cluster.start_partition(["node001"])
        assert cluster.available_cpus() == 0
        kernel.run(until=200.0)  # past the failure detector
        assert not any(server.awareness.node(name).up
                       for name in ("node001", "node002"))
        stop()  # the outage heals; node001's own cut stays
        kernel.run(until=210.0)
        assert cluster.network.is_cut(SERVER, "node001")
        assert not cluster.network.is_cut(SERVER, "node002")
        assert cluster.available_cpus() == 1
        assert server.awareness.node("node001").up is False
        assert server.awareness.node("node002").up is True
        cluster.heal_partition(pid)
        kernel.run(until=220.0)
        assert cluster.available_cpus() == 2
        assert server.awareness.node("node001").up is True
        # the other order: the node's cut heals first, under the outage
        pid = cluster.start_partition(["node002"])
        start()
        cluster.heal_partition(pid)
        assert cluster.network.is_cut(SERVER, "node002")
        stop()
        assert cluster.network.health()["partitions_active"] == 0
