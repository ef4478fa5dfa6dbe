"""Network, PEC, topology, and trace units."""

import pytest

from repro.cluster import (
    ANY, Network, NodeSpec, SimKernel, SimulatedCluster, ik_linux, ik_sun,
    linneus, uniform,
)


class TestNetwork:
    def test_delivery_with_latency(self):
        kernel = SimKernel(seed=1)
        network = Network(kernel, base_latency=0.1, jitter=0.05)
        got = []
        assert network.send(got.append, "msg") is True
        kernel.run()
        assert got == ["msg"]
        assert 0.1 <= kernel.now <= 0.15

    def test_outage_drops(self):
        """A cut of every link is an outage: sends fail until it heals."""
        kernel = SimKernel(seed=1)
        network = Network(kernel)
        pid = network.partition({ANY}, {ANY})
        got = []
        assert network.send(got.append, "lost") is False
        kernel.run()
        assert got == []
        assert network.messages_dropped == 1
        network.heal(pid)
        assert network.send(got.append, "ok") is True
        kernel.run()
        assert got == ["ok"]

    def test_latency_deterministic_per_seed(self):
        values1 = Network(SimKernel(seed=5)).latency()
        values2 = Network(SimKernel(seed=5)).latency()
        assert values1 == values2


class TestTopology:
    def test_linneus_is_33_cpus(self):
        specs = linneus()
        assert sum(spec.cpus for spec in specs) == 33
        sparc = [s for s in specs if "sparc" in s.name][0]
        assert "refine" in sparc.tags
        assert sparc.speed < 1.0

    def test_ik_sun_is_15_cpus_mean_speed_one(self):
        specs = ik_sun()
        assert sum(spec.cpus for spec in specs) == 15
        mean_speed = sum(s.speed for s in specs) / len(specs)
        assert mean_speed == pytest.approx(1.0)

    def test_ik_linux_upgradeable_8_to_16(self):
        specs = ik_linux()
        assert sum(s.cpus for s in specs) == 8
        assert all(s.speed == 1.25 for s in specs)

    def test_uniform(self):
        specs = uniform(3, cpus=4, speed=2.0)
        assert len(specs) == 3
        assert all(s.cpus == 4 and s.speed == 2.0 for s in specs)
        assert len({s.name for s in specs}) == 3

    def test_spec_to_dict(self):
        spec = NodeSpec("n", cpus=2, speed=1.5, tags=("gpu",))
        data = spec.to_dict()
        assert data["cpus"] == 2 and data["tags"] == ["gpu"]


class TestTrace:
    def make_cluster(self):
        kernel = SimKernel(seed=2)
        return SimulatedCluster(kernel, uniform(2, cpus=2))

    def test_record_dedupes_identical_samples(self):
        cluster = self.make_cluster()
        cluster.trace.record()
        cluster.trace.record()
        cluster.trace.record()
        assert len(cluster.trace.samples) == 1

    def test_force_record(self):
        cluster = self.make_cluster()
        cluster.trace.record()
        cluster.kernel.schedule(5.0, lambda: None)
        cluster.kernel.run()
        cluster.trace.record(force=True)
        assert len(cluster.trace.samples) == 2

    def test_integrals(self):
        cluster = self.make_cluster()
        kernel = cluster.kernel
        cluster.trace.record()                       # t=0: avail 4, busy 0
        kernel.schedule(10.0, cluster.crash_node, "node001")
        kernel.run(until=15.0)
        kernel.schedule_at(20.0, lambda: cluster.trace.record(force=True))
        kernel.run(until=20.0)
        available, _busy = cluster.trace.integrals()
        # 4 cpus x 10s + 2 cpus x 10s
        assert available == pytest.approx(60.0)

    def test_series_zero_order_hold(self):
        cluster = self.make_cluster()
        kernel = cluster.kernel
        cluster.trace.record()
        kernel.schedule(10.0, cluster.crash_node, "node001")
        kernel.run(until=15.0)
        kernel.schedule_at(30.0, lambda: cluster.trace.record(force=True))
        kernel.run(until=30.0)
        series = cluster.trace.series(step=5.0)
        values = {t: a for t, a, _b in series}
        assert values[0.0] == 4.0
        assert values[5.0] == 4.0
        assert values[15.0] == 2.0

    def test_annotations(self):
        cluster = self.make_cluster()
        cluster.trace.annotate("hello", time=3.0)
        assert cluster.trace.annotations == [(3.0, "hello")]

    def test_empty_trace_metrics(self):
        cluster = self.make_cluster()
        assert cluster.trace.utilization_fraction() == 0.0
        assert cluster.trace.max_available() == 0.0
        assert cluster.trace.series(step=1.0) == []


class TestPecMonitoring:
    def test_significant_load_change_reported(self):
        from repro.core.engine import BioOperaServer

        kernel = SimKernel(seed=3)
        cluster = SimulatedCluster(kernel, uniform(1, cpus=4))
        server = BioOperaServer()
        server.attach_environment(cluster)
        cluster.set_external_load("node001", 2.0)
        kernel.run(until=1.0)
        assert server.awareness.node("node001").external_load == \
            pytest.approx(2.0)

    def test_insignificant_change_suppressed(self):
        from repro.core.engine import BioOperaServer

        kernel = SimKernel(seed=3)
        cluster = SimulatedCluster(kernel, uniform(1, cpus=4))
        server = BioOperaServer()
        server.attach_environment(cluster)
        cluster.set_external_load("node001", 2.0)
        kernel.run(until=1.0)
        # +0.04 CPUs on a 4-cpu node = 1% — below the reporting cutoff
        cluster.set_external_load("node001", 2.04)
        kernel.run(until=2.0)
        assert server.awareness.node("node001").external_load == \
            pytest.approx(2.0)

    def test_pending_reports_cleared_after_send(self):
        kernel = SimKernel(seed=4)
        cluster = SimulatedCluster(kernel, uniform(1, cpus=1))
        from repro.core.engine import (
            BioOperaServer,
            ProgramRegistry,
            ProgramResult,
        )

        registry = ProgramRegistry()
        registry.register("w.u", lambda i, c: ProgramResult({}, 10.0))
        server = BioOperaServer(registry=registry)
        server.attach_environment(cluster)
        server.define_template_ocr(
            "PROCESS P\n  ACTIVITY A\n    PROGRAM w.u\n  END\nEND")
        iid = server.launch("P")
        kernel.run(until=8.0)
        pid = cluster.start_partition()
        kernel.run(until=60.0)  # completion report blocked, retry pending
        pec = cluster.pecs["node001"]
        assert pec.pending_reports
        cluster.heal_partition(pid)
        cluster.run_until_instance_done(iid)
        assert not pec.pending_reports


class TestTraceKeepsTotals:
    """The trace refreshes only the nodes a transition touched; at every
    record its sample must equal a walk of every node."""

    @pytest.fixture(scope="class")
    def darwin(self):
        from repro.bio import DarwinEngine
        from repro.workloads import datasets
        # big enough that a day=DAY/50 run spans its whole event schedule
        profile = datasets.scaled_profile(12_000, seed=3, name="SP38")
        return DarwinEngine(profile, mode="modeled", random_match_rate=5e-4,
                            sample_cap=50, seed=1)

    @pytest.mark.parametrize("run, transitions", [
        ("shared_run", ("set_external_load", "crash_node", "restore_node",
                        "start_partition", "heal_partition", "crash_server")),
        ("nonshared_run", ("upgrade_node", "start_partition")),
    ])
    def test_every_sample_equals_the_brute_force_totals(
            self, darwin, run, transitions, monkeypatch):
        """``shared_run`` changes load, crashes nodes and the server and
        cuts the network; ``nonshared_run`` upgrades every node."""
        from repro.cluster import DAY
        from repro.cluster.trace import ClusterTrace
        from repro.workloads import scenarios

        record = ClusterTrace.record
        checked = []

        def checking(trace, force=False):
            record(trace, force)
            cluster = trace.cluster
            assert trace.samples[-1][1:] == (
                float(cluster.available_cpus()), float(cluster.busy_cpus()))
            checked.append(trace.samples[-1][0])

        monkeypatch.setattr(ClusterTrace, "record", checking)
        seen = set()
        for name in transitions:
            method = getattr(SimulatedCluster, name)
            monkeypatch.setattr(SimulatedCluster, name, (
                lambda method, name: lambda *a, **k: (
                    seen.add(name), method(*a, **k))[1])(method, name))
        report = getattr(scenarios, run)(
            darwin=darwin, granularity=24, day=DAY / 50, seed=1)
        assert report.status == "completed"
        assert seen == set(transitions)
        assert len(checked) > 100
