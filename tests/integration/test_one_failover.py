"""There is one failover routine: ``SimulatedCluster.recover_server``.

Scenario scripts, shard failover and the broker's promotion of a silent
shard (which is how the chaos campaigns recover) must all go through
it, so what a failover carries over (hub configuration, cumulative
counters) and what it re-derives from the store (identity, epoch,
policies) cannot drift apart between them.
"""


import pytest

from repro.cluster import SimKernel, SimulatedCluster, uniform
from repro.core.engine import BioOperaServer
from repro.core.engine.operator_console import OperatorConsole
from repro.core.engine.server import RUN_COUNTERS
from repro.core.ocr.parser import parse_ocr
from repro.faults import chaos
from repro.faults.plan import FaultAction, FaultPlan, ScheduledFault
from repro.faults.points import FaultInjector, InjectedCrash, installed
from repro.obs import ObservabilityHub

from ..shard.conftest import JOB_OCR, job_registry, make_plane


def _cluster(observability):
    kernel = SimKernel(seed=5)
    cluster = SimulatedCluster(kernel, uniform(2))
    server = BioOperaServer(observability=observability)
    server.attach_environment(cluster)
    return kernel, cluster, server


def _campaign_server():
    """The cluster and server of a one-shard campaign plane 40 s into its
    run, and the id of the instance it runs."""
    topo = chaos._Plane(chaos.default_darwin(), 101, chaos.CampaignConfig())
    topo.kernel.run(until=40.0)
    shard = topo.plane.shards[0]
    return shard.cluster, shard.server, topo.requests[0].result


class TestHubCarriedAcrossFailover:
    def test_recover_server_keeps_the_hub_configuration(self):
        _kernel, cluster, server = _cluster(
            ObservabilityHub(checkpoint_interval=7))
        cluster.crash_server()
        recovered = cluster.recover_server()
        assert recovered.obs is not server.obs
        assert recovered.obs.checkpoint_interval == 7
        # the predecessor's hub no longer follows the store
        assert recovered.store.observability is recovered.obs
        assert server.obs._store is None

    def test_shard_failover_keeps_the_view_checkpoint_interval(self):
        _kernel, plane = make_plane(2, checkpoint_interval=7)
        plane.crash_shard(1)
        recovered = plane.recover_shard(1)
        assert recovered.obs.checkpoint_interval == 7
        assert plane.shards[0].server.obs.checkpoint_interval == 7

    def test_standby_promotion_keeps_the_hub_configuration(self):
        kernel, plane = make_plane(1, checkpoint_interval=7,
                                   takeover_after=20.0)
        plane.launch("t0", "job", {"cost": 300.0})
        plane.drain_requests()
        plane.crash_shard(0)
        kernel.run(until=60.0)
        assert plane.broker.takeovers == 1
        assert plane.shards[0].server.obs.checkpoint_interval == 7


    def test_recovery_killed_midway_still_carries_on_the_retry(self):
        """A crash inside recovery leaves a half-built server attached;
        the retry fails over from *that* one and must keep the chain."""
        _kernel, cluster, server = _cluster(
            ObservabilityHub(checkpoint_interval=7))
        server.define_template(parse_ocr(JOB_OCR))
        server.registry = job_registry()
        server.launch("job")
        cluster.crash_server()
        injector = FaultInjector([FaultAction("recovery.replay", "crash")])
        with installed(injector):
            with pytest.raises(InjectedCrash):
                cluster.recover_server()
        half_built = cluster.server
        assert half_built is not server
        half_built.up = False
        recovered = cluster.recover_server()
        assert recovered.obs.checkpoint_interval == 7
        assert recovered.store.observability is recovered.obs
        assert half_built.obs._store is None


def test_counters_are_one_booking_carried_across_the_failover():
    """What the server counts and what the console's snapshot reports
    are one dict; ``recover_server`` carries the counters (they describe
    the run), while histograms restart with the server process."""
    cluster, server, instance_id = _campaign_server()
    dispatched = server.metrics["jobs_dispatched"]
    assert dispatched > 0
    cluster.crash_server()
    recovered = cluster.recover_server(server.store.simulate_crash())
    assert recovered.metrics is recovered.obs.metrics.counters
    assert (recovered.obs.metrics.histogram("dispatch_latency").count
            == recovered.metrics["jobs_dispatched"] - dispatched > 0)
    cluster.run_until_instance_done(instance_id)
    console = OperatorConsole(recovered)
    counters = console.metrics_snapshot()["counters"]
    # 21 jobs, as fault-free: every completion was durable when accepted,
    # so the crash lost none and no job ran twice.
    assert counters["jobs_completed"] == 21
    assert counters == recovered.metrics
    assert not [name for name in counters
                if name.startswith("net_") or name == "fencing_rejections"]
    # messages are counted by the fabric, which outlives the failover
    assert (console.network_health()["messages_sent"]
            == cluster.network.messages_sent > counters["jobs_dispatched"])


def test_recovery_killed_midway_keeps_the_run_counters():
    """The counters are carried before the recovery runs, so the
    half-built server a killed recovery leaves attached holds the
    pre-crash values and the retry counts on from them — as one
    unkilled recovery of the same run does."""
    def crashed_run():
        cluster, server, _instance_id = _campaign_server()
        cluster.crash_server()
        return cluster, server

    def run_counters(server):
        return {name: server.metrics[name] for name in RUN_COUNTERS}

    cluster, server = crashed_run()
    before = run_counters(server)
    assert before["jobs_dispatched"] > before["jobs_completed"] > 0
    with installed(FaultInjector([FaultAction("recovery.replay", "crash")])):
        with pytest.raises(InjectedCrash):
            cluster.recover_server()
    half_built = cluster.server
    assert half_built is not server
    assert run_counters(half_built) == before
    half_built.up = False
    recovered = cluster.recover_server()
    twin_cluster, _twin_server = crashed_run()
    assert run_counters(recovered) \
        == run_counters(twin_cluster.recover_server())
    assert recovered.metrics["jobs_dispatched"] > before["jobs_dispatched"]


def test_shard_names_the_half_built_server_a_killed_recovery_leaves():
    """``Shard.recover`` fails over from the store of whatever process
    is attached to the shard's cluster, and names that process
    afterwards even when the recovery was killed — so the next crash
    kills the half-built successor and the next recovery starts from
    what its failed replay persisted, not from the dead predecessor."""
    kernel, plane = make_plane(2)
    requests = [plane.launch("t0", "job", {"cost": 30.0}) for _ in range(4)]
    plane.drain_requests()
    assert any(r.result.startswith("s00-") for r in requests)
    shard = plane.shards[0]
    predecessor = shard.server
    plane.crash_shard(0)
    with installed(FaultInjector([FaultAction("recovery.replay", "crash")])):
        with pytest.raises(InjectedCrash):
            shard.recover()
    half_built = shard.cluster.server
    assert half_built is not predecessor and half_built.up
    assert shard.server is half_built and shard.store is half_built.store
    plane.crash_shard(0)
    assert not half_built.up
    recovered = plane.recover_shard(0)
    assert recovered is shard.server is shard.cluster.server
    assert recovered.epoch == half_built.epoch + 1 == predecessor.epoch + 2
    kernel.run()
    assert all(plane.instance(r.result).status == "completed"
               for r in requests)


def test_every_failover_reaches_recover_server(monkeypatch):
    """Shard failover, the broker's promotion of a silent shard and the
    campaign driver call ``SimulatedCluster.recover_server`` instead of
    re-implementing it."""
    calls = []
    original = SimulatedCluster.recover_server

    def counting(self, store=None):
        calls.append(self)
        return original(self, store=store)

    monkeypatch.setattr(SimulatedCluster, "recover_server", counting)

    _kernel, plane = make_plane(2)
    plane.crash_shard(0)
    plane.shards[0].recover()
    assert calls == [plane.shards[0].cluster]

    del calls[:]
    kernel, plane = make_plane(1)
    plane.launch("t0", "job", {"cost": 300.0})
    plane.drain_requests()
    plane.crash_shard(0)
    kernel.run(until=100.0)
    assert plane.broker.takeovers == 1
    assert calls == [plane.shards[0].cluster]

    del calls[:]
    darwin = chaos.default_darwin()
    plan = FaultPlan(seed=0, scheduled=[ScheduledFault(
        "server-crash", 30.0)], actions=[])
    result = chaos.run_campaign(0, darwin, plan=plan)
    assert result.ok, result.violations[:3]
    assert result.recoveries == 1 and len(calls) == 1
    # ...and the campaign server keeps its tight view-checkpoint interval
    assert (calls[0].server.obs.checkpoint_interval
            == chaos.CHECKPOINT_INTERVAL)
