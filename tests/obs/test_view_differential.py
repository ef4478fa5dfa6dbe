"""Differential contract: every view answers byte-identically to a full
rescan of the durable log — on clean runs, across chaos campaigns, and
immediately after crash recovery (satellite S5).

The invariant catalog (``repro.faults.invariants``) compares view against
rescan after every recovery and at campaign end, so ``result.ok`` below
carries the equivalence check; the direct comparisons pin it explicitly.
"""

import pytest

from repro.core.engine import BioOperaServer
from repro.core.monitor import queries
from repro.faults import chaos
from repro.faults.plan import FaultAction, FaultPlan, ScheduledFault
from repro.obs import ObservabilityHub
from repro.store import codec


@pytest.fixture(scope="module")
def darwin():
    return chaos.default_darwin()


@pytest.fixture(scope="module")
def baseline(darwin):
    result = chaos.fault_free_baseline(darwin)
    assert result["status"] == "completed"
    return result


def _assert_views_match_rescan(store, instance_id):
    pairs = [
        ([u.__dict__ for u in queries.node_usage(store, instance_id)],
         [u.__dict__ for u in queries.node_usage_rescan(store, instance_id)]),
        (queries.event_histogram(store, instance_id),
         queries.event_histogram_rescan(store, instance_id)),
        (queries.completions_over_time(store, instance_id, 25.0),
         queries.completions_over_time_rescan(store, instance_id, 25.0)),
        (queries.slowest_activities(store, instance_id, 20),
         queries.slowest_activities_rescan(store, instance_id, 20)),
        (queries.retry_hotspots(store, instance_id, 1),
         queries.retry_hotspots_rescan(store, instance_id, 1)),
        (queries.wall_time_breakdown(store, instance_id),
         queries.wall_time_breakdown_rescan(store, instance_id)),
    ]
    for viewed, rescanned in pairs:
        assert codec.encode(viewed) == codec.encode(rescanned)


def _instance_ids(server):
    return server.store.instances.instance_ids()


class TestCleanRunDifferential:
    def test_fault_free_run_views_equal_rescan(self, darwin):
        kernel, cluster, server, instance_id = chaos._build(
            darwin, kernel_seed=7, config=chaos.CampaignConfig(
                nodes=3, cpus=2, granularity=6))
        assert cluster.run_until_instance_done(instance_id) == "completed"
        assert server.obs.views.in_sync(server.store, instance_id)
        _assert_views_match_rescan(server.store, instance_id)


class TestChaosDifferential:
    def test_crash_heavy_campaign_keeps_views_equivalent(self, darwin,
                                                         baseline):
        """A plan that crashes the server AND tears a view checkpoint:
        recovery must leave every view byte-identical to a rescan (the
        invariant catalog checks after each recovery and at the end)."""
        horizon = baseline["wall"] * 1.2
        plan = FaultPlan(seed=4242, scheduled=[
            ScheduledFault("server-crash", round(horizon * 0.3, 3),
                           {"recovery_after": round(horizon * 0.2, 3)}),
        ], actions=[
            FaultAction("obs.view.checkpoint", "crash", at_hit=4),
        ])
        result = chaos.run_campaign(4242, darwin, baseline=baseline,
                                    plan=plan)
        assert result.crashes >= 1 and result.recoveries >= 1
        assert result.ok, result.violations[:4]

    def test_generated_seeds_with_checkpoint_faults_stay_ok(self, darwin,
                                                            baseline):
        """Campaign seeds whose generated plan arms the checkpoint crash
        window; each run re-checks view==rescan after every recovery."""
        nodes = ["node001", "node002", "node003", "node004"]
        seeds = [
            seed for seed in range(60)
            if "point:obs.view.checkpoint"
            in FaultPlan.generate(seed, nodes).categories()
        ][:2]
        assert seeds, "no generated plan arms obs.view.checkpoint"
        for seed in seeds:
            result = chaos.run_campaign(seed, darwin, baseline=baseline)
            assert result.ok, (seed, result.violations[:4])


class TestRecoveryDifferential:
    def test_views_equal_rescan_immediately_after_recovery(self, darwin):
        kernel, cluster, server, instance_id = chaos._build(
            darwin, kernel_seed=11, config=chaos.CampaignConfig(
                nodes=3, cpus=2, granularity=6))
        assert cluster.run_until_instance_done(instance_id) == "completed"
        server.obs.checkpoint()
        server.up = False
        survivor = server.store.simulate_crash()
        recovered = BioOperaServer.recover(
            survivor, server.registry, environment=cluster,
            observability=ObservabilityHub(checkpoint_interval=120),
        )
        for iid in _instance_ids(recovered):
            assert recovered.obs.views.in_sync(recovered.store, iid)
            _assert_views_match_rescan(recovered.store, iid)
