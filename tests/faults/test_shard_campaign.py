"""Shard-profile chaos campaigns: blast radius of a shard failure.

Small batch for tier 1; the statistical acceptance run lives in
``benchmarks/chaos_run.py --profile shard``.
"""

import pytest

from repro.faults import chaos
from repro.faults.plan import FaultAction, FaultPlan, ScheduledFault
from repro.shard.plane import HEARTBEAT_INTERVAL


@pytest.fixture(scope="module")
def darwin():
    return chaos.default_darwin()


@pytest.fixture(scope="module")
def config():
    return chaos.CampaignConfig(profile="shard", granularity=4, nodes=2)


@pytest.fixture(scope="module")
def baseline(darwin, config):
    result = chaos.fault_free_baseline(darwin, config=config)
    assert result["status"] == "completed"
    return result


class TestShardPlans:
    def test_shard_profile_draws_only_shard_faults(self):
        shards = [f"s{i:02d}" for i in range(4)]
        allowed = {"shard-crash", "shard-partition", "shard-node-crash"}
        covered = set()
        for seed in range(30):
            plan = FaultPlan.generate(seed, shards, profile="shard")
            categories = set(plan.categories())
            assert categories <= allowed
            assert "shard-crash" in categories
            covered.update(categories)
        assert covered == allowed

    def test_one_victim_per_plan(self):
        """Blast radius one: every scheduled fault in a plan aims at
        the same victim fraction."""
        shards = [f"s{i:02d}" for i in range(4)]
        for seed in range(30):
            plan = FaultPlan.generate(seed, shards, profile="shard")
            victims = {fault.params["victim"]
                       for fault in plan.scheduled}
            assert len(victims) == 1


class TestShardCampaigns:
    def test_same_seed_reproduces_identically(self, darwin, config,
                                              baseline):
        first = chaos.run_campaign(1, darwin, baseline=baseline,
                                   config=config)
        second = chaos.run_campaign(1, darwin, baseline=baseline,
                                    config=config)
        assert first.ok, first.violations[:3]
        assert first.plan == second.plan
        assert (first.status, first.wall, first.events,
                first.executed) == \
               (second.status, second.wall, second.events,
                second.executed)

    def test_small_batch_survives(self, darwin, config, baseline):
        results = [chaos.run_campaign(seed, darwin, baseline=baseline,
                                      config=config)
                   for seed in range(3)]
        bad = [r for r in results if not r.ok]
        assert not bad, [(r.seed, r.status, r.violations[:2])
                        for r in bad]

    def test_node_crash_inside_the_victim_shard(self, darwin, config,
                                                baseline):
        """``shard-node-crash`` is drawn by CLI seeds only; pin it with a
        hand-built plan: the victim's node goes down mid-run, comes back,
        and nothing else notices."""
        wall = baseline["wall"]
        plan = FaultPlan(seed=0, scheduled=[ScheduledFault(
            "shard-node-crash", round(0.2 * wall, 3),
            {"victim": 0.3, "node": 0.7, "duration": round(0.3 * wall, 3)},
        )])
        result = chaos.run_campaign(0, darwin, baseline=baseline,
                                    plan=plan, config=config)
        assert result.ok, result.violations[:3]
        assert "shard-node-crash" in result.executed

    def test_killed_recovery_is_recovered_again(self, darwin, config,
                                                baseline):
        """A ``recovery.replay`` crash kills the shard's promotion; the
        driver counts it, the shard stays silent, and the detector
        promotes it again — no timer re-armed, no wedge booked."""
        horizon = max(120.0, baseline["wall"] * 1.5)
        plan = FaultPlan(
            seed=0,
            scheduled=[ScheduledFault(
                "shard-crash", round(0.3 * horizon, 3), {"victim": 0.3},
            )],
            actions=[FaultAction("recovery.replay", "crash", at_hit=1)],
        )
        result = chaos.run_campaign(0, darwin, baseline=baseline,
                                    plan=plan, config=config)
        assert result.violations == []
        assert result.status == "completed"
        assert [entry["point"] for entry in result.fired] \
            == ["recovery.replay"]
        assert (result.crashes, result.recoveries) == (2, 1)

    def test_overlapping_outages_are_both_counted(self, darwin, config,
                                                  baseline):
        """``recovery_time`` is summed per server: a second shard going
        down while the first is still out adds its whole outage, and each
        outage is the detector's: at most ``takeover_after`` plus one
        heartbeat interval, at least ``takeover_after`` less one."""
        horizon = max(120.0, baseline["wall"] * 1.5)
        plan = FaultPlan(seed=0, scheduled=[
            ScheduledFault("shard-crash", 50.0, {"victim": 0.0}),
            ScheduledFault("shard-crash", 70.0, {"victim": 0.5}),
        ])
        result = chaos.run_campaign(0, darwin, baseline=baseline,
                                    plan=plan, config=config)
        assert result.ok, result.violations[:3]
        assert (result.crashes, result.recoveries) == (2, 2)
        assert all(60.0 - HEARTBEAT_INTERVAL <= downtime
                   <= 60.0 + HEARTBEAT_INTERVAL
                   for downtime in result.downtimes)
        assert result.recovery_time == pytest.approx(sum(result.downtimes))
        assert result.recovery_time > 60.0
