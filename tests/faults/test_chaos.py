"""Chaos campaigns: determinism, coverage, and failing-seed reproduction.

The harness's whole value is that a failing seed replays bit-for-bit, so
these tests pin three properties:

* the same seed produces byte-identical campaigns (fired faults, wall
  time, event counts — everything);
* plans round-trip through ``to_dict``/``from_dict`` (the JSON a failing
  campaign dumps is a complete reproduction recipe);
* a batch of seeded campaigns survives every fault category with all
  invariants holding and outputs matching the fault-free baseline.

The full 50-campaign acceptance run lives in ``benchmarks/chaos_run.py``;
here a smaller batch keeps the tier-1 suite fast while still spanning
every category across the generated plans.
"""

import importlib.util
import json
import pathlib

import pytest

from repro.cluster import ScenarioScript
from repro.cluster.failures import DISTURBANCES
from repro.faults import chaos, invariants
from repro.faults.plan import (PROFILES, SCHEDULED_CATEGORIES, FaultAction,
                               FaultPlan, ScheduledFault)
from repro.faults.points import CATALOG


@pytest.fixture(scope="module")
def darwin():
    return chaos.default_darwin()


@pytest.fixture(scope="module")
def baseline(darwin):
    result = chaos.fault_free_baseline(darwin)
    assert result["status"] == "completed"
    return result


class TestPlanGeneration:
    def test_same_seed_same_plan(self):
        nodes = ["node001", "node002", "node003", "node004"]
        assert (FaultPlan.generate(7, nodes).to_dict()
                == FaultPlan.generate(7, nodes).to_dict())
        assert (FaultPlan.generate(7, nodes).to_dict()
                != FaultPlan.generate(8, nodes).to_dict())

    def test_round_trip_is_lossless(self):
        nodes = ["node001", "node002"]
        for seed in range(10):
            plan = FaultPlan.generate(seed, nodes)
            assert FaultPlan.from_dict(plan.to_dict()).to_dict() \
                == plan.to_dict()

    def test_generated_plans_span_every_category(self):
        """Across 50 seeds (unioned over every profile) the generator
        must exercise every scheduled disturbance category and every
        crash point in the catalog; the shard-* categories only come
        from the shard profile, everything else from mixed."""
        nodes = ["node001", "node002", "node003", "node004"]
        covered = set()
        for profile in PROFILES:
            for seed in range(50):
                covered.update(
                    FaultPlan.generate(seed, nodes,
                                       profile=profile).categories())
        assert covered >= set(SCHEDULED_CATEGORIES)
        assert covered >= {f"point:{point}" for point in CATALOG}

    def test_partition_profile_draws_only_network_stress(self):
        """The ``partition`` profile is the split-brain/fencing mix: only
        fabric disturbances (plus server crashes, which force epoch bumps,
        and broker↔shard cuts, which make the detector promote a live
        incarnation) and message-level point actions."""
        nodes = ["node001", "node002", "node003", "node004"]
        allowed = {
            "partition", "net-loss", "net-duplicate", "net-reorder",
            "network-outage", "server-crash", "shard-partition",
            "point:pec.report", "point:network.deliver",
        }
        covered = set()
        for seed in range(30):
            plan = FaultPlan.generate(seed, nodes, profile="partition")
            assert set(plan.categories()) <= allowed
            covered.update(plan.categories())
        # ...and across seeds the whole fabric arsenal gets exercised
        assert {"partition", "net-loss", "net-duplicate",
                "net-reorder", "shard-partition"} <= covered

    def test_unknown_profile_is_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.generate(1, ["node001"], profile="bogus")


class TestOneDisturbanceTable:
    """A scenario script's wrapper and a plan's category enact the same
    row of ``cluster.failures.DISTURBANCES``."""

    WRAPPERS = [
        ("node-crash", {"node": "s00-n001"},
         lambda script, t, d: script.node_crash(t, "s00-n001", d)),
        ("mass-failure", {"nodes": ["s00-n001", "s00-n002"]},
         lambda script, t, d: script.mass_failure(
             t, ["s00-n001", "s00-n002"], d)),
        ("network-outage", {},
         lambda script, t, d: script.network_outage(t, d)),
        ("storage-full", {},
         lambda script, t, d: script.storage_full(t, d)),
        ("load-burst", {"nodes": ["s00-n002"], "load_fraction": 0.5},
         lambda script, t, d: script.load_burst(t, d, ["s00-n002"], 0.5)),
    ]

    @pytest.mark.parametrize("category,params,wrapper", WRAPPERS,
                             ids=[row[0] for row in WRAPPERS])
    def test_wrapper_and_category_reach_the_same_row(
            self, darwin, monkeypatch, category, params, wrapper):
        calls = []
        real = DISTURBANCES[category]

        def row(cluster, row_params):
            calls.append((cluster, dict(row_params)))
            start, stop = real(cluster, row_params)
            return (lambda: calls.append("start") or start(),
                    lambda: calls.append("stop") or stop())

        monkeypatch.setitem(DISTURBANCES, category, row)
        topo = chaos._Plane(darwin, 1, chaos.CampaignConfig(
            granularity=4, nodes=2))
        cluster = topo.plane.shards[0].cluster
        start, stop = topo.disturbance(
            ScheduledFault(category, 10.0, dict(params, duration=5.0)),
            crash=None)
        start()
        stop()
        from_plan = calls[:]
        calls.clear()
        wrapper(ScenarioScript(cluster), topo.kernel.now + 1.0, 5.0)
        topo.kernel.run(until=topo.kernel.now + 10.0)
        assert from_plan[0][0] is cluster and calls[0][0] is cluster
        assert {key: value for key, value in from_plan[0][1].items()
                if key != "duration"} == calls[0][1] == params
        assert from_plan[1:] == calls[1:] == ["start", "stop"]
        assert topo.executed == {category}


class TestCampaigns:
    def test_same_seed_reproduces_identically(self, darwin, baseline):
        first = chaos.run_campaign(3, darwin, baseline=baseline)
        second = chaos.run_campaign(3, darwin, baseline=baseline)
        assert first.ok and second.ok
        assert first.fired == second.fired
        assert first.plan == second.plan
        assert (first.status, first.crashes, first.recoveries,
                first.wall, first.events) == \
               (second.status, second.crashes, second.recoveries,
                second.wall, second.events)

    def test_recorded_plan_replays_the_campaign(self, darwin, baseline):
        original = chaos.run_campaign(4, darwin, baseline=baseline)
        replayed = chaos.run_campaign(
            4, darwin, baseline=baseline,
            plan=FaultPlan.from_dict(original.plan),
        )
        assert replayed.fired == original.fired
        assert replayed.wall == original.wall
        assert replayed.violations == original.violations

    def test_batch_survives_all_invariants(self, darwin, baseline):
        results = [chaos.run_campaign(seed, darwin, baseline=baseline)
                   for seed in range(12)]
        bad = [r for r in results if not r.ok]
        assert not bad, [(r.seed, r.status, r.violations[:2]) for r in bad]
        # the batch exercised real faults, not a quiet walk-through
        assert sum(r.crashes for r in results) > 0
        assert sum(len(r.fired) for r in results) > 0
        assert sum(r.recoveries for r in results) > 0

    def test_partition_profile_campaigns_survive(self, darwin, baseline):
        """A small partition-profile batch: directed cuts, sampled loss,
        duplication, and reordering must not break any invariant, and the
        outputs must still match the fault-free baseline byte-for-byte."""
        config = chaos.CampaignConfig(profile="partition")
        results = [chaos.run_campaign(seed, darwin, baseline=baseline,
                                      config=config)
                   for seed in range(4)]
        bad = [r for r in results if not r.ok]
        assert not bad, [(r.seed, r.status, r.violations[:2]) for r in bad]
        covered = set()
        for result in results:
            covered.update(result.categories())
        assert "partition" in covered

    @pytest.mark.parametrize("point", ["kvstore.commit.pre-sync",
                                       "kvstore.commit.post-sync"])
    def test_commit_sync_crash_is_survived(self, darwin, baseline, point):
        """A crash on either side of a commit's fsync (the store's one
        durability path) kills the shard; the detector promotes it and
        the run still matches the fault-free outputs."""
        plan = FaultPlan(seed=7, actions=[
            FaultAction(point, "crash", at_hit=30)])
        result = chaos.run_campaign(7, darwin, baseline=baseline, plan=plan)
        assert [entry["point"] for entry in result.fired] == [point]
        assert result.crashes == 1 and len(result.downtimes) == 1
        assert result.ok, (result.status, result.violations[:2])

    def test_failing_campaign_reproduces_from_recorded_plan(
            self, darwin, baseline):
        """A hand-built hostile plan (every one of the first 60 job
        receives errors, so some task exhausts its retry budget) aborts
        the instance; its recorded plan must reproduce the same
        violations exactly."""
        hostile = FaultPlan(seed=999, actions=[
            FaultAction("pec.program", "error", at_hit=hit)
            for hit in range(1, 61)
        ])
        result = chaos.run_campaign(999, darwin, baseline=baseline,
                                    plan=hostile)
        assert not result.ok
        assert result.status != "completed"
        assert any("expected 'completed'" in v for v in result.violations)
        replay = chaos.run_campaign(
            999, darwin, baseline=baseline,
            plan=FaultPlan.from_dict(result.plan),
        )
        assert replay.violations == result.violations
        assert replay.status == result.status


class TestOneDriver:
    """What the single campaign loop owes every profile alike."""

    @pytest.fixture(scope="class", params=PROFILES)
    def cell(self, request, darwin):
        config = chaos.CampaignConfig(profile=request.param,
                                      granularity=4, nodes=2)
        return config, chaos.fault_free_baseline(darwin, config=config)

    def test_plan_for_is_the_plan_a_campaign_runs(self, darwin, cell):
        config, baseline = cell
        result = chaos.run_campaign(2, darwin, baseline=baseline,
                                    config=config)
        assert result.ok, result.violations[:3]
        assert chaos.plan_for(2, config, baseline).to_dict() == result.plan

    def test_unknown_category_is_a_typed_violation(self, darwin, cell):
        config, baseline = cell
        plan = FaultPlan(seed=0, scheduled=[ScheduledFault(
            "bogus", 10.0)])
        result = chaos.run_campaign(0, darwin, baseline=baseline,
                                    plan=plan, config=config)
        assert result.violations == [
            "plan contains 'bogus', which this plane cannot enact"]
        assert result.status == "completed" and result.executed == []

    def test_a_drain_needs_a_sibling_shard(self, darwin, cell):
        """Draining the only shard is a typed violation, not an
        ``EngineError`` out of a kernel callback; with siblings to drain
        into, the same plan drains."""
        config, baseline = cell
        plan = FaultPlan(seed=0, scheduled=[ScheduledFault(
            "shard-drain", 10.0, {"victim": 0.5})])
        result = chaos.run_campaign(0, darwin, baseline=baseline,
                                    plan=plan, config=config)
        if chaos.SHAPES[config.profile].shards == 1:
            assert result.violations == [
                "plan contains 'shard-drain', which this plane cannot "
                "enact"]
            assert result.status == "completed" and result.executed == []
        else:
            assert result.ok, result.violations[:3]
            assert result.executed == ["shard-drain"]

    def test_trace_has_a_verdict_per_invariant_per_check(self, darwin, cell):
        """``--rerun`` prints one ok/FAIL line per catalog entry after
        every promotion and for every server's final check."""
        config, baseline = cell
        shards = chaos.SHAPES[config.profile].shards
        horizon = max(120.0, baseline["wall"] * 1.5)
        plan = FaultPlan(seed=0, scheduled=[ScheduledFault(
            "shard-crash", round(0.3 * horizon, 3), {"victim": 0.3})])
        lines = []
        result = chaos.run_campaign(0, darwin, baseline=baseline, plan=plan,
                                    config=config, trace=lines.append)
        assert result.ok and result.recoveries == 1
        verdicts = [line.split(None, 1)[1] for line in lines
                    if line.split(None, 1)[0] in ("ok", "FAIL")]
        names = [name for name, _found in invariants.run_catalog(
            chaos._Plane(darwin, 1, config).plane.shards[0].server,
            final=True)]
        assert names[-3:] == [
            "no-work-for-ended", "one-terminal-event", "final-outputs"]
        after = f"shard {int(0.3 * shards)}: after promotion 1"
        assert [v for v in verdicts if v.startswith(after)] \
            == [f"{after}: {name}" for name in names[:-1]]
        assert [v for v in verdicts if "final: " in v] == [
            f"shard {index}: final: {name}"
            for index in range(shards) for name in names]


class TestCampaignDigestsTool:
    """``tools/campaign_digests.py``: the byte-identical-campaigns check a
    refactor runs on its parent and on itself."""

    @pytest.fixture(scope="class")
    def tool(self):
        path = (pathlib.Path(__file__).resolve().parents[2]
                / "tools" / "campaign_digests.py")
        spec = importlib.util.spec_from_file_location("campaign_digests",
                                                      path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_out_then_compare(self, tool, tmp_path, capsys):
        first, second = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert tool.main(["--out", first, "--seeds", "1"]) == 0
        assert tool.main(["--out", second, "--seeds", "1"]) == 0
        report = json.loads(pathlib.Path(first).read_text())
        assert sorted(report["cells"]) == [
            "mixed/0", "partition/0", "rebalance/0", "shard/0"]
        assert report["not_ok"] == 0
        assert tool.main(["--compare", first, second]) == 0
        out = capsys.readouterr().out
        assert "4 of 4 cells identical" in out
        assert ("mixed 0/1 moved, partition 0/1 moved, rebalance 0/1 "
                "moved, shard 0/1 moved") in out

        report["cells"]["shard/0"] = "0" * 64
        pathlib.Path(second).write_text(json.dumps(report))
        assert tool.main(["--compare", first, second]) == 1
        out = capsys.readouterr().out
        assert "DIFFERS shard/0" in out and "3 of 4 cells" in out
        assert "rebalance 0/1 moved, shard 1/1 moved" in out

    def test_out_fails_on_a_run_that_did_not_survive(self, tool, tmp_path,
                                                     monkeypatch, capsys):
        """Two equal hashes say nothing about either run surviving, so
        ``--out`` itself exits non-zero on a violation (the count still
        goes in the file)."""
        def planted(seed, darwin, config=None):
            bad = config.profile == "shard"
            return chaos.CampaignResult(
                seed=seed, status="completed",
                violations=["planted"] if bad else [])

        monkeypatch.setattr(chaos, "run_campaign", planted)
        out = tmp_path / "planted.json"
        assert tool.main(["--out", str(out), "--seeds", "2"]) == 1
        assert "8 cells, 2 not ok" in capsys.readouterr().out
        assert json.loads(out.read_text())["not_ok"] == 2
