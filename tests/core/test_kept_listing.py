"""The instance listing is kept, not rebuilt.

Each server's ``InstanceMap`` keeps one row per instance and rebuilds
only the rows of the ids in its ``changed`` set; the plane keeps the
merge of its live shards' listings until one of them changes. The
rebuild every listing used to do lives on in ``tests/listing_oracle.py``
as the reference. Two contracts:

* **differential**: after every committed slice of a chaos campaign, a
  failover, a drain and each operator control, the kept listing equals
  the rebuild, key order included;
* **cost shape**, in calls of the row builder: a listing after one
  status change rebuilds one row, and one after none rebuilds nothing
  and merges nothing.
"""

import gc
import weakref
from unittest import mock

import pytest

from repro.core.engine.operator_console import OperatorConsole
from repro.core.engine.recovery import InstanceMap
from repro.core.engine import server as server_module
from repro.faults.chaos import SHAPES, CampaignConfig, default_darwin, \
    run_campaign
from repro.shard import ShardedConsole

from ..integration.test_deferred_recovery import ENDED, _crashed, \
    _populated, _recover
from ..listing_oracle import listing_oracle, ordered, \
    rebuild_listing, rebuild_plane_listing
from ..shard.conftest import make_plane


def _counting_rows():
    """Patch the row builder to count (and still build) every row."""
    return mock.patch.object(InstanceMap, "_row", autospec=True,
                             side_effect=InstanceMap._row)


def _plane_matches_the_rebuild(plane):
    assert ordered(ShardedConsole(plane).list_instances()) == ordered(
        rebuild_plane_listing(plane))


def _settled_plane(shards, launches, cost=0.1, seed=21):
    kernel, plane = make_plane(shards=shards, seed=seed)
    requests = [plane.launch(f"tenant{i % 2}", "job", {"cost": cost})
                for i in range(launches)]
    plane.drain_requests(horizon=1e6)
    return kernel, plane, [request.result for request in requests]


class TestAgainstTheRebuild:
    @pytest.mark.parametrize("profile", sorted(SHAPES))
    def test_a_chaos_campaign_of_each_profile(self, profile):
        darwin = default_darwin()
        config = CampaignConfig(profile=profile)
        plain = run_campaign(1, darwin, config=config)
        with listing_oracle() as checked:
            result = run_campaign(1, darwin, config=config)
        assert result.ok, result.violations[:2]
        assert result.executed
        assert checked["slices"] > 100
        assert {"instance_created", "task_completed",
                "instance_completed"} <= checked["types"]
        # the oracle only looks: the campaign runs as it does without it
        assert result == plain

    def test_the_first_listing_after_a_failover_replays_the_deferred(self):
        server, env, ended, live = _populated()
        recovered = _recover(_crashed(server))
        assert len(recovered.instances.loaded()) == len(live)
        with mock.patch.object(server_module, "replay_instance",
                               wraps=server_module.replay_instance) as replay:
            first = OperatorConsole(recovered).list_instances()
            assert replay.call_count == len(ENDED)
            assert ordered(first) == ordered(rebuild_listing(recovered))
            OperatorConsole(recovered).list_instances()
            assert replay.call_count == len(ENDED)
        assert [row["instance_id"] for row in first] == sorted(ended + live)
        assert all("shard" not in row for row in first)

    def test_a_shard_failover_and_its_successor(self):
        kernel, plane, ids = _settled_plane(shards=2, launches=8)
        plane.run_until(lambda: all(plane.instance(iid).terminal
                                    for iid in ids), horizon=1e6)
        before = ShardedConsole(plane).list_instances()
        crashed = weakref.ref(plane.shards[1].server)
        plane.crash_shard(1)
        with listing_oracle():
            plane.recover_shard(1)
            _plane_matches_the_rebuild(plane)
        assert ShardedConsole(plane).list_instances() == before
        # the kept merge holds the shards' lists, not their servers
        gc.collect()
        assert crashed() is None

    def test_a_drain_forgets_the_moved_rows(self):
        kernel, plane, ids = _settled_plane(shards=3, launches=9,
                                            cost=50.0, seed=5)
        console = ShardedConsole(plane)
        before = console.list_instances()
        with listing_oracle() as checked:
            plane.drain_shard(0)
            _plane_matches_the_rebuild(plane)
            kernel.run()
            _plane_matches_the_rebuild(plane)
        assert checked["slices"] > 0
        after = console.list_instances()
        assert len(after) == len(before)
        assert {row["shard"] for row in after} <= {1, 2}
        drained = plane.shards[0].server.instances
        assert drained.listing() == []

    def test_each_operator_control_on_a_single_server(self):
        server, env, ended, live = _populated()
        console = OperatorConsole(server)
        with listing_oracle() as checked:
            console.stop(live[0])
            console.resume(live[0])
            console.abort(live[1])
            console.change_parameter(live[0], "a", 11)
            console.restart_task(ended[0], "Join")
            env.run_instance(ended[0])
        assert {"instance_suspended", "instance_resumed",
                "instance_aborted", "task_reset",
                "whiteboard_set"} <= checked["types"]
        assert ordered(console.list_instances()) == ordered(
            rebuild_listing(server))

    def test_each_operator_control_on_a_one_shard_plane(self):
        kernel, plane, ids = _settled_plane(shards=1, launches=4,
                                            cost=500.0)
        console = ShardedConsole(plane)
        with listing_oracle():
            console.stop(ids[0])
            _plane_matches_the_rebuild(plane)
            console.resume(ids[0])
            console.abort(ids[1])
            _plane_matches_the_rebuild(plane)
            console.change_parameter(ids[2], "cost", 1.0)
            console.restart_task(ids[3], "Work")
            plane.run_until(lambda: all(plane.instance(iid).terminal
                                        for iid in ids), horizon=1e6)
            _plane_matches_the_rebuild(plane)
        rows = {row["instance_id"]: row for row in console.list_instances()}
        assert [row["shard"] for row in rows.values()] == [0] * 4
        assert rows[ids[1]]["status"] == "aborted"


class TestItCostsWhatChanged:
    def test_one_status_change_rebuilds_one_row(self):
        kernel, plane, ids = _settled_plane(shards=4, launches=24,
                                            cost=500.0)
        console = ShardedConsole(plane)
        with _counting_rows() as row:
            first = console.list_instances()
            assert row.call_count == len(ids) == len(first)
            row.reset_mock()
            console.stop(first[5]["instance_id"])
            second = console.list_instances()
            assert row.call_count == 1
            merged = plane._listing
            row.reset_mock()
            third = console.list_instances()
            assert row.call_count == 0
        assert plane._listing is merged  # no re-merge either
        assert third == second and third is not second
        changed = [index for index, (old, new) in enumerate(zip(first,
                                                                second))
                   if old is not new]
        assert changed == [5]
        # the listing handed out before the change still reads the old row
        assert first[5]["status"] == "running"
        assert second[5]["status"] == "suspended"

    def test_the_write_path_builds_no_row(self):
        with _counting_rows() as row:
            kernel, plane, ids = _settled_plane(shards=2, launches=6)
            plane.run_until(lambda: all(plane.instance(iid).terminal
                                        for iid in ids), horizon=1e6)
        assert row.call_count == 0
        for shard in plane.shards:
            assert set(shard.server.instances) <= shard.server.instances.changed
