"""Plane-level behavior: id minting, broadcasts, merged console."""

import re

import pytest

import repro.store.spaces as spaces
from repro.shard import Rejected, ShardedConsole

from .conftest import make_plane

ID_PATTERN = re.compile(r"^s(\d{2})-pi-(\d{6})$")


class TestIdMinting:
    def test_two_shards_1k_launches_disjoint_ids_no_rescans(
            self, monkeypatch):
        """2 shards x 1000 launches: every id is shard-prefixed and
        unique, per-shard serials are contiguous, and the id counter
        never rescans the instance space (the old O(n) cost)."""
        scans = {"count": 0}
        original = spaces.InstanceSpace.instance_ids

        def counting(self):
            scans["count"] += 1
            return original(self)

        monkeypatch.setattr(spaces.InstanceSpace, "instance_ids",
                            counting)
        kernel, plane = make_plane(shards=2, seed=13)
        requests = [
            plane.launch(f"tenant{i % 4}", "job", {"cost": 0.1})
            for i in range(10)
        ]
        plane.drain_requests(horizon=1e6)
        # setup scans: hub catch-up per shard
        after_warmup = scans["count"]
        requests += [
            plane.launch(f"tenant{i % 4}", "job", {"cost": 0.1})
            for i in range(990)
        ]
        plane.drain_requests(horizon=1e6)
        ids = [request.result for request in requests]
        assert len(set(ids)) == 1000
        per_shard = {0: [], 1: []}
        for instance_id in ids:
            match = ID_PATTERN.match(instance_id)
            assert match, instance_id
            per_shard[int(match.group(1))].append(int(match.group(2)))
        # both shards minted, serials contiguous from 1 within a shard
        for shard, serials in per_shard.items():
            assert serials, f"shard {shard} minted nothing"
            assert sorted(serials) == list(range(1, len(serials) + 1))
        # the serial counter is durable: no launch ever rescans the
        # instance space — launch cost is O(1)
        assert scans["count"] == after_warmup, (
            f"{scans['count'] - after_warmup} rescans across 990 launches")


class TestBroadcast:
    def test_broadcast_reaches_instances_on_every_shard(self):
        kernel, plane = make_plane(shards=4, seed=9)
        requests = [plane.launch(f"tenant{i % 4}", "job",
                                 {"cost": 10_000.0})
                    for i in range(16)]
        plane.drain_requests(horizon=1e6)
        assert {plane.router.parse_prefix(r.result)
                for r in requests} == {0, 1, 2, 3}
        plane.broadcast_signal("checkpoint-now")
        plane.drain_requests(horizon=1e6)
        for request in requests:
            instance = plane.instance(request.result)
            assert "checkpoint-now" in instance.signals, request.result

    def test_server_raised_broadcast_fans_out_plane_wide(self):
        """broadcast_signal raised *on one shard's server* still reaches
        instances owned by every other shard (the fanout-hook bugfix)."""
        kernel, plane = make_plane(shards=3, seed=9)
        requests = [plane.launch("t", "job", {"cost": 10_000.0})
                    for _ in range(9)]
        plane.drain_requests(horizon=1e6)
        plane.shards[1].server.broadcast_signal("drain")
        plane.drain_requests(horizon=1e6)
        signalled = sum(
            1 for request in requests
            if "drain" in plane.instance(request.result).signals
        )
        assert signalled == 9


class TestRejectedSignal:
    def test_signal_for_an_unknown_id_is_rejected_not_raised(self):
        """A well-formed id naming no instance (and no forwarding
        record) is outside input: it is acked with a typed rejection
        instead of raising out of the kernel loop every tenant shares."""
        kernel, plane = make_plane(shards=2, seed=11)
        bad = plane.signal("t1", "s00-pi-009999", "poke")
        launch = plane.launch("t2", "job", {"cost": 1.0})
        kernel.run()
        assert bad.status == "done"
        assert isinstance(bad.result, Rejected)
        assert "s00-pi-009999" in bad.result.reason
        assert plane.broker.health()["unroutable"] == 1
        assert launch.status == "done"
        assert plane.instance(launch.result).status == "completed"


class TestMergedConsole:
    def test_console_routes_and_merges(self):
        kernel, plane = make_plane(shards=2, seed=21)
        requests = [plane.launch(f"tenant{i % 2}", "job", {"cost": 0.1})
                    for i in range(8)]
        plane.drain_requests(horizon=1e6)
        plane.run_until(
            lambda: all(plane.instance(r.result).terminal
                        for r in requests),
            horizon=1e6,
        )
        console = ShardedConsole(plane)
        rows = console.list_instances()
        assert len(rows) == 8
        assert {row["shard"] for row in rows} == {0, 1}
        assert rows == sorted(rows, key=lambda row: row["instance_id"])
        detail = console.instance_detail(requests[0].result)
        assert detail["shard"] == plane.router.shard_of(
            requests[0].result)
        depths = console.queue_depth()
        assert set(depths) == {"shard00", "shard01", "broker"}
        health = console.network_health()
        assert health["broker"]["shards_up"] == 2
        snapshot = console.metrics_snapshot()
        assert len(snapshot["shards"]) == 2
        per_shard = [
            shard_snapshot["counters"].get("events_appended", 0)
            for shard_snapshot in snapshot["shards"].values()
        ]
        assert all(count > 0 for count in per_shard)
        assert (snapshot["total_counters"]["events_appended"]
                == sum(per_shard))
        # the servers' run counters are in the same registry
        assert snapshot["total_counters"]["jobs_completed"] == sum(
            shard.server.metrics["jobs_completed"]
            for shard in plane.shards) == 8
        # one spelling of the per-shard broker rows in both answers
        assert (set(snapshot["broker_queues"])
                == set(health["broker_queues"]) == {"shard00", "shard01"})

    def test_plane_wide_trace_summary_keeps_the_timing_stats(self):
        """Regression: the merged summary summed only top-level numbers,
        so queue_wait/run_time/report_delay vanished plane-wide."""
        kernel, plane = make_plane(shards=2, seed=21)
        requests = [plane.launch(f"tenant{i % 2}", "job",
                                 {"cost": 0.1 * (i + 1)})
                    for i in range(6)]
        plane.drain_requests(horizon=1e6)
        plane.run_until(
            lambda: all(plane.instance(r.result).terminal
                        for r in requests),
            horizon=1e6,
        )
        console = ShardedConsole(plane)
        per_instance = [console.trace_summary(r.result) for r in requests]
        merged = console.trace_summary()
        assert set(merged) == set(per_instance[0])
        assert merged["spans"] == merged["completed"] == 6
        for stat in ("queue_wait", "run_time", "report_delay"):
            parts = [summary[stat] for summary in per_instance]
            assert merged[stat]["count"] == 6
            assert merged[stat]["max"] == max(p["max"] for p in parts)
            assert merged[stat]["mean"] == pytest.approx(
                sum(p["mean"] for p in parts) / 6)


class TestScaling:
    @staticmethod
    def burst_makespan(shards: int, launches: int = 200) -> float:
        """Simulated time at which the last of ``launches`` one-activity
        instances finishes, on a 32-node pool split across ``shards``."""
        kernel, plane = make_plane(shards=shards, seed=11,
                                   nodes_per_shard=32 // shards, cpus=4)
        requests = [plane.launch(f"tenant{i % 8}", "job", {"cost": 0.02})
                    for i in range(launches)]
        plane.drain_requests(horizon=1e9)
        plane.run_until(
            lambda: all(plane.instance(r.result).terminal
                        for r in requests),
            horizon=1e9,
        )
        assert all(plane.instance(r.result).status == "completed"
                   for r in requests)
        return max(plane.instance(r.result).finished_at for r in requests)

    def test_four_shards_halve_the_burst_makespan(self):
        """The same burst on the same total node pool: each shard's
        broker lane models one server process, so 4 shards must finish
        in at most half the simulated makespan of 1."""
        assert self.burst_makespan(4) <= self.burst_makespan(1) / 2
