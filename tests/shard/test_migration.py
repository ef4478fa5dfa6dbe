"""Shard drain & live migration: moves never lose a byte.

The contract under test (docs/sharding.md runbook):

* a migrated instance's event log on its new shard is byte-identical to
  its pre-migration log (events never carry instance ids, so the copy
  is verbatim; only the id prefix changes);
* stale ids keep working forever — forwarding records route-chase
  through any number of hops;
* every ``shard.migrate.*`` crash window resumes or rolls back cleanly:
  re-running the drain after recovery finishes the job with
  exactly-once outcomes;
* a broker redelivery racing the drain lands its signal exactly once.
"""

import pytest

from repro.cluster import SimKernel
from repro.core.ocr.parser import parse_ocr
from repro.errors import ActivityFailure, EngineError, UnknownShardError
from repro.faults import invariants
from repro.faults.plan import FaultAction
from repro.faults.points import FaultInjector, InjectedCrash, installed
from repro.prov import lineage_records
from repro.prov.graph import ProvenanceGraph
from repro.shard import (
    BROKER,
    ShardedConsole,
    ShardedControlPlane,
    migration_invariants,
    shard_endpoint,
)
from repro.store import codec

from .conftest import JOB_OCR, job_registry, make_plane


def _launch(plane, count, cost, tenant="t0"):
    return [plane.launch(tenant, "job", {"cost": cost})
            for _ in range(count)]


def _events(plane, instance_id):
    owner = plane.router.shard_of(instance_id)
    store = plane.shards[owner].store
    return [dict(event) for event in store.instances.events(instance_id)]


def _ids_on(requests, shard_index):
    prefix = f"s{shard_index:02d}-"
    return sorted(r.result for r in requests
                  if r.result.startswith(prefix))


def _assert_plane_clean(plane):
    assert migration_invariants(plane) == []
    for shard in plane.shards:
        if shard.retired or not shard.server.up:
            continue
        assert invariants.check_server(shard.server) == [], (
            f"shard {shard.index}")


class TestSingleMigration:
    def test_log_copied_verbatim_and_instance_completes(self):
        kernel, plane = make_plane(shards=3, seed=7)
        requests = _launch(plane, 8, cost=60.0)
        plane.drain_requests()
        old_id = _ids_on(requests, 0)[0]
        pre_log = _events(plane, old_id)
        assert pre_log  # launched: mid-flight, not empty

        new_id = plane.migrator.migrate_instance(old_id, 1)
        assert new_id.startswith("s01-")
        # The copied log is the source log, byte for byte (events carry
        # paths and whiteboard keys, never instance ids).
        assert _events(plane, new_id)[:len(pre_log)] == pre_log
        # Source copy tombstoned, durable forward left behind.
        source = plane.shards[0]
        assert source.store.instances.meta(old_id) is None
        forward = source.store.configuration.setting(f"forward/{old_id}")
        assert forward["to"] == new_id

        kernel.run()
        # The stale id resolves to the completed migrated copy.
        assert plane.instance(old_id).status == "completed"
        assert plane.resolve_instance(old_id) == (1, new_id)
        _assert_plane_clean(plane)

    def test_migrating_to_own_shard_or_bad_target_is_rejected(self):
        kernel, plane = make_plane(shards=2, seed=7)
        requests = _launch(plane, 4, cost=5.0)
        plane.drain_requests()
        old_id = _ids_on(requests, 0)[0]
        with pytest.raises(EngineError):
            plane.migrator.migrate_instance(old_id, 0)
        with pytest.raises(EngineError):
            plane.migrator.migrate_instance(old_id, 9)
        with pytest.raises(UnknownShardError):
            plane.migrator.migrate_instance("s99-pi-000001", 1)


class TestDrain:
    def test_drain_moves_everything_retires_and_forwards(self):
        kernel, plane = make_plane(shards=3, seed=7)
        requests = _launch(plane, 9, cost=40.0)
        plane.drain_requests()
        victims = _ids_on(requests, 0)
        assert victims

        moved = plane.drain_shard(0)
        assert sorted(moved) == victims
        assert plane.shards[0].retired
        assert not plane.shards[0].server.up
        assert plane.shards[0].store.instances.instance_ids() == []
        kernel.run()
        for old_id in victims:
            owner, final_id = plane.resolve_instance(old_id)
            assert owner != 0 and final_id == moved[old_id]
            assert plane.instance(old_id).status == "completed"
        # New launches never land on the retired shard.
        later = _launch(plane, 12, cost=0.1)
        plane.drain_requests()
        assert not _ids_on(later, 0)
        # An id the retired shard never knew is a typed routing error.
        with pytest.raises(UnknownShardError):
            plane.resolve_instance("s00-pi-999999")
        _assert_plane_clean(plane)

    def test_second_hop_chases_through_two_forwards(self):
        kernel, plane = make_plane(shards=3, seed=7)
        requests = _launch(plane, 8, cost=50.0)
        plane.drain_requests()
        old_id = _ids_on(requests, 0)[0]
        hop1 = plane.migrator.migrate_instance(old_id, 1)
        hop2 = plane.migrator.migrate_instance(hop1, 2)
        assert hop2.startswith("s02-")
        assert plane.resolve_instance(old_id) == (2, hop2)
        kernel.run()
        assert plane.instance(old_id).status == "completed"
        # The merged console chases the whole chain too.
        detail = ShardedConsole(plane).instance_detail(old_id)
        assert detail["requested_id"] == old_id
        assert detail["forwarded_to"] == hop2
        assert detail["shard"] == 2
        _assert_plane_clean(plane)

    def test_grown_shard_crash_before_first_request_keeps_templates(self):
        """Construction writes (templates, identity, policy) are
        durable before a shard serves anything: a fresh grown shard
        crashed before its first request ack recovers its templates and
        can adopt migrated instances."""
        kernel, plane = make_plane(shards=2, seed=7)
        requests = _launch(plane, 4, cost=30.0)
        plane.drain_requests()
        assert plane.grow(1) == [2]
        plane.crash_shard(2)
        plane.recover_shard(2)
        moved = plane.drain_shard(0, targets=[2])
        assert moved
        kernel.run()
        for old_id in moved:
            assert plane.instance(old_id).status == "completed"
        _assert_plane_clean(plane)

    def test_drain_refuses_without_a_live_target(self):
        kernel, plane = make_plane(shards=2, seed=7)
        requests = _launch(plane, 4, cost=10.0)
        plane.drain_requests()
        plane.crash_shard(1)
        with pytest.raises(EngineError):
            plane.drain_shard(0)

    def test_grow_then_drain_lands_instances_on_fresh_shard(self):
        kernel, plane = make_plane(shards=2, seed=7)
        requests = _launch(plane, 6, cost=30.0)
        plane.drain_requests()
        assert plane.grow(1) == [2]
        moved = plane.drain_shard(0, targets=[2])
        assert all(new_id.startswith("s02-") for new_id in moved.values())
        kernel.run()
        for old_id in moved:
            assert plane.instance(old_id).status == "completed"
        # Growth also pulls fresh launches onto the new shard.
        later = _launch(plane, 20, cost=0.1)
        plane.drain_requests()
        assert _ids_on(later, 2)
        _assert_plane_clean(plane)


class TestCrashWindows:
    """Arm each ``shard.migrate.*`` window, kill the protocol party
    whose durable state the phase mutates, recover, and re-drain: the
    move must finish with exactly-once outcomes and verbatim logs."""

    WINDOWS = [
        ("shard.migrate.prepare", "source"),
        ("shard.migrate.export", "source"),
        ("shard.migrate.import", "target"),
        ("shard.migrate.commit", "source"),
        ("shard.migrate.activate", "target"),
    ]

    @pytest.mark.parametrize("point,side", WINDOWS)
    def test_crash_recover_redrain_converges(self, point, side):
        kernel, plane = make_plane(shards=2, seed=11)
        requests = _launch(plane, 6, cost=30.0)
        plane.drain_requests()
        victims = _ids_on(requests, 0)
        natives = _ids_on(requests, 1)
        assert victims and natives
        pre_logs = {old_id: _events(plane, old_id) for old_id in victims}

        injector = FaultInjector([FaultAction(point, "crash")])
        with installed(injector):
            with pytest.raises(InjectedCrash):
                plane.drain_shard(0)
        crash_index = plane.migrator.current[side]
        plane.crash_shard(crash_index)
        plane.recover_shard(crash_index)  # runs migrator.resume()

        moved = plane.drain_shard(0)
        kernel.run()
        assert plane.shards[0].retired
        for old_id in victims:
            owner, final_id = plane.resolve_instance(old_id)
            assert owner != 0
            pre = pre_logs[old_id]
            # Pre-migration log survives as a verbatim prefix (re-driven
            # in-flight work only ever appends).
            assert _events(plane, final_id)[:len(pre)] == pre
            assert plane.instance(old_id).status == "completed"
        # Importing the moved logs must not wedge the target's own work.
        for native in natives:
            assert plane.instance(native).status == "completed", native
        _assert_plane_clean(plane)

    def test_source_retired_while_the_target_is_down(self):
        """A move that committed on the source but died activating on
        the target: the re-drain retires the source while the target is
        still down, and the target's recovery rolls the move forward
        from the retired source's forwarding record."""
        kernel, plane = make_plane(shards=3, seed=11)
        requests = _launch(plane, 9, cost=30.0)
        plane.drain_requests()
        victims = _ids_on(requests, 0)
        assert victims
        injector = FaultInjector([FaultAction("shard.migrate.activate",
                                              "crash")])
        with installed(injector):
            with pytest.raises(InjectedCrash):
                plane.drain_shard(0, targets=[1])
        plane.crash_shard(1)
        plane.drain_shard(0)
        assert plane.shards[0].retired
        plane.recover_shard(1)
        kernel.run()
        for old_id in victims:
            assert plane.instance(old_id).status == "completed"
        _assert_plane_clean(plane)


def _assert_graphs_follow_the_logs(plane):
    for shard in plane.shards:
        store = shard.store
        assert store.kv.keys("obs/") == [], f"shard {shard.index}"
        assert store.kv.keys("data/lineage") == [], f"shard {shard.index}"
        rebuilt = ProvenanceGraph(lineage_records(store))
        graph = store.observability.provenance.graph
        assert codec.encode(graph.dump()) == codec.encode(
            rebuilt.dump()), f"shard {shard.index}"


class TestNoDerivedStateIsWritten:
    """A move copies the log and rewrites nothing: each shard's graph
    folds the copy it holds, and nothing derived reaches a store."""

    def test_import_commit_and_rollback_write_no_obs_key(self):
        kernel, plane = make_plane(shards=2, seed=7)
        requests = _launch(plane, 6, cost=5.0)
        kernel.run()
        first, second = _ids_on(requests, 0)[:2]
        assert list(lineage_records(plane.shards[0].store))
        # import on the target, commit on the source
        plane.migrator.migrate_instance(first, 1)
        _assert_graphs_follow_the_logs(plane)
        # a move that dies before its commit point is rolled back; the
        # staged copy is folded by neither the view nor the rescan
        with installed(FaultInjector([
                FaultAction("shard.migrate.commit", "crash")])):
            with pytest.raises(InjectedCrash):
                plane.migrator.migrate_instance(second, 1)
        _assert_graphs_follow_the_logs(plane)
        plane.crash_shard(0)
        plane.recover_shard(0)   # resume rolls the staged copy back
        assert plane.resolve_instance(second)[0] == 0
        _assert_graphs_follow_the_logs(plane)
        _assert_plane_clean(plane)

    @pytest.mark.parametrize("point,side", [
        ("shard.migrate.import", "target"),
        ("shard.migrate.commit", "source"),
    ])
    def test_a_resumed_move_leaves_one_copy_of_its_derivations(
            self, point, side):
        """Crash inside the move, recover the side that died (its resume
        rolls the move back or forward), move again: the instance's
        derivations are in exactly one shard's graph, and once in the
        plane's merged export."""
        kernel, plane = make_plane(shards=2, seed=7)
        requests = _launch(plane, 6, cost=5.0)
        kernel.run()
        victim = _ids_on(requests, 0)[0]
        with installed(FaultInjector([FaultAction(point, "crash")])):
            with pytest.raises(InjectedCrash):
                plane.migrator.migrate_instance(victim, 1)
        crashed = plane.migrator.current[side]
        plane.crash_shard(crashed)
        plane.recover_shard(crashed)   # resume rolls the move back

        def holders(*ids):
            return [(shard.index, instance_id) for shard in plane.shards
                    for instance_id in shard.server.obs.provenance.graph
                    .instance_ids() if instance_id in ids]

        _assert_graphs_follow_the_logs(plane)
        assert holders(victim) == [(0, victim)]
        owner, final_id = plane.resolve_instance(
            plane.migrator.migrate_instance(victim, 1))
        assert owner == 1
        _assert_graphs_follow_the_logs(plane)
        assert holders(victim, final_id) == [(1, final_id)]
        served = ShardedConsole(plane).export_prov()
        instances = [attrs["repro:instance"]
                     for attrs in served["activity"].values()]
        assert instances.count(final_id) == 1
        assert victim not in instances
        _assert_plane_clean(plane)


class TestRedeliveryRace:
    def test_signal_deferred_mid_migration_lands_exactly_once(self):
        """A signal dispatched while its instance is quiesced for
        migration is deferred (no ack); the broker's redelivery plus
        the retirement resettle path must land it exactly once on the
        migrated copy."""
        kernel, plane = make_plane(shards=2, seed=11)
        requests = _launch(plane, 6, cost=200.0)
        plane.drain_requests()
        victims = _ids_on(requests, 0)
        old_id = victims[0]  # drain migrates in sorted order

        # Crash the import window: the drain dies with the first
        # instance quiesced on the source (mid-migration pause).
        injector = FaultInjector(
            [FaultAction("shard.migrate.import", "crash")])
        with installed(injector):
            with pytest.raises(InjectedCrash):
                plane.drain_shard(0)
        assert old_id in plane.shards[0].server.migrating

        # A signal arriving now is deferred, not erred: the request
        # stays un-acked, waiting on redelivery.
        signal = plane.signal("t0", old_id, "checkpoint-please")
        kernel.run(until=kernel.now + 5.0)
        assert signal.status != "done"

        # Undo the half-move and finish the drain; the un-acked request
        # is resettled onto the instance's new home.
        plane.migrator.resume()
        moved = plane.drain_shard(0)
        new_id = moved[old_id]
        kernel.run()
        assert signal.status == "done"
        raised = [
            event for event in _events(plane, new_id)
            if event["type"] == "signal_raised"
            and event.get("name") == "checkpoint-please"
        ]
        assert len(raised) == 1
        assert plane.instance(old_id).status == "completed"
        _assert_plane_clean(plane)


class TestBrokerTopology:
    def test_queue_stats_and_health_surface_depth_and_age(self):
        kernel, plane = make_plane(shards=2, seed=5)
        console = ShardedConsole(plane)
        _launch(plane, 4, cost=1.0)
        health = console.network_health()
        stats = health["broker_queues"]
        assert set(stats) == {"shard00", "shard01"}
        for entry in stats.values():
            assert {"depth", "oldest_pending_age_s",
                    "up", "retired"} <= set(entry)
        assert sum(entry["depth"] for entry in stats.values()) == 4
        kernel.run()
        after = console.network_health()["broker_queues"]
        assert all(entry["depth"] == 0 for entry in after.values())
        assert all(entry["oldest_pending_age_s"] == 0.0
                   for entry in after.values())

    def test_retired_shard_reports_and_refuses_traffic(self):
        kernel, plane = make_plane(shards=3, seed=5)
        requests = _launch(plane, 6, cost=5.0)
        plane.drain_requests()
        plane.drain_shard(0)
        kernel.run()
        health = plane.broker.health()
        assert health["shards_retired"] == 1
        stats = plane.broker.shard_queue_stats()
        assert stats[0]["retired"] and not stats[0]["up"]
        with pytest.raises(EngineError):
            plane.broker.shard_up(0, 1)
        with pytest.raises(EngineError):
            plane.crash_shard(0)
        with pytest.raises(EngineError):
            plane.recover_shard(0)
        # The merged console stops listing the retired shard but keeps
        # every instance visible on its new home.
        console = ShardedConsole(plane)
        rows = console.list_instances()
        assert len(rows) == len(requests)
        assert {row["shard"] for row in rows} <= {1, 2}


class TestSignalRacesTheMove:
    def test_signal_in_flight_while_its_instance_moves_is_forwarded(self):
        """The request left the broker aimed at the old owner; the move
        commits before it is serviced. The old owner answers with a
        forward, the broker chases it, and the signal is raised exactly
        once — on the new copy."""
        kernel, plane = make_plane(shards=2, seed=11)
        requests = _launch(plane, 4, cost=200.0)
        plane.drain_requests()
        old_id = _ids_on(requests, 0)[0]
        signal = plane.signal("t0", old_id, "checkpoint-please")
        new_id = plane.migrator.migrate_instance(old_id, 1)
        kernel.run()
        assert signal.status == "done" and signal.result is True
        assert signal.payload["instance_id"] == new_id
        assert plane.broker.forwarded == 1
        raised = [
            event for event in _events(plane, new_id)
            if event["type"] == "signal_raised"
            and event.get("name") == "checkpoint-please"
        ]
        assert len(raised) == 1
        assert migration_invariants(plane) == []


DOOMED_OCR = """
PROCESS doomed
  ACTIVITY Work
    PROGRAM t.fail
    ON_FAILURE ABORT
  END
END
"""


class TestStaleIdOnTheConsole:
    """Every routed console call accepts the id the operator was given
    at launch, however often the instance has moved since."""

    @pytest.fixture()
    def drained(self):
        registry = job_registry()

        def fail(inputs, ctx):
            raise ActivityFailure("program-error", "doomed by design")

        registry.register("t.fail", fail)
        kernel = SimKernel(seed=11)
        plane = ShardedControlPlane(
            kernel, shards=2, registry=registry, dispatch_overhead=0.05,
            templates=[parse_ocr(JOB_OCR), parse_ocr(DOOMED_OCR)])
        jobs = _launch(plane, 6, cost=200.0)
        doomed = [plane.launch("t0", "doomed") for _ in range(4)]
        kernel.run(until=kernel.now + 20.0)
        moved = plane.drain_shard(0)
        kernel.run(until=kernel.now + 20.0)
        live, dead = _ids_on(jobs, 0), _ids_on(doomed, 0)
        assert len(live) >= 2 and dead
        return kernel, plane, ShardedConsole(plane), moved, live, dead

    def test_control_calls_act_on_the_moved_copy(self, drained):
        kernel, plane, console, moved, live, _dead = drained
        old_id = live[0]
        copy = plane.shards[1].server.instances[moved[old_id]]
        console.stop(old_id)
        assert copy.status == "suspended"
        console.resume(old_id)
        assert copy.status == "running"
        console.change_parameter(old_id, "cost", 3.0)
        assert copy.whiteboards[""].as_dict()["cost"] == 3.0
        console.restart_task(old_id, "Work")
        assert "task_reset" in [
            event["type"] for event in _events(plane, moved[old_id])]
        console.abort(live[1])
        assert plane.instance(live[1]).status == "aborted"
        kernel.run()
        assert copy.status == "completed"
        _assert_plane_clean(plane)

    def test_queries_answer_from_the_moved_copy(self, drained):
        kernel, plane, console, moved, live, dead = drained
        old_id = live[0]
        running = console.running_tasks(old_id)
        assert [row["path"] for row in running] == ["Work"]
        assert running[0]["node"].startswith("s01-")
        assert running[0]["attempt"] == 2  # re-driven after the move
        failed = console.failed_tasks(dead[0])
        assert [(row["path"], row["reason"]) for row in failed] == [
            ("Work", "program-error")]
        assert console.intermediate_results(old_id) == {}
        kernel.run()
        assert console.intermediate_results(old_id) == {
            "Work": {"receipt": "ok"}}
        assert console.intermediate_results(old_id, prefix="Nope") == {}


JOB_V2_OCR = JOB_OCR.replace("One unit of tenant work", "Second edition")
JOB_V2_OTHER_OCR = JOB_OCR.replace("One unit of tenant work", "A fork")


class TestPinnedTemplateVersion:
    def _pinned_to_v2_on_shard0(self):
        kernel, plane = make_plane(shards=2, seed=11)
        assert plane.shards[0].server.define_template(
            parse_ocr(JOB_V2_OCR)) == 2
        requests = _launch(plane, 4, cost=200.0)
        plane.drain_requests()
        old_id = _ids_on(requests, 0)[0]
        assert plane.shards[0].store.instances.meta(old_id)["version"] == 2
        return kernel, plane, old_id

    def test_missing_version_is_replicated_exactly(self):
        kernel, plane, old_id = self._pinned_to_v2_on_shard0()
        source, target = plane.shards[0].store, plane.shards[1].store
        assert target.templates.latest_version("job") == 1
        new_id = plane.migrator.migrate_instance(old_id, 1)
        assert target.templates.latest_version("job") == 2
        assert (target.templates.load("job", 2)
                == source.templates.load("job", 2))
        assert target.instances.meta(new_id)["version"] == 2
        kernel.run()
        assert plane.instance(old_id).status == "completed"
        _assert_plane_clean(plane)

    def test_conflicting_content_at_that_version_refuses_the_move(self):
        kernel, plane, old_id = self._pinned_to_v2_on_shard0()
        assert plane.shards[1].server.define_template(
            parse_ocr(JOB_V2_OTHER_OCR)) == 2
        with pytest.raises(EngineError, match="differs between shards"):
            plane.migrator.migrate_instance(old_id, 1)
        source = plane.shards[0]
        assert source.store.instances.meta(old_id) is not None
        assert source.store.configuration.setting(
            f"forward/{old_id}") is None
        # The refused move is undone like any interrupted one.
        plane.migrator.resume()
        assert old_id not in source.server.migrating
        kernel.run()
        assert source.server.instances[old_id].status == "completed"
        _assert_plane_clean(plane)


class TestRetirementResettlesTheQueue:
    def test_executed_launch_and_queued_broadcast_complete_locally(self):
        """Shard 0 executed a launch but its ack never left (acks cut);
        a broadcast queues up behind it. Retiring the shard completes
        the launch from its durable dedup marker — no second instance —
        and the broadcast vacuously."""
        kernel, plane = make_plane(shards=2, seed=11)
        plane.control.partition({shard_endpoint(0)}, {BROKER},
                                symmetric=False)
        launches = _launch(plane, 6, cost=5.0)
        kernel.run(until=kernel.now + 1.0)
        held = [r for r in launches if r.shard == 0]
        executed, never_sent = held[0], held[1:]
        assert never_sent and executed.status == "in-flight"
        marker = plane.shards[0].store.configuration.setting(
            f"request/{executed.request_id}")
        assert marker is not None
        broadcasts = plane.broadcast_signal("audit")
        kernel.run(until=kernel.now + 1.0)
        assert [r.status for r in broadcasts] == ["queued", "done"]

        moved = plane.drain_shard(0)
        kernel.run()
        assert executed.status == "done"
        assert executed.result == moved[marker]
        assert broadcasts[0].status == "done"
        assert broadcasts[0].result is True
        assert all(r.status == "done" for r in launches)
        assert plane.broker.pending() == 0
        # one instance per launch: the executed one was not re-run
        assert sorted(iid for shard in plane.shards
                      for iid in shard.server.instances) == sorted(
            plane.resolve_instance(r.result)[1] for r in launches)
        _assert_plane_clean(plane)
