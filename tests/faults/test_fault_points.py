"""Every declared fault point is real: armable, firable, and honest.

The acceptance bar for the chaos harness is that each crash window in
``repro.faults.points.CATALOG`` demonstrably fires from a test — a point
nobody can hit is a point the campaigns silently never test. Alongside
firability these tests pin the *semantics* of the nastiest windows:

* a torn WAL write leaves a partial record that reopen repairs away;
* a pre-sync KV crash loses the commit, a post-sync crash keeps it;
* a ``pec.program`` error surfaces as an ordinary job failure with
  reason ``injected-fault`` (and the task retries to completion).
"""

import re
from pathlib import Path

import pytest

from repro.cluster import SimKernel, SimulatedCluster, uniform
from repro.core.engine import BioOperaServer, ProgramRegistry, ProgramResult
from repro.errors import ReproError
from repro.faults.plan import (
    PROFILES, SCHEDULED_CATEGORIES, FaultAction, FaultPlan,
)
from repro.faults.points import (
    CATALOG, FaultInjector, InjectedCrash, active, fire, installed,
)
from repro.store.kvstore import KVStore
from repro.store.disk import MemoryDisk
from repro.store.wal import SegmentedWAL

OCR = "PROCESS P\n  ACTIVITY A\n    PROGRAM w.u\n  END\nEND"


def _single_activity(seed=21, program=None):
    kernel = SimKernel(seed=seed)
    cluster = SimulatedCluster(kernel, uniform(1, cpus=1))
    registry = ProgramRegistry()
    registry.register(
        "w.u", program or (lambda inputs, ctx: ProgramResult({}, 10.0)))
    server = BioOperaServer(registry=registry)
    server.attach_environment(cluster)
    server.define_template_ocr(OCR)
    return kernel, cluster, server


class TestRegistry:
    def test_fire_is_noop_without_injector(self):
        assert active() is None
        assert fire("wal.append") is None

    def test_unknown_point_and_kind_are_rejected(self):
        with pytest.raises(ReproError):
            FaultInjector([FaultAction("no.such.point", "crash")])
        with pytest.raises(ReproError):
            FaultInjector([FaultAction("wal.append", "drop")])

    def test_catalog_kinds_are_known(self):
        for point, kinds in CATALOG.items():
            for kind in kinds:
                assert kind in ("crash", "torn", "error",
                                "drop", "duplicate", "delay"), (point, kind)

    def test_chaos_doc_table_is_the_catalog(self):
        """docs/chaos.md's fault-point table names every catalog point
        with its kinds, and nothing else."""
        doc = Path(__file__).resolve().parents[2] / "docs" / "chaos.md"
        rows = re.findall(r"^\| `([^`]+)` \| ([a-z, ]+) \|",
                          doc.read_text(encoding="utf-8"), re.MULTILINE)
        table = {point: tuple(kinds.split(", ")) for point, kinds in rows}
        assert len(rows) == len(table)
        assert table == CATALOG

    def test_action_fires_on_exact_hit_then_disarms(self):
        injector = FaultInjector([FaultAction("wal.append", "crash",
                                              at_hit=3)])
        with installed(injector):
            fire("wal.append")
            fire("wal.append")
            assert injector.pending == 1
            with pytest.raises(InjectedCrash):
                fire("wal.append")
            assert injector.pending == 0
            fire("wal.append")  # disarmed: later hits are clean
        assert injector.hits["wal.append"] == 4
        assert [entry["hit"] for entry in injector.fired] == [3]

    def test_installed_uninstalls_even_on_crash(self):
        injector = FaultInjector([FaultAction("wal.append", "crash")])
        with pytest.raises(InjectedCrash):
            with installed(injector):
                fire("wal.append")
        assert active() is None


#: crash points a plain single-activity run passes through. Excluded:
#: recovery.replay (needs a recovery), the store.checkpoint.* family (a
#: tiny run never crosses the checkpoint interval) and store.rotate (a
#: tiny run never fills a segment) — all have dedicated tests.
ENGINE_CRASH_POINTS = [
    point for point, kinds in CATALOG.items()
    if "crash" in kinds
    and point not in ("recovery.replay",
                      "store.rotate",
                      "store.checkpoint.begin",
                      "store.checkpoint.post-snapshot",
                      "store.checkpoint.truncate",
                      "store.checkpoint.post-truncate",
                      # shard.migrate.* only fires inside a live
                      # migration; covered in tests/shard/test_migration
                      "shard.migrate.prepare",
                      "shard.migrate.export",
                      "shard.migrate.import",
                      "shard.migrate.commit",
                      "shard.migrate.activate")
]


class TestProfileCoverage:
    """Fault-point coverage of the *campaign profiles themselves*: a
    crash point that no profile ever arms is a window the campaigns
    silently stopped testing. Adding a point to ``CATALOG`` without
    teaching ``FaultPlan.generate`` to draw it fails here."""

    NODES = [f"node{i:03d}" for i in range(1, 5)]
    SAMPLE_SEEDS = 200

    def _armed_by(self, profile):
        armed = set()
        scheduled = set()
        for seed in range(self.SAMPLE_SEEDS):
            plan = FaultPlan.generate(seed, self.NODES, profile=profile)
            armed.update(action.point for action in plan.actions)
            scheduled.update(fault.category for fault in plan.scheduled)
        return armed, scheduled

    def test_every_catalog_point_is_armed_by_at_least_one_profile(self):
        armed_anywhere = set()
        for profile in PROFILES:
            armed, _ = self._armed_by(profile)
            armed_anywhere |= armed
        missing = set(CATALOG) - armed_anywhere
        assert not missing, (
            f"crash points never armed by any profile in PROFILES "
            f"(campaigns cannot exercise them): {sorted(missing)}"
        )

    def test_every_scheduled_category_is_drawn_by_at_least_one_profile(self):
        drawn_anywhere = set()
        for profile in PROFILES:
            _, scheduled = self._armed_by(profile)
            drawn_anywhere |= scheduled
        missing = set(SCHEDULED_CATEGORIES) - drawn_anywhere
        assert not missing, (
            f"scheduled disturbance categories no profile draws: "
            f"{sorted(missing)}"
        )

    def test_profiles_only_arm_cataloged_points(self):
        for profile in PROFILES:
            armed, _ = self._armed_by(profile)
            assert armed <= set(CATALOG), (
                f"profile {profile} arms unknown points: "
                f"{sorted(armed - set(CATALOG))}"
            )


class TestCrashWindows:
    @pytest.mark.parametrize("point", ENGINE_CRASH_POINTS)
    def test_each_crash_point_fires_from_a_real_run(self, point):
        """Arming any catalog crash point kills a plain single-activity
        run — proof the hot path actually passes through the window."""
        kernel, cluster, server = _single_activity()
        injector = FaultInjector([FaultAction(point, "crash")])
        with installed(injector):
            with pytest.raises(InjectedCrash) as err:
                instance_id = server.launch("P")
                cluster.run_until_instance_done(instance_id)
        assert err.value.point == point
        assert injector.fired[0]["point"] == point

    def test_recovery_replay_fires_during_recover(self):
        kernel, cluster, server = _single_activity()
        instance_id = server.launch("P")
        cluster.run_until_instance_done(instance_id)
        server.up = False
        injector = FaultInjector([FaultAction("recovery.replay", "crash")])
        with installed(injector):
            with pytest.raises(InjectedCrash) as err:
                BioOperaServer.recover(server.store, server.registry,
                                       environment=cluster)
        assert err.value.point == "recovery.replay"

    def test_segment_torn_write_is_repaired_on_reopen(self, tmp_path):
        directory = str(tmp_path / "wal")
        wal = SegmentedWAL(directory)
        wal.append(b"first-record")
        wal.sync()
        action = FaultAction("wal.append", "torn", torn_fraction=0.5)
        with installed(FaultInjector([action])):
            with pytest.raises(InjectedCrash) as err:
                wal.append(b"second-record-that-tears")
        assert err.value.torn_fraction == 0.5
        wal.close()
        # the partial record is on disk...
        import os
        segment = os.path.join(directory, "seg-00000001.wal")
        assert os.path.getsize(segment) > 8 + len(b"first-record")
        # ...and reopen repairs it away, keeping the valid prefix
        reopened = SegmentedWAL(directory)
        assert list(reopened.records()) == [b"first-record"]
        reopened.append(b"third")
        reopened.sync()
        assert list(reopened.records()) == [b"first-record", b"third"]
        reopened.close()

    def test_memory_wal_crash_loses_the_record(self):
        disk = MemoryDisk()
        wal = SegmentedWAL("wal", disk=disk)
        wal.append(b"kept")
        wal.sync()
        with installed(FaultInjector([FaultAction("wal.append", "crash")])):
            with pytest.raises(InjectedCrash):
                wal.append(b"lost")
        survivor = SegmentedWAL("wal", disk=disk.crashed())
        assert list(survivor.records()) == [b"kept"]

    def test_kvstore_pre_sync_crash_loses_commit(self):
        kv = KVStore()
        kv.put("a", 1)
        action = FaultAction("kvstore.commit.pre-sync", "crash")
        with installed(FaultInjector([action])):
            with pytest.raises(InjectedCrash):
                kv.put("b", 2)
        survivor = kv.simulate_crash()
        assert survivor.get("a") == 1
        assert survivor.get("b") is None  # appended but never synced

    def test_kvstore_post_sync_crash_keeps_commit(self):
        kv = KVStore()
        kv.put("a", 1)
        action = FaultAction("kvstore.commit.post-sync", "crash")
        with installed(FaultInjector([action])):
            with pytest.raises(InjectedCrash):
                kv.put("b", 2)
        survivor = kv.simulate_crash()
        assert survivor.get("b") == 2  # synced before the crash: durable

    def test_store_rotate_fires_when_a_segment_fills(self):
        """Rotation happens on the append that crosses the segment
        threshold; a crash in that window loses only the in-flight
        (unsynced) record."""
        kv = KVStore(segment_records=3)
        kv.put("k0", 0)
        kv.put("k1", 1)
        with installed(FaultInjector([FaultAction("store.rotate", "crash")])):
            with pytest.raises(InjectedCrash) as err:
                kv.put("k2", 2)
        assert err.value.point == "store.rotate"
        survivor = kv.simulate_crash()
        assert survivor.get("k1") == 1
        assert survivor.get("k2") is None  # appended but never synced
        assert survivor.audit() == []

    @pytest.mark.parametrize("point", [
        "store.checkpoint.begin",
        "store.checkpoint.post-snapshot",
        "store.checkpoint.truncate",
        "store.checkpoint.post-truncate",
    ])
    def test_store_checkpoint_crash_windows_preserve_state(self, point):
        """A crash in any checkpoint window never loses committed state:
        recovery sees either the old snapshot + full log or the new
        snapshot + suffix, both reconstructing the same store."""
        kv = KVStore(retain_history=True)
        for i in range(6):
            kv.put(f"k{i}", i)
        with installed(FaultInjector([FaultAction(point, "crash")])):
            with pytest.raises(InjectedCrash) as err:
                kv.checkpoint()
        assert err.value.point == point
        survivor = kv.simulate_crash()
        assert {k: survivor.get(k) for k in survivor.keys()} \
            == {f"k{i}": i for i in range(6)}
        assert survivor.audit() == []
        # windows at or past the snapshot write leave the log truncated
        # or truncatable; windows before it leave the full log live
        if point in ("store.checkpoint.begin",
                     "store.checkpoint.post-snapshot"):
            assert survivor.wal_records == 6
        else:
            assert survivor.wal_records == 0


class TestMessageFaults:
    def test_pec_program_error_fails_then_retries_to_completion(self):
        kernel, cluster, server = _single_activity(seed=31)
        injector = FaultInjector([FaultAction("pec.program", "error")])
        with installed(injector):
            instance_id = server.launch("P")
            status = cluster.run_until_instance_done(instance_id)
        assert status == "completed"
        assert injector.fired[0]["point"] == "pec.program"
        events = list(server.store.instances.events(instance_id))
        failures = [e for e in events if e["type"] == "task_failed"]
        assert failures and failures[0]["reason"] == "injected-fault"

    def test_pec_report_drop_retries_and_completes(self):
        kernel, cluster, server = _single_activity(seed=32)
        injector = FaultInjector([FaultAction("pec.report", "drop")])
        with installed(injector):
            instance_id = server.launch("P")
            status = cluster.run_until_instance_done(instance_id)
        assert status == "completed"
        assert injector.fired[0]["kind"] == "drop"
        # the dropped first send cost at least one backoff delay
        pec = cluster.pecs["node001"]
        assert pec.reports_lost == 0

    def test_pec_report_duplicate_is_deduplicated_by_server(self):
        kernel, cluster, server = _single_activity(seed=33)
        injector = FaultInjector([FaultAction("pec.report", "duplicate")])
        with installed(injector):
            instance_id = server.launch("P")
            status = cluster.run_until_instance_done(instance_id)
            kernel.run(until=kernel.now + 60.0)  # drain the second copy
        assert status == "completed"
        assert injector.fired[0]["kind"] == "duplicate"
        # the duplicate landed as a stale result, not a double completion
        events = list(server.store.instances.events(instance_id))
        completions = [e for e in events
                       if e["type"] == "task_completed" and e.get("node")]
        assert len(completions) == 1
        assert server.metrics.get("stale_results_ignored", 0) >= 1

    def test_pec_report_delay_still_completes(self):
        kernel, cluster, server = _single_activity(seed=34)
        injector = FaultInjector([FaultAction("pec.report", "delay",
                                              delay=120.0)])
        with installed(injector):
            instance_id = server.launch("P")
            status = cluster.run_until_instance_done(instance_id)
        assert status == "completed"
        assert kernel.now >= 120.0  # the report actually waited
