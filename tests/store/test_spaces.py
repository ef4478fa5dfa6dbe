"""The four BioOpera data spaces over one store."""

import pytest

from repro.errors import StoreError, UnknownTemplateError
from repro.store import OperaStore


@pytest.fixture()
def store():
    return OperaStore()


class TestTemplateSpace:
    def test_save_assigns_versions(self, store):
        assert store.templates.save("p", {"v": 1}) == 1
        assert store.templates.save("p", {"v": 2}) == 2
        assert store.templates.latest_version("p") == 2

    def test_load_latest_and_pinned(self, store):
        store.templates.save("p", {"v": 1})
        store.templates.save("p", {"v": 2})
        assert store.templates.load("p")["v"] == 2
        assert store.templates.load("p", version=1)["v"] == 1

    def test_load_unknown_raises(self, store):
        with pytest.raises(UnknownTemplateError):
            store.templates.load("nope")

    def test_load_unknown_version_raises(self, store):
        store.templates.save("p", {})
        with pytest.raises(UnknownTemplateError):
            store.templates.load("p", version=9)

    def test_names_and_contains(self, store):
        store.templates.save("a", {})
        store.templates.save("b", {})
        assert store.templates.names() == ["a", "b"]
        assert "a" in store.templates
        assert "zz" not in store.templates


class TestInstanceSpace:
    def test_create_and_meta(self, store):
        store.instances.create("i1", {"status": "created"})
        assert store.instances.meta("i1") == {"status": "created"}

    def test_duplicate_create_rejected(self, store):
        store.instances.create("i1", {})
        with pytest.raises(StoreError):
            store.instances.create("i1", {})

    def test_update_meta(self, store):
        store.instances.create("i1", {"status": "created"})
        store.instances.update_meta("i1", status="running")
        assert store.instances.meta("i1")["status"] == "running"

    def test_update_meta_unknown_raises(self, store):
        with pytest.raises(StoreError):
            store.instances.update_meta("nope", status="x")

    def test_event_log_order_and_seq(self, store):
        store.instances.create("i1", {})
        for index in range(5):
            seq = store.instances.append_event("i1", {"n": index})
            assert seq == index
        assert [e["n"] for e in store.instances.events("i1")] == list(range(5))
        assert store.instances.event_count("i1") == 5

    def test_event_log_isolated_per_instance(self, store):
        store.instances.create("a", {})
        store.instances.create("b", {})
        store.instances.append_event("a", {"x": 1})
        assert list(store.instances.events("b")) == []

    def test_append_to_unknown_instance_raises(self, store):
        with pytest.raises(StoreError):
            store.instances.append_event("nope", {})

    def test_instance_ids_sorted(self, store):
        for name in ("pi-2", "pi-1"):
            store.instances.create(name, {})
        assert store.instances.instance_ids() == ["pi-1", "pi-2"]

    def test_large_seq_keeps_order(self, store):
        """Sequence keys must sort correctly past 9, 99, ... boundaries."""
        store.instances.create("i", {})
        for index in range(120):
            store.instances.append_event("i", {"n": index})
        assert [e["n"] for e in store.instances.events("i")] == list(range(120))


class TestAppendEvents:
    def test_batch_append_is_one_transaction(self, store):
        store.instances.create("i", {})
        before = store.kv.wal_records
        start = store.instances.append_events(
            "i", [{"n": 0}, {"n": 1}, {"n": 2}]
        )
        assert start == 0
        assert store.kv.wal_records == before + 1  # one WAL record
        assert [e["n"] for e in store.instances.events("i")] == [0, 1, 2]
        assert store.instances.event_count("i") == 3

    def test_batch_append_continues_sequence(self, store):
        store.instances.create("i", {})
        store.instances.append_event("i", {"n": 0})
        assert store.instances.append_events("i", [{"n": 1}, {"n": 2}]) == 1
        assert store.instances.append_event("i", {"n": 3}) == 3
        assert [e["n"] for e in store.instances.events("i")] == [0, 1, 2, 3]

    def test_empty_batch_is_noop(self, store):
        store.instances.create("i", {})
        before = store.kv.wal_records
        assert store.instances.append_events("i", []) == 0
        assert store.kv.wal_records == before
        assert store.instances.event_count("i") == 0

    def test_batch_append_unknown_instance_raises(self, store):
        with pytest.raises(StoreError):
            store.instances.append_events("nope", [{}])

    def test_observer_gets_one_call_per_committed_slice(self, store):
        store.instances.create("i", {})
        seen = []
        store.instances.observer = lambda iid, start, evs: seen.append(
            (iid, start, [e["n"] for e in evs]))
        store.instances.append_events("i", [{"n": 0}, {"n": 1}])
        store.instances.append_event("i", {"n": 2})
        store.instances.append_events("i", [])       # nothing committed
        assert seen == [("i", 0, [0, 1]), ("i", 2, [2])]
        store.instances.observer = None
        store.instances.append_event("i", {"n": 3})
        assert len(seen) == 2


class TestConfigurationSpace:
    def test_node_round_trip(self, store):
        store.configuration.save_node("n1", {"cpus": 2})
        assert store.configuration.node("n1") == {"cpus": 2}
        assert store.configuration.nodes() == {"n1": {"cpus": 2}}

    def test_remove_node(self, store):
        store.configuration.save_node("n1", {"cpus": 2})
        store.configuration.remove_node("n1")
        assert store.configuration.node("n1") is None

    def test_settings(self, store):
        store.configuration.set_setting("policy", "capacity-aware")
        assert store.configuration.setting("policy") == "capacity-aware"
        assert store.configuration.setting("nope", "dflt") == "dflt"


class TestDataSpace:
    def test_run_records(self, store):
        store.data.record_run("r1", {"wall": 10})
        assert store.data.run("r1") == {"wall": 10}
        assert store.data.runs() == {"r1": {"wall": 10}}

    def test_lineage_appends_in_order(self, store):
        for index in range(3):
            store.data.append_lineage({"n": index})
        assert [r["n"] for r in store.data.lineage_records()] == [0, 1, 2]

    def test_lineage_observer_runs_after_the_commit(self, store):
        """What the observer raises reaches the caller; the record is
        durable all the same."""
        def broken(seq, record):
            assert store.data.lineage_count() == seq + 1
            raise RuntimeError("observer bug")

        store.data.observer = broken
        with pytest.raises(RuntimeError, match="observer bug"):
            store.data.append_lineage({"n": 0})
        assert store.simulate_crash().data.lineage_records() == [{"n": 0}]


class TestOneLogReader:
    """``events``/``lineage_records`` read by sequence key through
    ``events_from``/``lineage_records_from``: no whole-store prefix scan
    per call, and a hole is an error on every read."""

    @pytest.fixture()
    def populated(self, store):
        for index in range(50):
            instance_id = f"pi-{index:03d}"
            store.instances.create(instance_id, {"status": "running"})
            store.instances.append_events(
                instance_id, [{"type": "a"}, {"type": "b"}, {"type": "c"}])
            store.data.append_lineage({"instance_id": instance_id})
        return store

    def test_full_reads_make_no_prefix_scan(self, populated, monkeypatch):
        scans = []
        real_keys = type(populated.kv).keys

        def counting_keys(kv, prefix=""):
            scans.append(prefix)
            return real_keys(kv, prefix)

        monkeypatch.setattr(type(populated.kv), "keys", counting_keys)
        events = list(populated.instances.events("pi-025"))
        records = populated.data.lineage_records()
        assert [event["type"] for event in events] == ["a", "b", "c"]
        assert len(records) == 50
        assert scans == []

    def test_hole_in_an_event_log_raises_on_a_full_read(self, populated):
        populated.kv.delete("instance/pi-025/event/0000000001")
        with pytest.raises(StoreError, match="hole at seq 1"):
            list(populated.instances.events("pi-025"))


class TestCrashRecovery:
    def test_all_spaces_survive_crash(self, store):
        store.templates.save("t", {"x": 1})
        store.instances.create("i", {"s": "running"})
        store.instances.append_event("i", {"type": "e"})
        store.configuration.save_node("n", {"cpus": 4})
        store.data.record_run("r", {"ok": True})
        survivor = store.simulate_crash()
        assert survivor.templates.load("t") == {"x": 1}
        assert survivor.instances.meta("i") == {"s": "running"}
        assert list(survivor.instances.events("i")) == [{"type": "e"}]
        assert survivor.configuration.node("n") == {"cpus": 4}
        assert survivor.data.run("r") == {"ok": True}

    def test_disk_reopen(self, tmp_path):
        store = OperaStore(str(tmp_path / "opera"))
        store.templates.save("t", {"x": 1})
        reopened = store.reopen()
        assert reopened.templates.load("t") == {"x": 1}
        reopened.close()

    def test_disk_reopen_keeps_the_store_options(self, tmp_path):
        store = OperaStore(str(tmp_path / "opera"), segment_records=2,
                           retain_history=True, sync_policy="group",
                           group_max_pending=7)
        store.templates.save("t", {"x": 1})
        reopened = store.reopen()  # close() flushes, then reopen
        assert reopened.templates.load("t") == {"x": 1}
        assert reopened.kv._wal.max_segment_records == 2
        assert reopened.kv._wal.retain_truncated is True
        reopened.templates.save("u", {"x": 2})
        assert reopened.kv.pending_commits == 1  # still grouped
        reopened.close()

    def test_checkpoint_then_crash(self, store):
        store.templates.save("t", {"x": 1})
        store.checkpoint()
        store.instances.create("i", {})
        survivor = store.simulate_crash()
        assert survivor.templates.load("t") == {"x": 1}
        assert survivor.instances.meta("i") == {}
