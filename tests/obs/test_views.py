"""Materialized views: cursor discipline, crash recovery, compaction."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import BioOperaServer, events as ev
from repro.errors import StoreError
from repro.faults.plan import FaultAction
from repro.faults.points import FaultInjector, InjectedCrash, installed
from repro.obs import ObservabilityHub
from repro.store import OperaStore
from repro.store.codec import encode


def _event_stream(n=60):
    """A synthetic mixed event log with retries, suspends, zero costs."""
    events = [ev.instance_started(0.0)]
    t = 1.0
    for i in range(n):
        path = f"P/T{i % 7}"
        node = f"node{i % 3:03d}"
        events.append(ev.task_dispatched(path, node, "w.u", 1 + i // 7, t))
        t += 1.0
        if i % 5 == 4:
            reason = "node-crash" if i % 2 else "program-error"
            events.append(ev.task_failed(path, reason, node, 1 + i // 7, t))
        else:
            cost = 0.0 if i % 6 == 0 else float(i)
            events.append(ev.task_completed(path, {}, cost, node, t))
        t += 1.0
        if i == 20:
            events.append(ev.instance_suspended("s1", t))
        if i == 25:
            events.append(ev.instance_suspended("s2", t))
        if i == 30:
            events.append(ev.instance_resumed(t))
    events.append(ev.instance_completed({}, t + 1.0))
    return events


@st.composite
def _event_lists(draw):
    """Any mix of the event kinds the six views fold, times rising."""
    events, t = [], 0.0
    for kind in draw(st.lists(st.sampled_from(
            ("dispatched", "completed", "frame", "failed", "suspended",
             "resumed")), max_size=30)):
        t += draw(st.sampled_from((0.0, 0.5, 3.0)))
        path = f"P/T{draw(st.integers(0, 2))}"
        node = f"node{draw(st.integers(0, 1)):03d}"
        if kind == "dispatched":
            events.append(ev.task_dispatched(path, node, "w.u", 1, t))
        elif kind == "completed":
            cost = draw(st.sampled_from((0.0, 0.1, 7.0)))
            events.append(ev.task_completed(path, {}, cost, node, t))
        elif kind == "frame":
            events.append(ev.task_completed(path, {}, 0.0, "", t))
        elif kind == "failed":
            reason = draw(st.sampled_from(("node-crash", "program-error")))
            events.append(ev.task_failed(path, reason, node, 1, t))
        elif kind == "suspended":
            events.append(ev.instance_suspended("op", t))
        else:
            events.append(ev.instance_resumed(t))
    return events


def _store_with(events, hub=None, instance_id="pi-1"):
    store = OperaStore()
    if hub is not None:
        hub.attach(store)
    store.instances.create(instance_id, {})
    for event in events:
        store.instances.append_event(instance_id, event)
    return store


def _view_dumps(hub):
    """Each view's state, in fold order (``repr`` keeps dict order), once
    every instance a bind deferred is folded."""
    hub.views.fold_deferred()
    return {v.name: repr(v.state) for v in hub.views.views}


class TestCursorDiscipline:
    def test_live_application_tracks_appends(self):
        hub = ObservabilityHub()
        store = _store_with(_event_stream(), hub=hub)
        assert hub.views.in_sync(store, "pi-1")
        assert hub.views.cursors["pi-1"] == store.instances.event_count("pi-1")

    def test_redelivered_events_are_skipped(self):
        hub = ObservabilityHub()
        store = _store_with(_event_stream(10), hub=hub)
        before = _view_dumps(hub)
        # re-deliver an old (seq, event): must be a no-op
        for seq, event in store.instances.events_from("pi-1", 0):
            hub.views.apply_event("pi-1", seq, event)
        assert _view_dumps(hub) == before
        assert hub.views.in_sync(store, "pi-1")

    def test_gap_raises(self):
        hub = ObservabilityHub()
        store = _store_with(_event_stream(5), hub=hub)
        count = store.instances.event_count("pi-1")
        with pytest.raises(StoreError):
            hub.views.apply_event("pi-1", count + 3, ev.instance_started(0.0))


class TestBatchApplication:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_batched_appends_build_identical_views(self, data):
        """However one event list is cut into committed slices — slices of
        one through ``append_event``, longer ones through
        ``append_events`` — the store, the six views and their cursors
        end up byte-identical, and the observer is handed exactly the
        committed slices, in order."""
        events = data.draw(_event_lists())
        cuts = sorted(data.draw(st.sets(
            st.integers(1, max(1, len(events) - 1)))))
        bounds = [0] + [c for c in cuts if c < len(events)] + [len(events)]
        slices = [events[lo:hi] for lo, hi in zip(bounds, bounds[1:])
                  if lo < hi]

        reference_hub = ObservabilityHub()
        reference = _store_with([], hub=reference_hub)
        reference.instances.append_events("pi-1", events)

        hub = ObservabilityHub()
        store = _store_with([], hub=hub)
        seen, fold = [], store.instances.observer

        def recording(instance_id, start_seq, committed):
            seen.append((start_seq, list(committed)))
            fold(instance_id, start_seq, committed)

        store.instances.observer = recording
        for part in slices:
            if len(part) == 1:
                store.instances.append_event("pi-1", part[0])
            else:
                store.instances.append_events("pi-1", part)

        assert [part for _start, part in seen] == slices
        assert [start for start, _part in seen] == bounds[:len(slices)]
        assert _view_dumps(hub) == _view_dumps(reference_hub)
        assert hub.views.cursors == reference_hub.views.cursors
        assert encode(dict(store.kv.items())) \
            == encode(dict(reference.kv.items()))

    def test_observer_raising_after_the_commit_loses_nothing(self):
        """The hub runs after the commit: what it raises reaches the
        caller once, the slice is durable and folded all the same, and
        the caller's retry of the delivery is a no-op."""
        hub = ObservabilityHub()
        store = _store_with([], hub=hub)
        calls = []

        def broken_span_fold(instance_id, event):
            calls.append(event["time"])
            raise RuntimeError("observer bug")

        hub.tracing.on_event = broken_span_fold     # after the view fold
        events = [ev.instance_started(0.0),
                  ev.task_dispatched("P/T", "node001", "w.u", 1, 1.0)]
        with pytest.raises(RuntimeError, match="observer bug"):
            store.instances.append_events("pi-1", events)
        assert calls == [0.0]                       # once, not per event
        assert store.instances.event_count("pi-1") == 2
        assert list(store.simulate_crash().instances.events("pi-1")) \
            == events
        folded = _view_dumps(hub)
        hub.views.apply_events("pi-1", 0, events)
        assert hub.views.cursors["pi-1"] == 2
        assert _view_dumps(hub) == folded

    def test_redelivered_slice_is_skipped(self):
        hub = ObservabilityHub()
        store = _store_with(_event_stream(10), hub=hub)
        before = _view_dumps(hub)
        events = list(store.instances.events("pi-1"))
        hub.views.apply_events("pi-1", 0, events)  # full overlap: no-op
        assert _view_dumps(hub) == before

    def test_partially_redelivered_slice_applies_only_the_suffix(self):
        events = _event_stream(10)
        hub = ObservabilityHub()
        store = _store_with(events[:4], hub=hub)
        # slice [2, len): events 2..3 already folded, the rest is fresh
        hub.views.apply_events("pi-1", 2, events[2:])
        assert hub.views.cursors["pi-1"] == len(events)
        reference = ObservabilityHub()
        _store_with(events, hub=reference, instance_id="pi-1")
        assert _view_dumps(hub) == _view_dumps(reference)

    def test_batch_gap_raises(self):
        hub = ObservabilityHub()
        _store_with(_event_stream(5), hub=hub)
        with pytest.raises(StoreError):
            hub.views.apply_events("pi-1", 999, [ev.instance_started(0.0)])

    def test_empty_slice_is_noop(self):
        hub = ObservabilityHub()
        store = _store_with(_event_stream(5), hub=hub)
        cursor = hub.views.cursors["pi-1"]
        hub.views.apply_events("pi-1", cursor, [])
        assert hub.views.cursors["pi-1"] == cursor


class TestCheckpointRecovery:
    def test_bind_catches_up_from_scratch(self):
        # Nothing of the views is stored: bind replays the whole log.
        live_hub = ObservabilityHub()
        store = _store_with(_event_stream(), hub=live_hub)
        cold = ObservabilityHub()
        cold.attach(store.simulate_crash())
        assert _view_dumps(cold) == _view_dumps(live_hub)


class TestCrashMidCheckpoint:
    def test_replaying_the_same_suffix_twice_is_idempotent(self):
        """A crash inside the hub's store checkpoint, then two recoveries
        from the same durable state (the crash-during-recovery path):
        both fold views identical to the live ones."""
        hub = ObservabilityHub()
        store = _store_with(_event_stream(20), hub=hub)
        action = FaultAction("store.checkpoint.chain-extended", "crash")
        with installed(FaultInjector([action])):
            with pytest.raises(InjectedCrash):
                hub.checkpoint()
        survivor = store.simulate_crash()
        first = ObservabilityHub()
        first.attach(survivor)
        once = _view_dumps(first)
        assert once == _view_dumps(hub)
        second = ObservabilityHub()
        second.attach(survivor)
        assert _view_dumps(second) == once


class TestStoreCompaction:
    def test_hub_checkpoint_compacts_the_kv_log(self):
        """An observability checkpoint checkpoints the KV store, so the
        WAL it covers is truncated; no view state goes into the store."""
        hub = ObservabilityHub(checkpoint_interval=10_000)
        store = _store_with(_event_stream(20), hub=hub)
        assert store.kv.wal_records > 0
        hub.checkpoint()
        assert store.kv.wal_records == 0
        assert hub.metrics.snapshot()["counters"].get("store_checkpoints") == 1
        assert store.kv.keys("obs/") == []
        # crash + rebind: the views folded from the recovered log are
        # byte-identical
        survivor = store.simulate_crash()
        hub2 = ObservabilityHub()
        hub2.attach(survivor)
        assert _view_dumps(hub2) == _view_dumps(hub)
        assert survivor.kv.audit() == []

    def test_interval_checkpoints_bound_the_log(self):
        """Streaming events through an attached hub keeps the live WAL
        bounded by the checkpoint interval, not the run length."""
        hub = ObservabilityHub(checkpoint_interval=40)
        store = _store_with(_event_stream(60), hub=hub)
        # every 40 appends the hub checkpointed and truncated; the live
        # log can never exceed one interval's worth of commits (one
        # record per append, plus the instance's creation)
        assert store.kv.wal_records <= 40
        assert store.kv.wal_position > store.kv.wal_records


    def test_a_server_built_with_defaults_bounds_its_log(self):
        """Every server has a hub, so every server's store is compacted
        (``KVStore(retain_history=True)`` keeps what was truncated)."""
        server = BioOperaServer()
        store = server.store
        store.instances.create("pi-1", {})
        for event in _event_stream(300):  # > the default 500 appends
            store.instances.append_event("pi-1", event)
        assert server.metrics["store_checkpoints"] == 1
        assert store.kv.wal_records < store.kv.wal_position


class TestStateHygiene:
    def test_multi_instance_cursors_are_independent(self):
        hub = ObservabilityHub()
        store = _store_with(_event_stream(10), hub=hub, instance_id="a")
        store.instances.create("b", {})
        for event in _event_stream(3):
            store.instances.append_event("b", event)
        assert hub.views.in_sync(store, "a")
        assert hub.views.in_sync(store, "b")
        assert hub.views.cursors["a"] != hub.views.cursors["b"]
