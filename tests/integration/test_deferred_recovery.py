"""A recovery replays live work only (ISSUE 23).

What has ended — an instance, its view folds, the provenance graph — is
brought up to its log by whoever reads it first. Three contracts:

* **cost shape**, in counts: a recovery costs the live instances; each
  piece skipped is paid for once, by its first reader, and never again;
* **differential**: a server left deferred and a twin recovered from the
  same crashed store with everything forced answer every read byte for
  byte alike, and like the rescan oracles;
* the checks a recovery used to make on the way (both cursor-ahead
  errors) are still made at ``bind``, for a deferred instance too.
"""

from collections import Counter

import pytest

from repro.cluster import SimKernel, SimulatedCluster, uniform
from repro.core.engine import (
    BioOperaServer,
    InlineEnvironment,
    ProgramRegistry,
    ProgramResult,
    replay_instance,
)
from repro.core.engine.instance import ProcessInstance
from repro.core.engine.operator_console import OperatorConsole
from repro.core.engine.recovery import InstanceMap
from repro.core.monitor import queries
from repro.core.planning.whatif import outage_impact
from repro.errors import ActivityFailure, StoreError
from repro.faults.plan import FaultAction
from repro.faults.points import FaultInjector, InjectedCrash, installed
from repro.obs import ObservabilityHub
from repro.obs.views import CHECKPOINT_PREFIX, EventHistogramView, ViewCatalog
from repro.prov import plan_rerun
from repro.prov.graph import ProvenanceGraph
from repro.prov.view import CHECKPOINT_KEY, ProvenanceView
from repro.store import OperaStore, codec
from repro.store.spaces import InstanceSpace

from ..shard.conftest import make_plane

OCR = """PROCESS diamond
  INPUT a
  INPUT b
  OUTPUT result = Join.out
  ACTIVITY Left
    PROGRAM work
    IN x = wb.a
    MAP out -> la
    ON_FAILURE RETRY 2 THEN ABORT
  END
  ACTIVITY Right
    PROGRAM work
    IN x = wb.b
    MAP out -> rb
    ON_FAILURE RETRY 1 THEN ABORT
  END
  ACTIVITY Join
    PROGRAM combine
    IN l = wb.la
    IN r = wb.rb
  END
  CONNECT Left -> Join
  CONNECT Right -> Join
END
"""


def _registry() -> ProgramRegistry:
    """``work`` loses its first attempt on multiples of three to the
    infrastructure and fails every attempt on negatives, so the logs
    hold both classes of retry and one abort."""
    registry = ProgramRegistry()

    def work(inputs, ctx):
        x = inputs["x"]
        if x < 0:
            raise ActivityFailure("program-error", f"x={x}")
        if x % 3 == 0 and ctx.attempt == 1:
            raise ActivityFailure("disk-full", f"x={x}")
        return ProgramResult({"out": x + 1}, cost=float(x))

    def combine(inputs, ctx):
        return ProgramResult({"out": inputs["l"] * 100 + inputs["r"]},
                             cost=0.5)

    registry.register("work", work)
    registry.register("combine", combine)
    return registry


#: launch inputs of the instances that end before the crash (the last
#: one aborts: ``Right`` fails for good) and of those still running.
ENDED = [(1, 2), (3, 4), (5, 6), (6, 9), (7, -1)]
LIVE = [(10, 20), (12, 21)]


def _populated(checkpoint_after: int = 2):
    """A server with ``ENDED`` run to their end — a hub checkpoint after
    the first ``checkpoint_after`` of them — and ``LIVE`` part-way."""
    server = BioOperaServer(registry=_registry(), seed=3)
    env = InlineEnvironment()
    server.attach_environment(env)
    server.define_template_ocr(OCR)
    ended = []
    for index, (a, b) in enumerate(ENDED):
        if index == checkpoint_after:
            server.obs.checkpoint()
        ended.append(server.launch("diamond", {"a": a, "b": b}))
        env.run_instance(ended[-1])
    live = [server.launch("diamond", {"a": a, "b": b}) for a, b in LIVE]
    for _ in range(3):
        env.step()
    assert [server.instances[iid].status for iid in ended] \
        == ["completed"] * 4 + ["aborted"]
    assert not any(server.instances[iid].terminal for iid in live)
    return server, env, ended, live


def _crashed(server):
    """What a crash of ``server`` leaves: call twice for twin stores."""
    server.crash()
    return server.store.simulate_crash()


def _recover(store) -> BioOperaServer:
    return BioOperaServer.recover(store, _registry(),
                                  environment=InlineEnvironment())


def _force(server) -> None:
    """Make the server what an eager recovery would have left."""
    list(server.instances.values())
    assert queries._live_views(server.store, None) is not None
    assert server.obs.provenance.graph is not None


def _view_queries(store, iid, rescan=False):
    suffix = "_rescan" if rescan else ""

    def call(name, *args):
        return getattr(queries, name + suffix)(store, iid, *args)

    return {
        "node_usage": [u.__dict__ for u in call("node_usage")],
        "event_histogram": call("event_histogram"),
        "completions_over_time": call("completions_over_time", 5.0),
        "slowest_activities": call("slowest_activities", 10),
        "retry_hotspots": call("retry_hotspots", 1),
        "wall_time_breakdown": call("wall_time_breakdown"),
    }


def _answers(server):
    """Every read an operator can make, canonically encoded. The
    registry snapshot comes last: by then both twins have read all."""
    store = server.store
    console = OperatorConsole(server)
    out = {"list_instances": console.list_instances()}
    for iid in store.instances.instance_ids():
        out[f"{iid}/detail"] = console.instance_detail(iid)
        out[f"{iid}/statistics"] = server.statistics(iid)
        out[f"{iid}/running"] = console.running_tasks(iid)
        out[f"{iid}/failed"] = console.failed_tasks(iid)
        out[f"{iid}/results"] = console.intermediate_results(iid)
        out[f"{iid}/trace"] = console.trace_summary(iid)
        out[f"{iid}/views"] = _view_queries(store, iid)
        out[f"{iid}/prov_run"] = console.provenance_run(iid)
        out[f"{iid}/prov_export"] = console.export_prov(iid)
        out[f"{iid}/descendants"] = console.provenance_descendants(
            iid, "wb:a")
        if server.instances[iid].status == "completed":
            out[f"{iid}/ancestry"] = console.provenance_ancestry(
                iid, "Join")
            out[f"{iid}/path"] = console.derivation_path(
                iid, "wb:a", "Join")
            out[f"{iid}/plan_rerun"] = plan_rerun(
                store, iid, changed_inputs={"a": 99}).to_dict()
    ids = store.instances.instance_ids()
    out["prov_diff"] = console.provenance_diff(ids[0], ids[1])
    out["node_usage"] = [u.__dict__ for u in queries.node_usage(store)]
    out["cluster_state"] = console.cluster_state()
    out["queue_depth"] = console.queue_depth()
    out["trace_summary"] = console.trace_summary()
    out["export_prov"] = console.export_prov()
    for view in server.obs.views.views:
        out[f"dump/{view.name}"] = view.dump_state()
    out["dump/provenance"] = server.obs.provenance.graph.dump()
    out["metrics"] = console.metrics_snapshot()
    return {name: codec.encode(value) for name, value in out.items()}


def _rebuilt_catalog(store) -> ViewCatalog:
    """Every view folded from sequence 0 of every log."""
    rebuilt = ViewCatalog()
    for iid in store.instances.instance_ids():
        rebuilt.apply_events(iid, 0, list(store.instances.events(iid)))
    return rebuilt


def _assert_oracles(server) -> None:
    """The served answers against what a scan of the durable logs says."""
    store = server.store
    rebuilt = _rebuilt_catalog(store)
    for iid in store.instances.instance_ids():
        assert server.obs.views.in_sync(store, iid)
        assert codec.encode(_view_queries(store, iid)) \
            == codec.encode(_view_queries(store, iid, rescan=True)), iid
        twin = replay_instance(store, iid, server._resolver)
        live = server.instances[iid]
        assert (twin.status, twin.event_count) \
            == (live.status, live.event_count)
        assert codec.encode([twin.outputs, twin.progress()]) \
            == codec.encode([live.outputs, live.progress()])
    for view in server.obs.views.views:
        assert codec.encode(view.dump_state()) == codec.encode(
            rebuilt.by_name[view.name].dump_state()), view.name
    graph = ProvenanceGraph.from_records(store.data.lineage_records())
    assert server.obs.provenance.in_sync(store)
    assert codec.encode(server.obs.provenance.graph.dump()) \
        == codec.encode(graph.dump())
    assert codec.encode(OperatorConsole(server).export_prov()) \
        == codec.encode(graph.to_prov_json())


def _assert_twins_agree(deferred, forced) -> None:
    left, right = _answers(deferred), _answers(forced)
    assert sorted(left) == sorted(right)
    for name in left:
        assert left[name] == right[name], name
    _assert_oracles(deferred)
    _assert_oracles(forced)


class _Counts:
    """Call counts of the work a recovery can skip, per instance."""

    def __init__(self, monkeypatch):
        self.replays = Counter()     # instance id -> replay() calls
        self.folded = Counter()      # instance id -> log events folded
        self.walks = Counter()       # instance id -> events_from() calls
        self.add_raw = 0             # lineage records folded
        replay = ProcessInstance.replay
        fold = EventHistogramView.apply   # sees every event of a log
        add_raw = ProvenanceGraph.add_raw
        events_from = InstanceSpace.events_from

        def counted_replay(instance, events):
            self.replays[instance.id] += 1
            return replay(instance, events)

        def counted_fold(view, instance_id, event):
            self.folded[instance_id] += 1
            return fold(view, instance_id, event)

        def counted_add_raw(graph, record):
            self.add_raw += 1
            return add_raw(graph, record)

        def counted_events_from(space, instance_id, start):
            self.walks[instance_id] += 1
            return events_from(space, instance_id, start)

        monkeypatch.setattr(ProcessInstance, "replay", counted_replay)
        monkeypatch.setattr(EventHistogramView, "apply", counted_fold)
        monkeypatch.setattr(ProvenanceGraph, "add_raw", counted_add_raw)
        monkeypatch.setattr(InstanceSpace, "events_from",
                            counted_events_from)


def _snapshot(counts):
    return (sum(counts.replays.values()), sum(counts.folded.values()),
            counts.add_raw)


@pytest.fixture()
def crashed():
    """``(store factory, ended ids, live ids)`` of one crashed server."""
    server, _env, ended, live = _populated()
    server.crash()
    return server.store.simulate_crash, ended, live


class TestCostShape:
    """With T ended and L live instances in the store, shaped like
    ``test_replay_cost_flat_across_checkpoints``: counts, not seconds."""

    def test_a_recovery_costs_the_live_instances(self, crashed,
                                                 monkeypatch):
        make_store, ended, live = crashed
        store = make_store()
        counts = _Counts(monkeypatch)
        server = _recover(store)
        assert sorted(counts.replays) == live
        assert set(counts.replays.values()) == {1}
        assert not any(counts.folded[iid] for iid in ended)
        assert counts.add_raw == 0
        # the two ended before the checkpoint are level with their logs;
        # the other three wait, and so does the lineage log
        assert list(server.obs.views._deferred) == ended[2:]
        assert server.obs.provenance._behind
        counters = server.obs.metrics.counters
        assert counters["recovery.instances_replayed"] == len(live)
        assert counters["recovery.instances_deferred"] == len(ended)
        assert "views.deferred_catch_ups" not in counters
        assert "prov.deferred_catch_ups" not in counters

    def test_the_first_read_of_one_ended_instance_pays_for_it_alone(
            self, crashed, monkeypatch):
        make_store, ended, _live = crashed
        server = _recover(make_store())
        store = server.store
        target = ended[3]
        counts = _Counts(monkeypatch)
        assert server.instance(target).status == "completed"
        assert dict(counts.replays) == {target: 1}
        assert queries.event_histogram(store, target) \
            == queries.event_histogram_rescan(store, target)
        assert dict(counts.folded) == {
            target: store.instances.event_count(target)}
        assert counts.add_raw == 0
        before = _snapshot(counts)
        server.instance(target)
        server.instances[target]
        queries.event_histogram(store, target)
        assert _snapshot(counts) == before
        counters = server.obs.metrics.counters
        assert counters["views.deferred_catch_ups"] == 1

    def test_reading_everything_costs_what_was_skipped_then_nothing(
            self, crashed, monkeypatch):
        make_store, ended, _live = crashed
        server = _recover(make_store())
        store = server.store
        loaded = {iid: server.obs.views.event_histogram.loaded_cursors.get(
            iid, 0) for iid in ended}
        lineage_behind = (store.data.lineage_count()
                          - server.obs.provenance.cursor)
        assert lineage_behind > 0
        counts = _Counts(monkeypatch)
        _force(server)
        assert dict(counts.replays) == {iid: 1 for iid in ended}
        assert {iid: counts.folded[iid] for iid in ended} == {
            iid: store.instances.event_count(iid) - loaded[iid]
            for iid in ended}
        assert counts.add_raw == lineage_behind
        before = _snapshot(counts)
        _force(server)
        _answers(server)
        assert _snapshot(counts) == before
        counters = server.obs.metrics.counters
        assert counters["views.deferred_catch_ups"] == 3
        assert counters["prov.deferred_catch_ups"] == 1

    def test_catch_up_walks_a_log_once_not_once_per_view(self, crashed,
                                                         monkeypatch):
        make_store, ended, live = crashed
        store = make_store()
        counts = _Counts(monkeypatch)
        catalog = ViewCatalog()
        catalog.bind(store)
        assert {iid: counts.walks[iid] for iid in live} \
            == {iid: 1 for iid in live}
        assert not any(counts.walks[iid] for iid in ended)
        for iid in ended:
            assert catalog.in_sync(store, iid)
        # level with the checkpoint: nothing to walk; behind it: one walk
        assert [counts.walks[iid] for iid in ended] == [0, 0, 1, 1, 1]

    def test_views_split_by_a_torn_checkpoint_walk_once_per_cursor(
            self, monkeypatch):
        server, env, ended, live = _populated()
        with installed(FaultInjector([
                FaultAction("obs.view.checkpoint", "crash", at_hit=3)])):
            with pytest.raises(InjectedCrash):
                server.obs.checkpoint()
        before = server.store.instances.event_count(live[1])
        env.step()   # live[1] moves on: no view is at its head any more
        assert server.store.instances.event_count(live[1]) > before
        store = _crashed(server)
        assert store.instances.meta(live[1])["status"] == "running"
        counts = _Counts(monkeypatch)
        catalog = ViewCatalog()
        catalog.bind(store)
        # two views were checkpointed before the step, four long before:
        # two cursors, two walks — not one per view
        starts = {store.kv.get(CHECKPOINT_PREFIX + view.name)["cursors"]
                  .get(live[1], 0) for view in catalog.views}
        assert len(starts) == 2
        assert (counts.walks[live[0]], counts.walks[live[1]]) == (1, 2)
        assert catalog.in_sync(store, ended[3])
        assert counts.walks[ended[3]] == 1
        for iid in store.instances.instance_ids():
            assert catalog.in_sync(store, iid)
        rebuilt = _rebuilt_catalog(store)
        for view in catalog.views:
            assert codec.encode(view.dump_state()) == codec.encode(
                rebuilt.by_name[view.name].dump_state()), view.name

    def test_an_on_disk_failover_decodes_two_records_per_ended_instance(
            self, tmp_path, monkeypatch):
        """Opening the store decodes keys only; recovery then decodes
        what it reads. Of an ended instance that is its meta and its
        ``next_seq`` (every view cursor is checked against the log), so
        two records, whatever the length of its log: the only events
        decoded are the last slice, which shares its record with
        ``next_seq``. Its log is decoded by its first reader."""
        path = str(tmp_path / "db")
        kernel = SimKernel(seed=5)
        cluster = SimulatedCluster(kernel, uniform(2, cpus=2))
        server = BioOperaServer(store=OperaStore(path), registry=_registry())
        server.attach_environment(cluster)
        server.define_template_ocr(OCR)
        ended = [server.launch("diamond", {"a": a, "b": b})
                 for a, b in ENDED]
        for iid in ended:
            cluster.run_until_instance_done(iid)
        live = [server.launch("diamond", {"a": a, "b": b})
                for a, b in LIVE]
        kernel.run(until=kernel.now + 1.0)
        assert not any(server.instances[iid].terminal for iid in live)
        cluster.crash_server()
        decoded = []   # the heads of every WAL record decoded
        decode = codec.decode

        def counted(data):
            value = decode(data)
            if isinstance(value, list):
                decoded.append(value[0])
            return value

        monkeypatch.setattr(codec, "decode", counted)
        store = OperaStore(path)
        assert decoded == [] and store.kv.last_recovery["records_replayed"]
        recovered = cluster.recover_server(store=store)

        def records_of(iid):
            prefix = f"instance/{iid}/"
            return [heads[1::2] for heads in decoded
                    if any(key.startswith(prefix) for key in heads[1::2])]

        for iid in ended:
            meta, last = sorted(records_of(iid), key=len)
            assert meta == [f"instance/{iid}/meta"]
            assert last[-1] == f"instance/{iid}/next_seq"
            assert store.instances.event_count(iid) > 2 * len(last)
        for iid in live:   # replayed: every record of its log
            assert len(records_of(iid)) > 2
        before = len(decoded)
        assert recovered.instance(ended[0]).status == "completed"
        assert len(records_of(ended[0])) > 2 and len(decoded) > before
        for iid in live:
            cluster.run_until_instance_done(iid)
        assert store.kv.audit() == []
        _assert_oracles(recovered)


class TestInstanceMap:
    """``server.instances``: which reads replay and which do not."""

    def test_reading_ids_replays_nothing(self, crashed, monkeypatch):
        make_store, ended, live = crashed
        server = _recover(make_store())
        counts = _Counts(monkeypatch)
        instances = server.instances
        assert isinstance(instances, InstanceMap)
        assert len(instances) == len(ended) + len(live)
        assert all(iid in instances for iid in ended + live)
        assert "pi-999999" not in instances
        # instances in memory first, then the deferred ids
        assert list(instances) == live + ended
        assert sorted(instances) == ended + live
        assert [i.id for i in instances.loaded()] == live
        assert not counts.replays

    def test_reads_that_hand_out_an_instance_replay_it_once(
            self, crashed, monkeypatch):
        make_store, ended, live = crashed
        server = _recover(make_store())
        counts = _Counts(monkeypatch)
        instances = server.instances
        assert instances[ended[0]].status == "completed"
        assert instances.get(ended[1]).status == "completed"
        assert instances.get(ended[1], "unused").status == "completed"
        assert instances.get("pi-999999") is None
        assert instances.get("pi-999999", "default") == "default"
        with pytest.raises(KeyError):
            instances["pi-999999"]
        popped = instances.pop(ended[4])
        assert popped.status == "aborted" and ended[4] not in instances
        assert instances.pop(ended[4], None) is None
        assert dict(counts.replays) == {
            ended[0]: 1, ended[1]: 1, ended[4]: 1}
        assert {i.id: i.status for i in instances.values()} == {
            **{iid: "completed" for iid in ended[:4]},
            **{iid: "running" for iid in live}}
        assert sorted(iid for iid, _instance in instances.items()) \
            == ended[:4] + live
        assert set(counts.replays.values()) == {1}
        assert sorted(counts.replays) == ended

    def test_unknown_instance_is_still_a_typed_error(self, crashed):
        from repro.errors import UnknownInstanceError
        make_store, _ended, _live = crashed
        server = _recover(make_store())
        with pytest.raises(UnknownInstanceError):
            server.instance("pi-999999")


class TestSkippingReadsReplayNothing:
    def test_broadcast_after_recovery_replays_no_ended_instance(
            self, crashed, monkeypatch):
        make_store, ended, live = crashed
        server = _recover(make_store())
        before = {iid: server.store.instances.event_count(iid)
                  for iid in ended + live}
        counts = _Counts(monkeypatch)
        server.broadcast_signal("go")
        assert not counts.replays
        assert all("go" in server.instances[iid].signals for iid in live)
        after = {iid: server.store.instances.event_count(iid)
                 for iid in ended + live}
        assert {iid for iid in after if after[iid] != before[iid]} \
            == set(live)

    def test_whatif_looks_at_live_instances_only(self, crashed,
                                                 monkeypatch):
        make_store, _ended, live = crashed
        server = _recover(make_store())
        counts = _Counts(monkeypatch)
        plan = outage_impact(server, ["local"])
        assert sorted(i.instance_id for i in plan.affected) == live
        assert not counts.replays


class TestDeferredVersusForced:
    """Recover one crashed store twice — left deferred, and forced right
    after ``recover`` — and compare every read."""

    def test_every_read_agrees_and_matches_the_rescan(self, crashed):
        make_store, _ended, _live = crashed
        forced = _recover(make_store())
        _force(forced)
        _assert_twins_agree(_recover(make_store()), forced)

    def test_ended_instance_read_before_and_after_a_live_append(
            self, crashed):
        make_store, ended, live = crashed
        deferred, forced = _recover(make_store()), _recover(make_store())
        _force(forced)
        first = ended[2]
        assert codec.encode(_view_queries(deferred.store, first)) \
            == codec.encode(_view_queries(forced.store, first))
        for server in (deferred, forced):
            server.environment.run_instance(live[0])
            assert server.instances[live[0]].status == "completed"
        # one more ended instance is read only after the appends
        _assert_twins_agree(deferred, forced)

    def test_append_to_a_deferred_instance_catches_it_up_first(
            self, crashed):
        make_store, ended, _live = crashed
        deferred, forced = _recover(make_store()), _recover(make_store())
        _force(forced)
        for server in (deferred, forced):
            server.change_parameter(ended[2], "note", "post-mortem")
        assert ended[2] not in deferred.obs.views._deferred
        assert ended[3] in deferred.obs.views._deferred
        _assert_twins_agree(deferred, forced)

    def test_second_failover_before_anything_was_read(self, crashed):
        make_store, _ended, _live = crashed
        untouched = _recover(make_store())
        for _ in range(2):
            untouched.environment.step()
        untouched.crash()
        forced = _recover(untouched.store.simulate_crash())
        _force(forced)
        _assert_twins_agree(
            _recover(untouched.store.simulate_crash()), forced)

    def test_checkpoint_while_deferred_then_torn_checkpoint_then_recovery(
            self, crashed):
        """A checkpoint persists a deferred instance at each view's
        loaded cursor; a crash between two per-view transactions then
        leaves the views at different cursors — each recovers alone."""
        make_store, ended, live = crashed
        first = _recover(make_store())
        waiting = list(first.obs.views._deferred)
        assert waiting == ended[2:]
        first.obs.checkpoint()
        assert list(first.obs.views._deferred) == waiting
        for name in first.obs.views.by_name:
            cursors = first.store.kv.get(CHECKPOINT_PREFIX + name)["cursors"]
            assert [cursors[iid] for iid in waiting] == [0, 0, 0]
            assert cursors[live[0]] \
                == first.store.instances.event_count(live[0])
        assert first.store.kv.get(CHECKPOINT_KEY)["cursor"] \
            == first.obs.provenance.cursor \
            < first.store.data.lineage_count()
        # read one of the deferred, run a live one on, then tear
        assert first.obs.views.in_sync(first.store, waiting[0])
        first.environment.run_instance(live[0])
        with installed(FaultInjector([
                FaultAction("obs.view.checkpoint", "crash", at_hit=3)])):
            with pytest.raises(InjectedCrash):
                first.obs.checkpoint()
        torn = {name: first.store.kv.get(CHECKPOINT_PREFIX + name)["cursors"]
                for name in first.obs.views.by_name}
        assert torn["node_usage"][waiting[0]] > 0
        assert torn["wall_time_breakdown"][waiting[0]] == 0
        first.crash()
        forced = _recover(first.store.simulate_crash())
        _force(forced)
        _assert_twins_agree(_recover(first.store.simulate_crash()), forced)

    def test_stale_meta_is_replayed_eagerly_with_the_same_answers(self):
        """Crash between the terminal event and the meta that records
        it: the meta still says running, so recovery replays the
        instance as it always did — and finds it ended."""
        def run_last(injector):
            server, env, _ended, live = _populated()
            last = server.launch("diamond", {"a": 30, "b": 40})
            try:
                with installed(injector):
                    env.run_instance(last)
            except InjectedCrash:
                pass
            return server, live, last

        dry = FaultInjector([])
        run_last(dry)
        server, live, last = run_last(FaultInjector([FaultAction(
            "server.emit.post-persist", "crash",
            at_hit=dry.hits["server.emit.post-persist"])]))
        assert server.store.instances.meta(last)["status"] == "running"
        events = list(server.store.instances.events(last))
        assert events[-1]["type"] == "instance_completed"
        server.crash()
        deferred = _recover(server.store.simulate_crash())
        # (running ``last`` to its end drained the inline queue, so the
        # live instances ended on the way and their metas say so)
        assert [i.id for i in deferred.instances.loaded()] == [last]
        assert deferred.instances[last].status == "completed"
        counters = deferred.obs.metrics.counters
        assert counters["recovery.instances_replayed"] == 1
        assert counters["recovery.instances_deferred"] \
            == len(ENDED) + len(live)
        assert deferred.store.instances.event_count(last) == len(events)
        forced = _recover(server.store.simulate_crash())
        _force(forced)
        _assert_twins_agree(deferred, forced)


class TestCursorAheadStillRaisesAtBind:
    def test_view_cursor_ahead_of_a_deferred_instances_log(self, crashed):
        make_store, ended, _live = crashed
        store = make_store()
        assert store.instances.meta(ended[3])["status"] == "completed"
        key = CHECKPOINT_PREFIX + "path_cost"
        data = store.kv.get(key)
        data["cursors"][ended[3]] = store.instances.event_count(ended[3]) + 1
        store.kv.put(key, data)
        with pytest.raises(StoreError, match="ahead of the durable log"):
            ViewCatalog().bind(store)
        with pytest.raises(StoreError, match="ahead of the durable log"):
            _recover(store)

    def test_provenance_cursor_ahead_of_the_lineage_log(self, crashed):
        make_store, _ended, _live = crashed
        store = make_store()
        data = store.kv.get(CHECKPOINT_KEY)
        data["cursor"] = store.data.lineage_count() + 1
        store.kv.put(CHECKPOINT_KEY, data)
        with pytest.raises(StoreError, match="ahead of the durable lineage"):
            ProvenanceView().bind(store)
        with pytest.raises(StoreError, match="ahead of the durable lineage"):
            _recover(store)


class TestBehindProvenanceView:
    def test_behind_view_folds_nothing_until_asked(self, crashed,
                                                   monkeypatch):
        make_store, _ended, live = crashed
        server = _recover(make_store())
        view = server.obs.provenance
        loaded = view.cursor
        counts = _Counts(monkeypatch)
        server.environment.run_instance(live[0])   # appends lineage
        assert counts.add_raw == 0 and view.cursor == loaded
        server.obs.checkpoint()                    # persists it unchanged
        assert server.store.kv.get(CHECKPOINT_KEY)["cursor"] == loaded
        assert counts.add_raw == 0
        assert view.in_sync(server.store)
        assert counts.add_raw == server.store.data.lineage_count() - loaded
        folded = counts.add_raw
        server.environment.run_instance(live[1])   # live again
        assert counts.add_raw > folded and view.in_sync(server.store)
        assert counts.add_raw \
            == server.store.data.lineage_count() - loaded

    def test_detached_view_serves_what_it_has(self, crashed):
        make_store, _ended, _live = crashed
        server = _recover(make_store())
        view = server.obs.provenance
        server.obs.detach()
        assert len(view.graph) > 0 and view._behind

    def test_fresh_store_is_in_sync_and_folds_live(self):
        server, _env, _ended, _live = _populated()
        view = server.obs.provenance
        assert not view._behind and view.in_sync(server.store)
        assert "prov.deferred_catch_ups" not in server.obs.metrics.counters


class TestMigrationOfADeferredInstance:
    def test_drain_moves_a_deferred_instance_without_replaying_it(
            self, monkeypatch):
        kernel, plane = make_plane(2, seed=7)
        requests = [plane.launch("t0", "job", {"cost": 2.0})
                    for _ in range(6)]
        kernel.run()
        victims = sorted(r.result for r in requests
                         if r.result.startswith("s00-"))
        assert victims
        outputs = {iid: plane.instance(iid).outputs for iid in victims}
        plane.crash_shard(0)
        plane.recover_shard(0)
        source = plane.shards[0].server
        assert not source.instances.loaded()
        counts = _Counts(monkeypatch)
        moved = plane.drain_shard(0)
        assert sorted(moved) == victims
        assert not counts.replays            # neither side replayed one
        assert len(source.instances) == 0
        # the source's graph was behind; the move re-based it on the log
        view = plane.shards[0].store.observability.provenance
        assert not view._behind and view.in_sync(plane.shards[0].store)
        assert len(view.graph) == 0
        target = plane.shards[1].server
        assert plane.shards[1].store.observability.provenance.in_sync(
            plane.shards[1].store)
        for old_id, new_id in moved.items():
            assert new_id in target.instances
            assert plane.instance(old_id).outputs == outputs[old_id]
            assert counts.replays[new_id] == 1
            assert target.obs.views.in_sync(target.store, new_id)
            assert codec.encode(_view_queries(target.store, new_id)) \
                == codec.encode(_view_queries(target.store, new_id,
                                              rescan=True))
        merged = plane.all_instances()
        assert set(moved.values()) <= set(merged)
        assert all(instance is not None for instance in merged.values())
        assert set(counts.replays.values()) == {1}
        from repro.faults import invariants
        assert invariants.check_server(target) == []


class TestEventTimesNeverDecreaseWithinALog:
    """What lets an environment-less recovery seed its ``StepClock``
    from each log's last event instead of reading every log whole."""

    @staticmethod
    def _assert_monotone(store):
        for iid in store.instances.instance_ids():
            times = [event["time"]
                     for event in store.instances.events(iid)]
            assert times == sorted(times), iid
        return max((event["time"]
                    for iid in store.instances.instance_ids()
                    for event in store.instances.events(iid)),
                   default=0.0)

    def test_inline_runs_with_and_without_an_environment(self, crashed):
        make_store, _ended, live = crashed
        server = _recover(make_store())
        server.environment.run_instance(live[0])
        newest = self._assert_monotone(server.store)
        server.crash()
        # no environment at all: nodes known, nothing to submit to
        store = server.store.simulate_crash()
        for node in list(store.configuration.nodes()):
            store.configuration.remove_node(node)
        bare = BioOperaServer.recover(store, _registry())
        assert bare.clock.t >= newest
        assert self._assert_monotone(bare.store) >= newest
        again = _recover(bare.store.simulate_crash())
        again.environment.run_instance(live[1])
        self._assert_monotone(again.store)

    def test_an_explicit_clock_still_wins(self, crashed):
        from repro.core.engine import StepClock
        make_store, _ended, _live = crashed
        clock = StepClock(5.0)
        server = BioOperaServer.recover(
            make_store(), _registry(), environment=InlineEnvironment(),
            clock=clock)
        assert server.clock is clock

    def test_simulated_cluster_with_failover(self):
        kernel = SimKernel(seed=5)
        cluster = SimulatedCluster(kernel, uniform(2, cpus=2))
        server = BioOperaServer(
            registry=_registry(),
            observability=ObservabilityHub(checkpoint_interval=7))
        server.attach_environment(cluster)
        server.define_template_ocr(OCR)
        ids = [server.launch("diamond", {"a": a, "b": b})
               for a, b in ENDED[:3] + LIVE]
        cluster.run_until_instance_done(ids[0])
        cluster.crash_server()
        kernel.run(until=kernel.now + 5.0)
        recovered = cluster.recover_server(
            store=server.store.simulate_crash())
        for iid in ids:
            cluster.run_until_instance_done(iid)
        self._assert_monotone(recovered.store)
        _assert_oracles(recovered)

    def test_plane_with_a_migrated_instance_and_a_shard_failover(self):
        kernel, plane = make_plane(3, seed=7)
        requests = [plane.launch("t0", "job", {"cost": 40.0})
                    for _ in range(8)]
        plane.drain_requests()
        old_id = sorted(r.result for r in requests
                        if r.result.startswith("s00-"))[0]
        new_id = plane.migrator.migrate_instance(old_id, 1)
        kernel.run(until=kernel.now + 10.0)
        plane.crash_shard(1)
        kernel.run(until=kernel.now + 10.0)
        plane.recover_shard(1)
        kernel.run()
        assert plane.instance(old_id).status == "completed"
        assert plane.shards[1].store.instances.event_count(new_id) > 0
        for shard in plane.shards:
            self._assert_monotone(shard.store)
