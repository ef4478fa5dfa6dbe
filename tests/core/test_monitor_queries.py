"""Analytics over the persistent instance space."""

import pytest

from repro.bio import DarwinEngine, DatabaseProfile
from repro.cluster import SimKernel, SimulatedCluster, uniform
from repro.core.engine import BioOperaServer
from repro.core.monitor import queries
from repro.processes import install_all_vs_all


@pytest.fixture(scope="module")
def finished_run():
    profile = DatabaseProfile.synthetic("qtest", 100, seed=4)
    darwin = DarwinEngine(profile, mode="modeled", random_match_rate=1e-3,
                          seed=2)
    kernel = SimKernel(seed=8)
    cluster = SimulatedCluster(kernel, uniform(3, cpus=2),
                               execution_noise=0.1)
    server = BioOperaServer(seed=8)
    server.attach_environment(cluster)
    install_all_vs_all(server, darwin)
    instance_id = server.launch("all_vs_all", {
        "db_name": profile.name, "granularity": 6,
    })
    kernel.schedule(20.0, cluster.crash_node, "node002")
    kernel.schedule(400.0, cluster.restore_node, "node002")
    kernel.schedule(30.0, server.suspend, instance_id, "test pause")
    kernel.schedule(600.0, lambda: cluster.server.resume(instance_id))
    cluster.run_until_instance_done(instance_id)
    return server, instance_id, kernel.now


class TestNodeUsage:
    def test_all_work_attributed_to_nodes(self, finished_run):
        server, instance_id, _wall = finished_run
        usage = queries.node_usage(server.store, instance_id)
        assert usage
        total_cpu = sum(u.cpu_seconds for u in usage)
        assert total_cpu == pytest.approx(
            server.instance(instance_id).total_cpu_seconds())
        assert sum(u.activities for u in usage) == \
            server.instance(instance_id).activity_count()

    def test_sorted_by_cpu(self, finished_run):
        server, instance_id, _wall = finished_run
        usage = queries.node_usage(server.store, instance_id)
        cpus = [u.cpu_seconds for u in usage]
        assert cpus == sorted(cpus, reverse=True)

    def test_crashed_node_has_failures(self, finished_run):
        server, instance_id, _wall = finished_run
        usage = {u.node: u for u in queries.node_usage(server.store,
                                                       instance_id)}
        assert usage["node002"].failures >= 1

    def test_all_instances_aggregate(self, finished_run):
        server, instance_id, _wall = finished_run
        total = queries.node_usage(server.store)
        specific = queries.node_usage(server.store, instance_id)
        assert sum(u.cpu_seconds for u in total) >= \
            sum(u.cpu_seconds for u in specific)


class TestHistogramsAndCurves:
    def test_event_histogram(self, finished_run):
        server, instance_id, _wall = finished_run
        histogram = queries.event_histogram(server.store, instance_id)
        assert histogram["instance_created"] == 1
        assert histogram["instance_completed"] == 1
        assert histogram["task_completed"] >= 12
        assert histogram["instance_suspended"] == 1

    def test_completion_curve_monotone_buckets(self, finished_run):
        server, instance_id, wall = finished_run
        curve = queries.completions_over_time(server.store, instance_id,
                                              bucket=wall / 10)
        assert sum(count for _t, count in curve) == \
            server.instance(instance_id).activity_count()
        times = [t for t, _count in curve]
        assert times == sorted(times)

    def test_slowest_activities(self, finished_run):
        server, instance_id, _wall = finished_run
        ranked = queries.slowest_activities(server.store, instance_id,
                                            top=3)
        assert len(ranked) == 3
        costs = [cost for _path, cost in ranked]
        assert costs == sorted(costs, reverse=True)
        # the heaviest work is alignment, not merging
        assert "Alignment/" in ranked[0][0]

    def test_retry_hotspots_name_the_crashed_work(self, finished_run):
        server, instance_id, _wall = finished_run
        hotspots = queries.retry_hotspots(server.store, instance_id)
        assert hotspots
        reasons = {reason for _p, _c, rs in hotspots for reason in rs}
        assert "node-crash" in reasons

    def test_retry_hotspots_classify_node_crashes_as_infrastructure(
            self, finished_run):
        server, instance_id, _wall = finished_run
        hotspots = queries.retry_hotspots(server.store, instance_id)
        # the crashed node002's re-dispatches must show up as
        # infrastructure failures, not program failures
        infra = sum(c["infrastructure_failures"] for _p, c, _r in hotspots)
        assert infra >= 1
        for _path, counts, reasons in hotspots:
            assert counts["dispatches"] >= 2
            assert set(counts) == {"dispatches", "program_failures",
                                   "infrastructure_failures"}


class TestWallBreakdown:
    def test_suspension_accounted(self, finished_run):
        server, instance_id, wall = finished_run
        breakdown = queries.wall_time_breakdown(server.store, instance_id)
        assert breakdown["suspended"] == pytest.approx(570.0, abs=30.0)
        assert breakdown["total"] == pytest.approx(
            breakdown["running"] + breakdown["suspended"])

    def test_empty_instance(self):
        from repro.store import OperaStore

        store = OperaStore()
        store.instances.create("empty", {})
        assert queries.wall_time_breakdown(store, "empty")["total"] == 0.0


def _synthetic_store(events):
    """A store holding one instance with a hand-built event log, with an
    observability hub attached so queries take the view-backed path (the
    ``*_rescan`` comparisons below are then real differentials)."""
    from repro.obs import ObservabilityHub
    from repro.store import OperaStore

    store = OperaStore()
    ObservabilityHub().attach(store)
    store.instances.create("syn", {})
    for event in events:
        store.instances.append_event("syn", event)
    return store


class TestQueryBugfixes:
    """Regression tests for the monitor-query bugs this layer flushed out."""

    def test_zero_cost_completions_stay_on_the_curve(self):
        # BUG: filtering on event.get("cost") truthiness dropped
        # legitimately zero-cost completed tasks from the progress curve.
        from repro.core.engine import events as ev

        store = _synthetic_store([
            ev.task_completed("P/A", {}, 0.0, "node001", 10.0),
            ev.task_completed("P/B", {}, 5.0, "node001", 20.0),
            ev.task_completed("P/#comp", {}, 0.0, "", 30.0),  # frame: not
        ])
        curve = queries.completions_over_time(store, "syn", bucket=100.0)
        assert sum(c for _t, c in curve) == 2  # both activities, no frame
        rescan = queries.completions_over_time_rescan(store, "syn", 100.0)
        assert rescan == curve

    def test_zero_cost_completions_rank_in_slowest(self):
        from repro.core.engine import events as ev

        store = _synthetic_store([
            ev.task_completed("P/A", {}, 0.0, "node001", 10.0),
            ev.task_completed("P/B", {}, 5.0, "node001", 20.0),
        ])
        ranked = queries.slowest_activities(store, "syn", top=10)
        assert ("P/A", 0.0) in ranked
        assert ranked[0] == ("P/B", 5.0)

    def test_unknown_instance_raises_store_error(self):
        # BUG: a typo'd instance id silently returned empty results (the
        # KV prefix scan just yields nothing).
        from repro.errors import StoreError
        from repro.store import OperaStore

        store = OperaStore()
        for query in (
            lambda: queries.node_usage(store, "nope"),
            lambda: queries.node_usage_rescan(store, "nope"),
            lambda: queries.event_histogram(store, "nope"),
            lambda: queries.completions_over_time(store, "nope", 10.0),
            lambda: queries.slowest_activities(store, "nope"),
            lambda: queries.retry_hotspots(store, "nope"),
            lambda: queries.wall_time_breakdown(store, "nope"),
            lambda: queries.wall_time_breakdown_rescan(store, "nope"),
        ):
            with pytest.raises(StoreError):
                query()

    def test_double_suspend_keeps_both_intervals(self):
        # BUG: a second instance_suspended before a resume overwrote
        # suspend_start, losing the earlier interval.
        from repro.core.engine import events as ev

        store = _synthetic_store([
            ev.instance_started(0.0),
            ev.instance_suspended("first", 10.0),
            ev.instance_suspended("second", 30.0),  # closes [10, 30] first
            ev.instance_resumed(40.0),
            ev.instance_completed({}, 100.0),
        ])
        breakdown = queries.wall_time_breakdown(store, "syn")
        assert breakdown["suspended"] == pytest.approx(30.0)  # 20 + 10
        assert breakdown["running"] == pytest.approx(70.0)
        assert breakdown == queries.wall_time_breakdown_rescan(store, "syn")

    def test_in_flight_dispatches_do_not_fabricate_node_rows(self):
        # BUG (flushed out by the view differential): the rescan created
        # a [0, 0.0, 0] row for *any* event carrying a node — including
        # task_dispatched — so mid-run queries listed phantom all-zero
        # nodes whose work had not produced an outcome yet.
        from repro.core.engine import events as ev

        store = _synthetic_store([
            ev.task_completed("P/A", {}, 2.0, "node001", 5.0),
            ev.task_dispatched("P/B", "node002", "w.u", 1, 6.0),  # in flight
        ])
        for usage in (queries.node_usage(store, "syn"),
                      queries.node_usage_rescan(store, "syn")):
            assert [u.node for u in usage] == ["node001"]

    def test_retry_hotspots_split_by_failure_class(self):
        # BUG: infrastructure re-dispatches (node-crash etc.) counted
        # identically to program-failure retries, making healthy tasks on
        # flaky nodes look like program hot spots.
        from repro.core.engine import events as ev

        store = _synthetic_store([
            # flaky-node task: two infra failures, three dispatches
            ev.task_dispatched("P/Flaky", "node001", "w.u", 1, 1.0),
            ev.task_failed("P/Flaky", "node-crash", "node001", 1, 2.0),
            ev.task_dispatched("P/Flaky", "node002", "w.u", 2, 3.0),
            ev.task_failed("P/Flaky", "network-outage", "node002", 2, 4.0),
            ev.task_dispatched("P/Flaky", "node003", "w.u", 3, 5.0),
            ev.task_completed("P/Flaky", {}, 1.0, "node003", 6.0),
            # buggy-program task: two program failures
            ev.task_dispatched("P/Buggy", "node001", "w.u", 1, 7.0),
            ev.task_failed("P/Buggy", "program-error", "node001", 1, 8.0),
            ev.task_dispatched("P/Buggy", "node001", "w.u", 2, 9.0),
            ev.task_failed("P/Buggy", "program-error", "node001", 2, 10.0),
        ])
        hotspots = queries.retry_hotspots(store, "syn", minimum=2)
        by_path = {path: counts for path, counts, _r in hotspots}
        assert by_path["P/Flaky"] == {
            "dispatches": 3, "program_failures": 0,
            "infrastructure_failures": 2,
        }
        assert by_path["P/Buggy"] == {
            "dispatches": 2, "program_failures": 2,
            "infrastructure_failures": 0,
        }
        # program failures rank ahead of infrastructure-driven retries
        assert hotspots[0][0] == "P/Buggy"
        assert hotspots == queries.retry_hotspots_rescan(store, "syn", 2)


class TestViewPathReadsNoLog:
    """With the hub attached and in sync, every monitor query is served
    from the views: zero event-log reads, whatever the log's length. A
    detached hub sends the same queries back to the rescans."""

    def test_six_queries_never_scan_the_event_log(self, monkeypatch):
        import repro.store.spaces as spaces
        from repro.core.engine import events as ev

        store = _synthetic_store([
            ev.instance_started(0.0),
            ev.task_dispatched("P/A", "node001", "w.u", 1, 1.0),
            ev.task_failed("P/A", "node-crash", "node001", 1, 2.0),
            ev.task_dispatched("P/A", "node002", "w.u", 2, 3.0),
            ev.task_completed("P/A", {}, 2.0, "node002", 5.0),
            ev.instance_completed({}, 6.0),
        ])
        scans = {"count": 0}
        original = spaces.InstanceSpace.events

        def counting(self, *args, **kwargs):
            scans["count"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(spaces.InstanceSpace, "events", counting)

        def ask_all():
            return [
                queries.node_usage(store, "syn"),
                queries.event_histogram(store, "syn"),
                queries.completions_over_time(store, "syn", 10.0),
                queries.slowest_activities(store, "syn"),
                queries.retry_hotspots(store, "syn"),
                queries.wall_time_breakdown(store, "syn"),
            ]

        from_views = ask_all()
        assert scans["count"] == 0
        store.observability.detach()
        assert ask_all() == from_views
        assert scans["count"] >= 6
