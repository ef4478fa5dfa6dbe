"""Task-span tracing: lifecycle, lineage join, Chrome-trace export."""

import json
from unittest import mock

import pytest

from repro.cluster import SimKernel, SimulatedCluster, uniform
from repro.core.engine import BioOperaServer, ProgramRegistry, ProgramResult
from repro.core.engine import events as ev
from repro.core.engine.operator_console import OperatorConsole
from repro.obs import TraceCollector
from repro.prov import lineage_records
from repro.store import codec

OCR = """
PROCESS P
  ACTIVITY A
    PROGRAM w.u
  END
  ACTIVITY B
    PROGRAM w.u
  END
  CONNECT A -> B
END
"""


@pytest.fixture()
def traced_run():
    kernel = SimKernel(seed=41)
    cluster = SimulatedCluster(kernel, uniform(2, cpus=1),
                               execution_noise=0.1)
    registry = ProgramRegistry()
    registry.register("w.u", lambda inputs, ctx: ProgramResult({}, 10.0))
    server = BioOperaServer(registry=registry)
    server.attach_environment(cluster)
    server.define_template_ocr(OCR)
    instance_id = server.launch("P")
    status = cluster.run_until_instance_done(instance_id)
    assert status == "completed"
    return server, instance_id


class TestSpanLifecycle:
    def test_every_attempt_becomes_a_closed_span(self, traced_run):
        server, instance_id = traced_run
        spans = server.obs.tracing.spans_for(instance_id)
        assert {s.path for s in spans} == {"A", "B"}
        for span in spans:
            assert span.status == "completed"
            assert span.node.startswith("node")
            assert span.program == "w.u"
            assert span.span_id == \
                f"{instance_id}:{span.path}:{span.attempt}"

    def test_span_timings_are_populated(self, traced_run):
        server, instance_id = traced_run
        for span in server.obs.tracing.spans_for(instance_id):
            assert span.queue_wait is not None and span.queue_wait >= 0.0
            assert span.run_time is not None and span.run_time > 0.0
            # the environment reports node-local finish times, so the
            # report leg (finish -> event in the log) is measurable
            assert span.finished_at is not None
            assert span.report_delay is not None
            assert span.report_delay >= 0.0
            assert span.closed_at >= span.dispatched_at

    def test_summary_aggregates(self, traced_run):
        server, instance_id = traced_run
        summary = server.obs.tracing.summary(instance_id)
        assert summary["spans"] == 2
        assert summary["open"] == 0
        assert summary["completed"] == 2
        assert summary["failed"] == 0
        assert summary["run_time"]["count"] == 2
        assert summary["run_time"]["max"] >= summary["run_time"]["mean"] > 0

    def test_spans_join_lineage_records(self, traced_run):
        server, instance_id = traced_run
        records = list(lineage_records(server.store))
        assert records
        span_ids = {s.span_id for s in server.obs.tracing.spans_for()}
        for record in records:
            assert record.span in span_ids
            span = server.obs.tracing.find(record.span)
            assert span.path == record.task


class TestCollectorStandalone:
    def test_failed_event_closes_span_with_reason(self):
        collector = TraceCollector()
        collector.open_span("i", "P/A", "node001", "w.u", 1, 5.0, 8.0)
        collector.on_event("i", ev.task_failed("P/A", "node-crash",
                                               "node001", 1, 12.0))
        (span,) = collector.spans_for("i")
        assert span.status == "failed"
        assert span.reason == "node-crash"
        assert span.queue_wait == pytest.approx(3.0)
        assert span.run_time == pytest.approx(4.0)

    def test_foreign_dispatch_event_synthesizes_a_span(self):
        # replaying a log this process never dispatched still traces
        collector = TraceCollector()
        collector.on_event("i", ev.task_dispatched("P/A", "node001",
                                                   "w.u", 2, 8.0))
        collector.on_event("i", ev.task_completed("P/A", {}, 3.0,
                                                  "node001", 12.0))
        (span,) = collector.spans_for("i")
        assert span.status == "completed"
        assert span.attempt == 2
        assert span.enqueued_at is None and span.queue_wait is None
        assert span.cost == 3.0

    def test_capacity_is_bounded(self):
        collector = TraceCollector(capacity=10)
        for i in range(50):
            collector.open_span("i", f"P/T{i}", "n", "w.u", 1, 0.0, 1.0)
        assert len(collector.spans_for()) == 10


class TestServedSummary:
    """The all-instances ``summary()`` is kept until a span opens or
    closes; ``_summarize`` is the walk it was, and the reference."""

    def assert_served_equals_recomputed(self, collector):
        for instance_id in (None, "i", "j", "nobody"):
            assert codec.encode(collector.summary(instance_id)) == \
                codec.encode(collector._summarize(instance_id))

    def test_agrees_with_a_recomputation_across_open_close_eviction(self):
        collector = TraceCollector(capacity=6)
        self.assert_served_equals_recomputed(collector)
        for n in range(10):  # the last four opens each evict a span
            instance_id = "ij"[n % 2]
            collector.open_span(instance_id, f"P/T{n}", "n", "w.u", 1,
                                float(n), n + 1.0)
            self.assert_served_equals_recomputed(collector)
            if n % 3 == 0:
                collector.on_event(instance_id, ev.task_failed(
                    f"P/T{n}", "node-crash", "n", 1, n + 2.0))
            else:
                collector.on_event(instance_id, ev.task_completed(
                    f"P/T{n}", {}, 1.5, "n", n + 4.0))
            self.assert_served_equals_recomputed(collector)
        assert collector.summary()["spans"] == 6
        assert collector.summary("i")["failed"] == 1

    def test_two_calls_without_a_span_event_walk_the_deque_once(self):
        collector = TraceCollector()
        for n in range(5):
            collector.open_span("i", f"P/T{n}", "n", "w.u", 1, 0.0, 1.0)
        with mock.patch.object(collector, "spans_for",
                               wraps=collector.spans_for) as walk:
            first = collector.summary()
            assert collector.summary() == first
            assert walk.call_count == 1
            # Events that touch no span leave the summary standing.
            collector.on_event("i", ev.whiteboard_set("", "x", 1, 2.0))
            collector.on_event("i", ev.task_completed("P/ghost", {}, 1.0,
                                                      "n", 2.0))
            collector.summary()
            assert walk.call_count == 1
            collector.on_event("i", ev.task_completed("P/T0", {}, 1.0,
                                                      "n", 2.0))
            assert collector.summary()["completed"] == 1
            assert walk.call_count == 2

    def test_every_call_returns_dicts_of_its_own(self):
        collector = TraceCollector()
        collector.open_span("i", "P/A", "n", "w.u", 1, 0.0, 1.0)
        collector.on_event("i", ev.task_completed("P/A", {}, 1.0, "n", 3.0))
        reference = codec.encode(collector._summarize(None))
        summary = collector.summary()
        summary["run_time"]["max"] = -1.0
        del summary["queue_wait"]
        summary["spans"] = 0
        assert codec.encode(collector.summary()) == reference


class TestChromeExport:
    def test_trace_structure(self, traced_run):
        server, instance_id = traced_run
        trace = server.obs.tracing.chrome_trace(instance_id)
        events = trace["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(complete) == 2
        for event in complete:
            assert isinstance(event["ts"], int)
            assert isinstance(event["dur"], int) and event["dur"] > 0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert event["args"]["span_id"].startswith(instance_id)
        names = {e["name"] for e in meta}
        assert "process_name" in names and "thread_name" in names

    def test_export_file_round_trips(self, traced_run, tmp_path):
        server, instance_id = traced_run
        path = str(tmp_path / "trace.json")
        console = OperatorConsole(server)
        assert console.export_trace(path, instance_id) == path
        with open(path, encoding="utf-8") as handle:
            loaded = json.load(handle)
        assert loaded["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "X" for e in loaded["traceEvents"])


class TestConsoleSurface:
    def test_metrics_snapshot_counts_the_run(self, traced_run):
        server, _instance_id = traced_run
        snap = OperatorConsole(server).metrics_snapshot()
        assert snap["counters"]["events_appended"] >= 7
        assert snap["counters"]["navigations"] >= 2
        assert snap["counters"]["placements"] >= 2
        assert snap["histograms"]["dispatch_latency"]["count"] == 2

    def test_trace_summary_via_console(self, traced_run):
        server, instance_id = traced_run
        summary = OperatorConsole(server).trace_summary(instance_id)
        assert summary["completed"] == 2
