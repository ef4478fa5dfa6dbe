"""The invariant checker must catch planted violations, not just pass.

A checker that returns ``[]`` on a healthy server proves nothing unless it
also *fails* on a corrupted one. Each test here plants one specific class
of corruption — a phantom completion in the log, a leaked node slot, a
wrong final output — and asserts the catalog names it.
"""

from repro.cluster import SimKernel, SimulatedCluster, uniform
from repro.core.engine import (
    BioOperaServer, ProgramRegistry, ProgramResult, events as ev,
)
from repro.faults import invariants
from repro.store import LineageRecord

OCR = "PROCESS P\n  ACTIVITY A\n    PROGRAM w.u\n  END\nEND"


def _completed_server(seed=41):
    kernel = SimKernel(seed=seed)
    cluster = SimulatedCluster(kernel, uniform(2, cpus=1))
    registry = ProgramRegistry()
    registry.register("w.u", lambda inputs, ctx: ProgramResult({"x": 1}, 5.0))
    server = BioOperaServer(registry=registry)
    server.attach_environment(cluster)
    server.define_template_ocr(OCR)
    instance_id = server.launch("P")
    status = cluster.run_until_instance_done(instance_id)
    assert status == "completed"
    return server, instance_id


def _leased_server(seed=43):
    """Leases on, and the one job in flight under its lease."""
    kernel = SimKernel(seed=seed)
    cluster = SimulatedCluster(kernel, uniform(2, cpus=1))
    registry = ProgramRegistry()
    registry.register(
        "w.u", lambda inputs, ctx: ProgramResult({"x": 1}, 50.0))
    server = BioOperaServer(registry=registry)
    server.attach_environment(cluster)
    server.enable_leases(900.0, 4.0)
    server.define_template_ocr(OCR)
    server.launch("P")
    kernel.run(until=5.0)
    assert len(server.leases.held) == 1
    return server


class TestHealthyServer:
    def test_clean_run_has_no_violations(self):
        server, instance_id = _completed_server()
        assert invariants.check_server(server) == []

    def test_final_checks_pass_with_matching_baseline(self):
        server, instance_id = _completed_server()
        baseline = {instance_id: server.instance(instance_id).outputs}
        assert invariants.check_server(
            server, baseline_outputs=baseline, final=True) == []


class TestPlantedViolations:
    def test_phantom_completion_is_caught(self):
        """A node-bearing completion with no live dispatch must be named
        by the exactly-once check (and the replay twin diverges too)."""
        server, instance_id = _completed_server()
        server.store.instances.append_event(instance_id, ev.task_completed(
            "P/ghost", {"x": 9}, 1.0, "node001", 99.0,
        ))
        problems = invariants.check_server(server)
        assert any("P/ghost" in p and "no live dispatch" in p
                   for p in problems)
        assert any("replay failed" in p for p in problems)

    def test_double_completion_is_caught(self):
        server, instance_id = _completed_server()
        # replay the real completion event verbatim: same path, same node
        events = list(server.store.instances.events(instance_id))
        done = next(e for e in events
                    if e["type"] == ev.TASK_COMPLETED and e.get("node"))
        server.store.instances.append_event(instance_id, dict(done))
        problems = invariants.check_server(server)
        assert any("completed" in p and ("twice" in p or "no live" in p)
                   for p in problems)

    def test_leaked_slot_is_caught(self):
        server, _ = _completed_server()
        server.awareness.assign("node001", "job-leak")
        problems = invariants.check_server(server)
        assert any("leaked slot" in p and "job-leak" in p for p in problems)

    def test_incomplete_instance_fails_final_check(self):
        kernel = SimKernel(seed=42)
        cluster = SimulatedCluster(kernel, uniform(1, cpus=1))
        registry = ProgramRegistry()
        registry.register(
            "w.u", lambda inputs, ctx: ProgramResult({}, 5.0))
        server = BioOperaServer(registry=registry)
        server.attach_environment(cluster)
        server.define_template_ocr(OCR)
        server.launch("P")  # never run to completion
        problems = invariants.check_server(server, final=True)
        assert any("expected 'completed'" in p for p in problems)

    def test_baseline_output_mismatch_fails_final_check(self):
        server, instance_id = _completed_server()
        baseline = {instance_id: {"something": "else"}}
        problems = invariants.check_server(
            server, baseline_outputs=baseline, final=True)
        assert any("fault-free baseline" in p for p in problems)

    def test_stale_served_prov_document_is_caught(self):
        """The graph itself still equals a rebuild; only the document
        kept beside it has fallen behind (it lost an activity)."""
        server, _ = _completed_server()
        graph = server.store.observability.provenance.graph
        graph.to_prov_json()
        assert invariants.check_server(server) == []
        graph._document["activity"].popitem()
        problems = dict(invariants.run_catalog(server))["prov-equivalence"]
        assert problems == ["served PROV document diverges from a rebuilt "
                            "one"]

    def test_lineage_edge_with_no_completed_task_is_caught(self):
        """A derivation in the served graph that no ``task_completed``
        event of any log records: the rebuild off the logs lacks it."""
        server, instance_id = _completed_server()
        graph = server.store.observability.provenance.graph
        graph.add(LineageRecord(
            outputs=(f"{instance_id}/P/ghost",),
            inputs=(f"{instance_id}/A",), program="w.u",
            instance_id=instance_id, task="P/ghost",
            span=f"{instance_id}:P/ghost:1"))
        problems = dict(invariants.run_catalog(server))["prov-equivalence"]
        assert problems == ["provenance graph diverges from a rebuild off "
                            "the logs"]

    def _contiguity(self, server):
        return dict(invariants.run_catalog(server))["contiguous-log"]

    def test_phantom_event_key_is_caught(self):
        """An event key beyond ``next_seq`` is invisible to the engine's
        log reader (its range ends at the counter); the oracle's key scan
        must name it."""
        server, instance_id = _completed_server()
        count = server.store.instances.event_count(instance_id)
        events = list(server.store.instances.events(instance_id))
        server.store.kv.put(
            f"instance/{instance_id}/event/{count + 2:010d}", events[-1])
        assert len(list(server.store.instances.events(instance_id))) == count
        problems = self._contiguity(server)
        assert len(problems) == 1
        assert instance_id in problems[0]
        assert f"phantom at seq [{count + 2}]" in problems[0]

    def test_hole_is_named_not_raised(self):
        """A deleted middle event makes every log read raise StoreError;
        the catalog reports it — by sequence under contiguous-log, as an
        unreadable log under the checks that read it — and does not raise."""
        server, instance_id = _completed_server()
        server.store.kv.delete(f"instance/{instance_id}/event/{2:010d}")
        named = dict(invariants.run_catalog(server))
        assert any(instance_id in p and "hole or phantom at seq [2]" in p
                   for p in named["contiguous-log"])
        assert any("log unreadable" in p and "seq 2" in p
                   for p in named["log-replayable/epoch-monotone"])

    def _leases(self, server):
        return dict(invariants.run_catalog(server))["leases"]

    def test_counted_lease_double_grant_is_caught(self):
        server = _leased_server()
        assert self._leases(server) == []
        (job, node), = server.dispatcher.in_flight.values()
        server.leases.grant(job, node)  # a second lease for a live one
        assert self._leases(server) == ["lease double-granted 1 time(s)"]

    def test_lease_without_in_flight_job_is_caught(self):
        server = _leased_server()
        (lease,) = server.leases.held.values()
        server.leases.held["job-ghost"] = dict(lease, key="P:ghost")
        assert self._leases(server) == [
            "lease held for job-ghost with no in-flight job"]

    def test_two_live_leases_for_one_task_are_caught(self):
        server = _leased_server()
        (job_id, lease), = server.leases.held.items()
        server.leases.held["job-twin"] = dict(lease)
        assert (f"two live leases for task {lease['key']}: {job_id} and "
                f"job-twin") in self._leases(server)

    def test_job_queued_for_an_ended_instance_is_caught(self):
        server, instance_id = _completed_server()
        assert dict(invariants.run_catalog(server))["no-work-for-ended"] \
            == []
        server.queue_job(instance_id, "P/A", "w.u", {}, attempt=2)
        assert dict(invariants.run_catalog(server))["no-work-for-ended"] \
            == [f"{instance_id}: completed, yet a job of it is queued, "
                f"held or in flight"]

    def test_second_terminal_event_is_caught(self):
        server, instance_id = _completed_server()
        count = server.store.instances.event_count(instance_id)
        server.store.instances.append_event(
            instance_id, ev.instance_aborted("late", 99.0))
        assert dict(invariants.run_catalog(server))["one-terminal-event"] \
            == [f"{instance_id}: second terminal event instance_aborted "
                f"at seq {count}"]

    def test_a_reset_reopens_the_run(self):
        """A task reset reopens an ended instance, so the run it starts
        ends with a terminal event of its own; an ended instance whose
        log has none since the reset is named."""
        server, instance_id = _completed_server()
        server.restart_task(instance_id, "A")
        instance = server.instance(instance_id)
        status, instance.status = instance.status, "aborted"
        assert dict(invariants.run_catalog(server))["one-terminal-event"] \
            == [f"{instance_id}: aborted with no terminal event in its log"]
        instance.status = status
        server.environment.run_until_instance_done(instance_id)
        assert [e["type"] for e in server.store.instances.events(
            instance_id)].count(ev.INSTANCE_COMPLETED) == 2
        assert invariants.check_server(server) == []
