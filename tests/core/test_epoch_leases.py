"""Epoch fencing and dispatch leases: partition-safe engine semantics.

Every server (re)start durably bumps a ``server_epoch`` record in the
configuration space; every dispatch and every emitted event carries the
issuing epoch. These tests pin the three mechanisms that make a split
brain *safe* rather than impossible:

* a deposed server that consults the shared store fences itself instead of
  racing the new epoch's writes;
* stale-epoch reports and dispatches are rejected and counted on both
  sides (server and PEC);
* a dispatched job holds a lease whose expiry — not just a failure report
  — triggers safe re-dispatch, which is what recovers work stranded
  behind a half-open partition that no failure detector can see.
"""

from repro.cluster import SimKernel, SimulatedCluster, uniform
from repro.core.engine import BioOperaServer, ProgramRegistry, ProgramResult
from repro.core.engine.recovery import verify_log


def _registry(cost=50.0):
    registry = ProgramRegistry()
    registry.register("w.u", lambda inputs, ctx: ProgramResult({}, cost))
    return registry


def _cluster_server(seed=31, nodes=1, cost=50.0, **cluster_kw):
    kernel = SimKernel(seed=seed)
    cluster_kw.setdefault("execution_noise", 0.0)
    cluster = SimulatedCluster(kernel, uniform(nodes, cpus=1), **cluster_kw)
    server = BioOperaServer(registry=_registry(cost))
    server.attach_environment(cluster)
    server.define_template_ocr(
        "PROCESS P\n  ACTIVITY A\n    PROGRAM w.u\n  END\nEND")
    return kernel, cluster, server


class TestEpochs:
    def test_epoch_bumps_durably_on_every_restart(self):
        first = BioOperaServer(registry=_registry())
        assert first.epoch == 1
        assert first.store.configuration.setting("server_epoch") == 1
        second = BioOperaServer.recover(first.store, first.registry)
        third = BioOperaServer.recover(first.store, first.registry)
        assert (second.epoch, third.epoch) == (2, 3)
        assert first.store.configuration.setting("server_epoch") == 3

    def test_every_emitted_event_carries_the_epoch(self):
        kernel, cluster, server = _cluster_server()
        instance_id = server.launch("P")
        status = cluster.run_until_instance_done(instance_id)
        assert status == "completed"
        events = list(server.store.instances.events(instance_id))
        assert events
        assert all(event.get("epoch") == server.epoch for event in events)

    def test_deposed_server_fences_itself_against_newer_epoch(self):
        kernel, cluster, old = _cluster_server()
        instance_id = old.launch("P")
        kernel.run(until=5.0)  # a dispatch is in flight
        assert old.dispatcher.in_flight
        job_id = next(iter(old.dispatcher.in_flight))
        # a promotion bumps the shared store's epoch behind old's back
        old.store.configuration.set_setting("server_epoch", old.epoch + 1)
        events_before = old.store.instances.event_count(instance_id)
        old.on_job_completed(job_id, {}, 1.0, "node001")
        assert old.up is False
        assert old.metrics["epoch_fenced"] == 1
        # the fenced write never reached the shared log
        assert old.store.instances.event_count(instance_id) == events_before

    def test_stale_epoch_report_rejected_and_counted(self):
        kernel, cluster, server = _cluster_server()
        instance_id = server.launch("P")
        kernel.run(until=5.0)
        job_id = next(iter(server.dispatcher.in_flight))
        server.on_job_completed(job_id, {}, 1.0, "node001",
                                epoch=server.epoch + 7)
        assert server.metrics["stale_epoch_reports"] == 1
        assert job_id in server.dispatcher.in_flight  # not applied
        # the job is still live; the run must finish normally
        status = cluster.run_until_instance_done(instance_id)
        assert status == "completed"

    def test_pec_rejects_dispatch_from_deposed_epoch(self):
        kernel, cluster, server = _cluster_server()
        server.launch("P")
        kernel.run(until=10.0)  # dispatch delivered, job running
        pec = cluster.pecs["node001"]
        job, _node = next(iter(server.dispatcher.in_flight.values()))
        assert pec.highest_epoch_seen == server.epoch
        pec.highest_epoch_seen = job.epoch + 1
        pec.receive_job(job)
        assert pec.stale_dispatches_rejected == 1

    def test_pec_ignores_duplicate_delivery_of_running_job(self):
        kernel, cluster, server = _cluster_server()
        server.launch("P")
        kernel.run(until=10.0)
        pec = cluster.pecs["node001"]
        job, _node = next(iter(server.dispatcher.in_flight.values()))
        assert cluster.nodes["node001"].has_job(job.job_id)
        pec.receive_job(job)  # a duplicated delivery of the same dispatch
        assert pec.duplicate_dispatches_ignored == 1
        assert len(cluster.nodes["node001"].running_jobs()) == 1

    def test_verify_log_flags_fenced_epoch_regression(self):
        kernel, cluster, server = _cluster_server()
        instance_id = server.launch("P")
        status = cluster.run_until_instance_done(instance_id)
        assert status == "completed"
        assert verify_log(server.store, instance_id, server._resolver) == []
        # fabricate a write from a fenced (older) epoch
        last = list(server.store.instances.events(instance_id))[-1]
        forged = dict(last)
        forged["epoch"] = server.epoch - 1 or 0
        server.store.instances.append_event(instance_id, forged)
        anomalies = verify_log(server.store, instance_id, server._resolver)
        assert any("fenced epoch" in anomaly for anomaly in anomalies)


class TestLeases:
    def test_lease_renews_while_job_is_running(self):
        kernel, cluster, server = _cluster_server(cost=300.0)
        server.enable_leases(60.0, 0.0)
        instance_id = server.launch("P")
        status = cluster.run_until_instance_done(instance_id)
        assert status == "completed"
        assert server.metrics["leases_granted"] >= 1
        assert server.metrics["leases_renewed"] >= 1
        assert server.metrics["leases_expired"] == 0
        assert server.metrics["lease_double_grants"] == 0
        assert server.leases.held == {}

    def test_lease_released_on_completion(self):
        kernel, cluster, server = _cluster_server(cost=50.0)
        server.enable_leases(900.0, 4.0)
        instance_id = server.launch("P")
        status = cluster.run_until_instance_done(instance_id)
        assert status == "completed"
        assert server.metrics["leases_granted"] == 1
        assert server.metrics["leases_expired"] == 0
        assert server.leases.held == {}

    def test_lease_expiry_redispatches_across_half_open_partition(self):
        """A 'to-server' cut eats the completion report but the failure
        detector never fires (dispatches and probes still flow). Only the
        lease notices: it expires, the attempt is failed as
        ``lease-expired``, and the re-dispatch completes the instance."""
        kernel, cluster, server = _cluster_server(cost=50.0)
        server.enable_leases(120.0, 0.0)
        instance_id = server.launch("P")
        kernel.run(until=5.0)  # dispatch delivered
        pid = cluster.start_partition(["node001"], direction="to-server")
        kernel.run(until=200.0)
        assert server.metrics["leases_expired"] == 1
        assert server.metrics["leases_granted"] >= 2  # re-dispatch leased
        cluster.heal_partition(pid)
        status = cluster.run_until_instance_done(instance_id)
        assert status == "completed"
        state = server.instance(instance_id).find_state("A")
        assert state.attempts >= 2

    def test_recover_carries_lease_policy(self):
        server = BioOperaServer(registry=_registry())
        server.enable_leases(123.0, 5.0)
        recovered = BioOperaServer.recover(server.store, server.registry)
        assert recovered.leases.args == (123.0, 5.0)
