"""Shard failover: exactly-once signals, fencing, blast-radius zero."""

import json

import pytest

from repro.faults import invariants
from repro.faults.plan import FaultAction
from repro.faults.points import FaultInjector, InjectedCrash, installed
from repro.shard.broker import ShardBroker

from .conftest import make_plane


def shard_logs(plane, index):
    """Canonical serialization of one shard's durable event logs."""
    server = plane.shards[index].server
    return {
        instance_id: json.dumps(
            list(server.store.instances.events(instance_id)),
            sort_keys=True)
        for instance_id in server.store.instances.instance_ids()
    }


def signal_events(plane, instance_id):
    """All signal_raised events in an instance's durable log."""
    server = plane.shard_of(instance_id).server
    return [event for event
            in server.store.instances.events(instance_id)
            if event.get("type") == "signal_raised"]


class TestSignalAcrossFailover:
    @pytest.fixture(autouse=True)
    def _quick_redelivery(self, monkeypatch):
        monkeypatch.setattr(ShardBroker, "REDELIVER_AFTER", 5.0)

    def run_scenario(self):
        kernel, plane = make_plane(shards=4, seed=17)
        requests = [plane.launch(f"tenant{i % 4}", "job",
                                 {"cost": 10_000.0})
                    for i in range(12)]
        plane.drain_requests(horizon=1e6)
        victim = 2
        target = next(r.result for r in requests
                      if plane.router.parse_prefix(r.result) == victim)
        return kernel, plane, victim, target

    def test_signal_during_crash_delivered_exactly_once(self):
        """A signal submitted while its shard is down is held by the
        broker, delivered once after the detector's failover, and never
        doubled."""
        kernel, plane, victim, target = self.run_scenario()
        dead = plane.shards[victim].server
        plane.crash_shard(victim)
        request = plane.signal("tenant0", target, "pause-please")
        while plane.shards[victim].server is dead:
            kernel.step()
            assert request.status != "done"  # held while the shard is down
        assert plane.broker.takeovers == 1
        plane.run_until(lambda: request.status == "done", horizon=1e6)
        assert request.result is True
        assert len(signal_events(plane, target)) == 1

    def test_redelivered_signal_is_idempotent(self):
        """Executing the same request twice (redelivery after a lost
        ack) raises the signal once; the replay reports no-op."""
        kernel, plane, victim, target = self.run_scenario()
        request = plane.signal("tenant0", target, "pause-please")
        plane.drain_requests(horizon=1e6)
        assert request.result is True
        replay = plane.shards[victim].execute(request)
        assert replay is not None and replay[1] is False
        assert len(signal_events(plane, target)) == 1

    def test_failover_deposes_only_the_victim(self):
        kernel, plane, victim, target = self.run_scenario()
        plane.crash_shard(victim)
        plane.recover_shard(victim)
        epochs = [shard.server.epoch for shard in plane.shards]
        assert epochs[victim] == 2
        assert all(epoch == 1 for index, epoch in enumerate(epochs)
                   if index != victim)

    def test_stale_ack_from_deposed_incarnation_rejected(self):
        """An ack carrying a pre-failover epoch must not complete a
        request once the broker has seen the new incarnation."""
        kernel, plane, victim, target = self.run_scenario()
        plane.crash_shard(victim)
        plane.recover_shard(victim)
        request = plane.signal("tenant0", target, "late-ack")
        plane.drain_requests(horizon=1e6)  # epoch 2 now seen in acks
        broker = plane.broker
        before = broker.stale_acks_rejected
        victim_req = plane.signal("tenant1", target, "never-lands")
        broker._ack(victim_req, epoch=1, result=True)
        assert broker.stale_acks_rejected == before + 1
        assert victim_req.status != "done"
        assert request.status == "done"


class TestBlastRadius:
    def test_non_victim_logs_byte_identical_to_fault_free_twin(self):
        """Crash + fail over shard 1 mid-run: every other shard's
        durable event log must match a fault-free twin run at the same
        kernel seed byte for byte."""
        def drive(fault):
            kernel, plane = make_plane(shards=4, seed=29)
            requests = [plane.launch(f"tenant{i % 4}", "job",
                                     {"cost": 30.0})
                        for i in range(16)]
            if fault:
                kernel.schedule(5.0, plane.crash_shard, 1,
                                label="test: crash shard 1")
                kernel.schedule(25.0, plane.recover_shard, 1,
                                label="test: recover shard 1")
            plane.run_until(
                lambda: all(
                    r.status == "done"
                    and plane.shard_of(r.result).server.up
                    and plane.instance(r.result).terminal
                    for r in requests),
                horizon=1e7,
            )
            return plane

        faulted = drive(fault=True)
        twin = drive(fault=False)
        assert faulted.shards[1].server.epoch == 2
        for index in (0, 2, 3):
            assert shard_logs(faulted, index) == shard_logs(twin, index)
        statuses = {instance.status for shard in faulted.shards
                    for instance in shard.server.instances.values()}
        assert statuses == {"completed"}


class TestLaunchKilledBeforeItsFirstEvents:
    def test_redelivered_launch_runs_afresh(self):
        """A launch is one commit: a shard that dies before it leaves no
        instance, no spent serial and no dedup marker behind, so the
        broker's redelivery after the promotion launches exactly once,
        under the id the dead attempt never made durable."""
        kernel, plane = make_plane(shards=1, seed=5)
        crash = FaultAction("server.emit.pre-persist", "crash")
        with installed(FaultInjector([crash])):
            request = plane.launch("t0", "job", {"cost": 5.0})
            with pytest.raises(InjectedCrash):
                plane.drain_requests()
        shard = plane.shards[0]
        assert shard.store.instances.instance_ids() == []
        assert shard.store.configuration.setting("instance_serial") is None
        assert shard.store.configuration.settings("request/") == {}
        plane.crash_shard(0)
        plane.run_until(lambda: request.status == "done"
                        and plane.instance(request.result).terminal)
        assert plane.broker.takeovers == 1
        server = shard.server
        assert server.store.instances.instance_ids() == [request.result]
        assert request.result == "s00-pi-000001"
        assert plane.instance(request.result).status == "completed"
        assert invariants.check_server(server) == []
