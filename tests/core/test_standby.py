"""A shard's standby incarnation: the broker promotes it on silence.

The paper's future-work backup architecture ("the backup can assume
control and continue execution smoothly", Conclusions), on the plane:
every live shard heartbeats to the broker over the control fabric, and
the broker promotes a shard it has not heard for ``takeover_after``
seconds through ``recover_shard``. Pinned here: a crash with work pending
is promoted within ``takeover_after`` plus one heartbeat interval, a
healthy shard never is, a killed promotion is promoted again, and an
idle plane watches nothing, so its kernel queue drains.
"""

import pytest

from repro.errors import EngineError
from repro.faults.plan import FaultAction
from repro.faults.points import FaultInjector, InjectedCrash, installed
from repro.shard.plane import HEARTBEAT_INTERVAL

from ..shard.conftest import make_plane


def build(takeover_after=60.0, shards=1):
    return make_plane(shards, seed=3, takeover_after=takeover_after)


def launch(plane, count, cost=200.0):
    """``count`` acked launches of a ``cost``-second job; their ids."""
    requests = [plane.launch("t0", "job", {"cost": cost})
                for _ in range(count)]
    plane.drain_requests()
    return [request.result for request in requests]


def run_to_end(plane, ids):
    plane.run_until(lambda: all(plane.instance(iid).terminal
                                for iid in ids))


class TestFailover:
    def test_takeover_after_silence(self):
        kernel, plane = build()
        launch(plane, 4)
        kernel.run(until=30.0)
        server = plane.shards[0].server
        plane.crash_shard(0)
        kernel.run(until=30.0 + 60.0 + HEARTBEAT_INTERVAL + 1.0)
        assert plane.broker.takeovers == 1
        assert plane.shards[0].server is not server
        assert plane.shards[0].up

    def test_run_completes_through_failover_without_operator(self):
        kernel, plane = build()
        ids = launch(plane, 8)
        kernel.run(until=50.0)
        plane.crash_shard(0)
        run_to_end(plane, ids)
        server = plane.shards[0].server
        assert [server.instance(iid).outputs for iid in ids] \
            == [{"receipt": "ok"}] * 8
        # nobody called recover_shard by hand
        assert server.metrics["manual_interventions"] == 0
        assert plane.broker.takeovers == 1

    def test_downtime_bounded_by_detection_window(self):
        kernel, plane = build(takeover_after=45.0)
        launch(plane, 1)
        kernel.run(until=20.0)
        server = plane.shards[0].server
        crash_time = kernel.now
        plane.crash_shard(0)
        while plane.shards[0].server is server:
            kernel.step()
        assert kernel.now - crash_time <= 45.0 + HEARTBEAT_INTERVAL

    def test_healthy_primary_never_replaced(self):
        kernel, plane = build(shards=4)
        servers = [shard.server for shard in plane.shards]
        ids = launch(plane, 12)
        kernel.run()
        assert all(plane.instance(iid).status == "completed"
                   for iid in ids)
        assert plane.broker.takeovers == 0
        assert [shard.server for shard in plane.shards] == servers

    def test_double_failover(self):
        kernel, plane = build()
        ids = launch(plane, 6)
        kernel.run(until=30.0)
        plane.crash_shard(0)
        kernel.run(until=150.0)
        assert plane.broker.takeovers == 1
        plane.crash_shard(0)  # the replacement dies too
        run_to_end(plane, ids)
        assert all(plane.instance(iid).status == "completed"
                   for iid in ids)
        assert plane.broker.takeovers == 2
        assert plane.shards[0].server.epoch == 3

    def test_disabled_monitor_does_nothing(self):
        """An idle plane watches nothing: a shard crashed with no work
        open is not promoted and the kernel queue drains. The next
        request wakes the watch, and the shard holding it is promoted."""
        kernel, plane = build()
        launch(plane, 2, cost=5.0)
        kernel.run()
        dead = plane.shards[0].server
        plane.crash_shard(0)
        kernel.run()
        assert kernel.pending == 0
        assert plane.broker.takeovers == 0
        assert plane.shards[0].server is dead
        request = plane.launch("t0", "job", {"cost": 5.0})
        plane.run_until(lambda: request.status == "done"
                        and plane.instance(request.result).terminal)
        assert plane.broker.takeovers == 1
        kernel.run()
        assert kernel.pending == 0

    def test_killed_promotion_is_promoted_again(self):
        kernel, plane = build()
        ids = launch(plane, 4)
        kernel.run(until=30.0)
        plane.crash_shard(0)
        with installed(FaultInjector([FaultAction("recovery.replay",
                                                  "crash")])):
            with pytest.raises(InjectedCrash):
                kernel.run()
        half_built = plane.shards[0].server
        plane.crash_shard(0)
        assert not half_built.up
        # the shard stays down and is promoted again at the next check
        failed_at = kernel.now
        while plane.shards[0].server is half_built:
            kernel.step()
        assert kernel.now - failed_at <= HEARTBEAT_INTERVAL
        assert plane.broker.takeovers == 2
        assert plane.shards[0].server.epoch == half_built.epoch + 1
        run_to_end(plane, ids)
        assert all(plane.instance(iid).status == "completed"
                   for iid in ids)


class TestMonitorUnit:
    def test_promote_without_primary_raises(self):
        """A retired shard has no server to promote: the detector skips
        it, and promoting it by hand is refused."""
        kernel, plane = build(shards=2)
        ids = launch(plane, 4)
        plane.drain_shard(0)
        kernel.run()  # silent for the whole run, and never promoted
        assert all(plane.instance(iid).status == "completed"
                   for iid in ids)
        assert kernel.now > 200.0 and plane.broker.takeovers == 0
        with pytest.raises(EngineError):
            plane.recover_shard(0)

    def test_check_respects_window(self):
        _kernel, plane = build(takeover_after=30.0)
        kernel = plane.kernel
        primary = plane.shards[0].server
        plane.crash_shard(0)
        kernel.run(until=10.0)
        plane.broker.detect()
        assert plane.shards[0].server is primary  # still within the window
        kernel.run(until=31.0)
        plane.broker.detect()
        replacement = plane.shards[0].server
        assert replacement is not primary and replacement.up
        assert plane.broker.takeovers == 1

    def test_heartbeat_resets_silence(self):
        """A heartbeat restarts the silence clock; one from a deposed
        incarnation (an epoch below the broker's highest) does not."""
        kernel, plane = build(takeover_after=30.0)
        broker, server = plane.broker, plane.shards[0].server
        broker.shard_up(0, server.epoch + 1)
        kernel.run(until=25.0)
        broker.heartbeat(0, server.epoch)        # deposed: ignored
        kernel.run(until=31.0)
        broker.promote = lambda shard: promoted.append(shard)
        promoted = []
        broker.detect()
        assert promoted == [0]
        broker.shard_up(0, server.epoch + 1)
        kernel.run(until=55.0)
        broker.heartbeat(0, server.epoch + 1)    # current: counts
        kernel.run(until=70.0)
        broker.detect()
        assert promoted == [0]
