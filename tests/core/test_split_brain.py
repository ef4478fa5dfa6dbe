"""Split brain: a partitioned-but-healthy primary vs. a promoted standby.

The standby monitor promotes on silence alone, so a partition between the
primary and the standby *will* produce two live servers sharing one
durable store. The epoch fencing must make that state safe:

* promotion durably bumps the server epoch before the replacement
  dispatches anything;
* the deposed primary's late writes are fenced (it stands down the moment
  it consults the store) — nothing from the old epoch lands in the log;
* after the partition heals, the run completes with outputs byte-identical
  to a fault-free run, and the full recovery-invariant catalog holds.
"""

from repro.cluster.network import SERVER, STANDBY
from repro.core.engine.standby import attach_standby
from repro.faults import chaos, invariants
from repro.store import codec


def test_split_brain_promotion_is_safe():
    darwin = chaos.default_darwin()
    baseline = chaos.fault_free_baseline(darwin)
    # the baseline's own plane: one shard, the instance id it keys by
    topo = chaos._Plane(darwin, 101, chaos.CampaignConfig(
        nodes=4, cpus=2, granularity=8))
    kernel, cluster = topo.kernel, topo.plane.shards[0].cluster
    # fast monitor so promotion lands while the run is still in flight
    monitor = attach_standby(cluster, takeover_after=20.0,
                             check_interval=5.0)

    # partition primary <-> standby mid-run: heartbeats stop arriving even
    # though the primary is healthy and still driving the cluster
    kernel.run(until=baseline["wall"] * 0.25)
    instance_id = topo.requests[0].result
    old = cluster.server
    assert not old.instances[instance_id].terminal, "cut must land mid-run"
    assert old.dispatcher.in_flight, "work must be in flight at the cut"
    pid = cluster.network.partition({SERVER}, {STANDBY})

    guard = kernel.now + 600.0
    while monitor.takeovers == 0 and kernel.now < guard:
        kernel.step()
    assert monitor.takeovers == 1, "silence alone must trigger promotion"
    promoted = cluster.server
    assert promoted is not old
    assert promoted.epoch == old.epoch + 1
    assert promoted.metrics["standby_takeovers"] == 1
    cluster.network.heal(pid)

    # the deposed primary still holds in-flight work from its epoch; its
    # attempt to apply a completion must fence it, not reach the log
    job_id, (_job, node) = next(iter(old.dispatcher.in_flight.items()))
    events_before = old.store.instances.event_count(instance_id)
    old.on_job_completed(job_id, {}, 1.0, node)
    assert old.up is False
    assert old.metrics["epoch_fenced"] >= 1
    assert old.store.instances.event_count(instance_id) == events_before

    status = cluster.run_until_instance_done(instance_id)
    assert status == "completed"
    final = promoted.instance(instance_id).outputs
    assert codec.encode(final) == codec.encode(
        baseline["outputs"][instance_id]
    ), "post-failover outputs must be byte-identical to the fault-free run"
    assert invariants.check_server(
        promoted, baseline_outputs=baseline["outputs"], final=True,
    ) == []
