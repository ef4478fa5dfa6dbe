"""Split brain: a shard healthy behind a cut vs. its promoted incarnation.

The broker promotes a shard on heartbeat silence alone, so a broker↔shard
cut longer than ``takeover_after`` *will* produce two live incarnations of
one shard. The epoch fencing must make that state safe:

* the promoted incarnation takes a higher epoch before it dispatches
  anything;
* the deposed one is refused by epoch everywhere it can still reach: the
  PECs refuse its dispatches, the new incarnation its reports, and the
  broker its acks;
* after the cut heals, the run completes with outputs byte-identical to
  a fault-free run, and the full recovery-invariant catalog (exactly-once
  included) holds.
"""

from repro.faults import chaos, invariants
from repro.shard.broker import BROKER, shard_endpoint
from repro.store import codec


def test_split_brain_promotion_is_safe():
    darwin = chaos.default_darwin()
    baseline = chaos.fault_free_baseline(darwin)
    # the baseline's own plane: one shard, the instance id it keys by
    topo = chaos._Plane(darwin, 101, chaos.CampaignConfig(
        nodes=4, cpus=2, granularity=8))
    kernel, plane = topo.kernel, topo.plane
    shard = plane.shards[0]
    # a fast detector, so the promotion lands while the run is in flight
    plane.broker.takeover_after = 20.0

    # cut broker <-> shard mid-run: heartbeats stop arriving even though
    # the shard is healthy and still driving its nodes
    kernel.run(until=baseline["wall"] * 0.25)
    instance_id = topo.requests[0].result
    old = shard.server
    assert not old.instances[instance_id].terminal, "cut must land mid-run"
    assert old.dispatcher.in_flight, "work must be in flight at the cut"
    pid = plane.partition_shard(0)

    guard = kernel.now + 600.0
    while plane.broker.takeovers == 0 and kernel.now < guard:
        kernel.step()
    assert plane.broker.takeovers == 1, "silence alone must promote"
    promoted = shard.server
    assert promoted is not old and old.up, "both incarnations are live"
    assert promoted.epoch == old.epoch + 1
    plane.heal(pid)

    # the new incarnation re-drives the work; once a PEC has seen its
    # epoch, a dispatch the deposed one still holds is refused there
    kernel.run(until=kernel.now + 5.0)
    job_id, (job, _node) = next(iter(old.dispatcher.in_flight.items()))
    pec = next(pec for pec in shard.cluster.pecs.values()
               if pec.highest_epoch_seen == promoted.epoch)
    rejected = pec.stale_dispatches_rejected
    pec.receive_job(job)
    assert pec.stale_dispatches_rejected == rejected + 1

    # its report reaches the new incarnation, which refuses it by epoch
    events_before = promoted.store.instances.event_count(instance_id)
    stale = promoted.metrics["stale_epoch_reports"]
    promoted.on_job_completed(job_id, {}, 1.0, pec.node.name,
                              epoch=old.epoch)
    assert promoted.metrics["stale_epoch_reports"] == stale + 1
    assert promoted.store.instances.event_count(instance_id) \
        == events_before

    # and an ack it sends the broker is refused by epoch
    refused = plane.broker.stale_acks_rejected
    plane.control.send(plane.broker._ack, topo.requests[0], old.epoch,
                       None, src=shard_endpoint(0), dst=BROKER)
    kernel.run(until=kernel.now + 1.0)
    assert plane.broker.stale_acks_rejected == refused + 1

    plane.run_until(topo.done)
    final = promoted.instance(instance_id).outputs
    assert codec.encode(final) == codec.encode(
        baseline["outputs"][instance_id]
    ), "post-failover outputs must be byte-identical to the fault-free run"
    assert invariants.check_server(
        promoted, baseline_outputs=baseline["outputs"], final=True,
    ) == []
