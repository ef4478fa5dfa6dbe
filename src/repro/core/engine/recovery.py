"""Recovery utilities: replay, audit, and work-loss accounting.

The server's crash-recovery entry point is
:meth:`~repro.core.engine.server.BioOperaServer.recover`; this module holds
the standalone pieces: replaying a single instance from the instance space,
verifying that a log replays cleanly, and quantifying how much work a
failure cost — the measurement behind the checkpoint-granularity ablation
("since checkpointing is done for complete activities, smaller activities
result in less work lost when failures occur", paper Section 3.3).
"""

from __future__ import annotations

from typing import Dict, List

from ...errors import StoreError
from ...store.spaces import OperaStore
from . import events as ev
from .instance import ENDED, ProcessInstance


def ended(store: OperaStore, instance_id: str) -> bool:
    """Does the durable meta say the instance completed or aborted?

    The meta's status is written *after* the terminal event, so ``True``
    means that event is durable and no failover has work left in the
    instance: :meth:`BioOperaServer.recover` and the view catalog's
    ``bind`` leave such an instance to its first reader. ``False`` may be
    stale (a crash between the event and the meta) and only costs the
    replay a recovery would have made anyway.
    """
    meta = store.instances.meta(instance_id)
    return meta is not None and meta.get("status") in ENDED


def replay_instance(store: OperaStore, instance_id: str,
                    resolver) -> ProcessInstance:
    """Rebuild one instance's runtime state from its persisted event log."""
    meta = store.instances.meta(instance_id)
    if meta is None:
        raise StoreError(f"no instance {instance_id!r} in instance space")
    instance = ProcessInstance(instance_id, resolver)
    instance.replay(store.instances.events(instance_id))
    return instance


def verify_log(store: OperaStore, instance_id: str, resolver) -> List[str]:
    """Sanity-check an event log; returns a list of anomalies (ideally [])."""
    anomalies: List[str] = []
    events = list(store.instances.events(instance_id))
    if not events:
        anomalies.append("empty event log")
        return anomalies
    if events[0]["type"] != ev.INSTANCE_CREATED:
        anomalies.append(
            f"log does not start with instance_created "
            f"(got {events[0]['type']})"
        )
    last_time = float("-inf")
    last_epoch = 0
    for index, event in enumerate(events):
        if event.get("time", 0.0) < last_time:
            anomalies.append(
                f"event {index} ({event['type']}) goes back in time"
            )
        last_time = max(last_time, event.get("time", 0.0))
        # Epochs must be monotone: once a failover's epoch appears in the
        # log, a write from any older (fenced) epoch is a safety breach.
        epoch = event.get("epoch")
        if epoch is not None:
            if epoch < last_epoch:
                anomalies.append(
                    f"event {index} ({event['type']}) carries fenced epoch "
                    f"{epoch} after epoch {last_epoch} appeared"
                )
            last_epoch = max(last_epoch, epoch)
    try:
        ProcessInstance(instance_id, resolver).replay(iter(events))
    except Exception as exc:  # noqa: BLE001 - report, not crash
        anomalies.append(f"replay failed: {type(exc).__name__}: {exc}")
    return anomalies


def recovery_report(store: OperaStore) -> Dict[str, object]:
    """Summarize what the last store recovery actually cost.

    Combines the KV store's bounded-recovery accounting (checkpoint
    position, records replayed past it, live segments, repairs made on
    open) with the per-instance event counts the engine replay walks.
    With checkpointing enabled ``records_replayed`` stays bounded by the
    checkpoint interval regardless of how long the run has been going —
    the number an operator checks when recovery feels slow (see
    docs/recovery.md).
    """
    info = dict(store.kv.last_recovery)
    instances = store.instances.instance_ids()
    return {
        "checkpoint_position": info.get("checkpoint_position", 0),
        "records_replayed": info.get("records_replayed", 0),
        "wal_position": info.get("wal_position", 0),
        "wal_segments": info.get("segments", 1),
        "repairs": info.get("repairs", []),
        "instances": len(instances),
        "events_by_instance": {
            instance_id: store.instances.event_count(instance_id)
            for instance_id in instances
        },
    }


def work_lost_to_failures(store: OperaStore, instance_id: str) -> Dict[str, float]:
    """CPU seconds spent on attempts that did not complete, by reason.

    An activity that failed and was re-run cost its full duration again;
    this aggregates that waste so benchmarks can compare checkpointing
    granularities.
    """
    lost: Dict[str, float] = {}
    dispatch_times: Dict[str, float] = {}
    for event in store.instances.events(instance_id):
        event_type = event["type"]
        if event_type == ev.TASK_DISPATCHED:
            dispatch_times[event["path"]] = event["time"]
        elif event_type == ev.TASK_COMPLETED:
            dispatch_times.pop(event["path"], None)
        elif event_type == ev.TASK_FAILED:
            started = dispatch_times.pop(event["path"], None)
            if started is not None:
                reason = event["reason"]
                lost[reason] = lost.get(reason, 0.0) + (
                    event["time"] - started
                )
    return lost


def failure_timeline(store: OperaStore, instance_id: str) -> List[Dict]:
    """All failure events with timestamps (for lifecycle reporting)."""
    timeline = []
    for event in store.instances.events(instance_id):
        if event["type"] == ev.TASK_FAILED:
            timeline.append({
                "time": event["time"],
                "path": event["path"],
                "reason": event["reason"],
                "node": event.get("node", ""),
            })
        elif event["type"] in (ev.INSTANCE_SUSPENDED, ev.INSTANCE_RESUMED,
                               ev.INSTANCE_ABORTED):
            timeline.append({
                "time": event["time"],
                "path": "",
                "reason": event["type"],
                "node": "",
            })
    return timeline
