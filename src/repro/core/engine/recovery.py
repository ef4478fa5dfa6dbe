"""Recovery utilities: replay, deferral, audit, and work-loss accounting.

The server's crash-recovery entry point is
:meth:`~repro.core.engine.server.BioOperaServer.recover`; this module holds
the pieces it is built from — whether an instance has :func:`ended`,
replaying a single instance from the instance space, the
:class:`InstanceMap` a recovery fills (which also keeps the monitor's
instance listing), the :class:`StepClock` a server
without a timed environment runs on — and beside them: verifying that a
log replays cleanly, and quantifying how much work a failure cost — the
measurement behind the checkpoint-granularity ablation ("since
checkpointing is done for complete activities, smaller activities result
in less work lost when failures occur", paper Section 3.3).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import chain
from typing import Any, Callable, Dict, List, Optional, Set

from ...errors import StoreError
from ...store.spaces import OperaStore
from . import events as ev
from .instance import ProcessInstance


class StepClock:
    """Deterministic fallback clock: advances one second per reading."""

    def __init__(self, start: float = 0.0):
        self.t = start

    def __call__(self) -> float:
        self.t += 1.0
        return self.t


def newest_event_time(store: OperaStore) -> float:
    """The newest timestamp in any log (each log's last event has it:
    times never decrease within a log), at least 0.0."""
    newest = 0.0
    for instance_id in store.instances.instance_ids():
        time = (store.instances.last_event(instance_id) or {}).get("time")
        if isinstance(time, (int, float)):
            newest = max(newest, float(time))
    return newest


def staged_import(store: OperaStore, instance_id: str) -> bool:
    """Did an interrupted shard-migration import leave the instance
    staged? Then it is not this shard's to run (or fold, or check) until
    the migrator's resume activates or deletes it. One key read."""
    record = store.configuration.setting(f"migrate_in/{instance_id}")
    return isinstance(record, dict) and record.get("phase") == "staged"


def ended(store: OperaStore, instance_id: str) -> bool:
    """Is the last event of the instance's log ``instance_completed`` or
    ``instance_aborted``?

    The log is the one record of status, so ``True`` means no failover
    has work left in the instance: :meth:`BioOperaServer.recover` and the
    view catalog's ``bind`` leave it to its first reader. A task reset
    reopens an instance by appending after its terminal event, so a
    reopened one is not ended. One record is read (the lazy replay of
    the store decodes nothing else).
    """
    last = store.instances.last_event(instance_id)
    return last is not None and last["type"] in (
        ev.INSTANCE_COMPLETED, ev.INSTANCE_ABORTED)


def replay_instance(store: OperaStore, instance_id: str,
                    resolver) -> ProcessInstance:
    """Rebuild one instance's runtime state from its persisted event log."""
    meta = store.instances.meta(instance_id)
    if meta is None:
        raise StoreError(f"no instance {instance_id!r} in instance space")
    instance = ProcessInstance(instance_id, resolver)
    instance.replay(store.instances.events(instance_id))
    return instance


class InstanceMap(dict):
    """``instance id -> ProcessInstance`` of one server.

    A recovery replays live work only. An id whose log says the
    instance has ended is :meth:`defer`-red: known by id, and replayed
    from its event log by the first ``[]``, ``get``, ``values``,
    ``items`` or ``pop`` that would hand the instance out — once, for as
    long as the server lives. ``in``, ``len``, ``del`` and iteration
    over ids (instances in memory first, then deferred ids) replay
    nothing; :meth:`loaded` is the instances in memory, which every live
    one is. A hit on an instance in memory is the plain ``dict``'s.

    The map also keeps the monitor's :meth:`listing`: one row per id,
    rebuilt only for the ids in :attr:`changed`.
    """

    def __init__(self, replay: Callable[[str], ProcessInstance],
                 shard: Optional[int] = None):
        super().__init__()
        #: enters the replayed instance under its id and returns it.
        self._replay = replay
        #: ended instances not replayed yet (ids only, in entry order).
        self._deferred: Dict[str, None] = {}
        #: ids whose listing row is stale: entered, removed, or logged to
        #: (the server's emit marks every committed slice) since the last
        #: :meth:`listing`.
        self.changed: Set[str] = set()
        #: the shard index every row carries (``None``: no ``"shard"``).
        self._shard = shard
        self._ids: List[str] = []  # every id, sorted
        self._rows: Dict[str, Dict[str, Any]] = {}
        self._listing: List[Dict[str, Any]] = []

    def _enter(self, instance_id: str) -> None:
        if instance_id not in self:
            insort(self._ids, instance_id)
        self.changed.add(instance_id)

    def __setitem__(self, instance_id: str,
                    instance: ProcessInstance) -> None:
        self._enter(instance_id)
        dict.__setitem__(self, instance_id, instance)

    def defer(self, instance_id: str) -> None:
        """Enter an ended instance by id only; its first reader replays."""
        self._enter(instance_id)
        self._deferred[instance_id] = None

    def loaded(self) -> List[ProcessInstance]:
        """The instances in memory, in order of entry; replays none."""
        return list(dict.values(self))

    def __missing__(self, instance_id: str) -> ProcessInstance:
        if instance_id not in self._deferred:
            raise KeyError(instance_id)
        instance = self._replay(instance_id)
        del self._deferred[instance_id]
        return instance

    def get(self, instance_id: str, default=None):
        try:
            return self[instance_id]
        except KeyError:
            return default

    def __contains__(self, instance_id) -> bool:
        return (dict.__contains__(self, instance_id)
                or instance_id in self._deferred)

    def __len__(self) -> int:
        return dict.__len__(self) + len(self._deferred)

    def __iter__(self):
        return chain(dict.__iter__(self), self._deferred)

    def __delitem__(self, instance_id: str) -> None:
        if instance_id in self._deferred:
            del self._deferred[instance_id]
        else:
            dict.__delitem__(self, instance_id)
        del self._ids[bisect_left(self._ids, instance_id)]
        self.changed.add(instance_id)

    def _replay_deferred(self) -> None:
        for instance_id in list(self._deferred):
            self[instance_id]

    def values(self):
        self._replay_deferred()
        return dict.values(self)

    def items(self):
        self._replay_deferred()
        return dict.items(self)

    def pop(self, instance_id: str, *default):
        if instance_id not in self:
            return dict.pop(self, instance_id, *default)
        instance = self[instance_id]
        del self[instance_id]
        return instance

    def listing(self) -> List[Dict[str, Any]]:
        """One row per instance, in id order, ended ones included.

        Kept between calls: only the rows of :attr:`changed` ids are
        rebuilt (a deferred one is replayed here, once) or dropped, and
        a rebuilt row replaces the old one, never edits it. The list
        and its rows are shared with every caller and are read-only;
        the list is the same object until something changed.
        """
        if self.changed:
            # In id order, so deferred instances replay in the same order
            # whatever the hash seed.
            for instance_id in sorted(self.changed):
                if instance_id in self:
                    self._rows[instance_id] = self._row(
                        instance_id, self[instance_id])
                else:
                    self._rows.pop(instance_id, None)
            self.changed.clear()
            self._listing = [self._rows[instance_id]
                             for instance_id in self._ids]
        return self._listing

    def _row(self, instance_id: str,
             instance: ProcessInstance) -> Dict[str, Any]:
        """The listing row of one instance, built from its kept state."""
        row = {
            "instance_id": instance_id,
            "template": instance.template.name if instance.template else "",
            "status": instance.status,
            "progress": instance.progress(),
        }
        if self._shard is not None:
            row["shard"] = self._shard
        return row


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

    Combines the KV store's recovery accounting (checkpoint position,
    records replayed — the checkpoint chain and the suffix past it, heads
    only —, live segments, repairs made on open) with the per-instance
    event counts the engine replay walks. The chain stays within twice
    the live state however long the run has been going (a checkpoint
    rewrites it when mostly superseded), so ``records_replayed`` is the
    number an operator checks when recovery feels slow (see
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
