"""Live migration of process instances between shards.

The paper's headline dependability claim — long-lived experiments
survive infrastructure change because everything that matters is in the
log — applied to *topology* change: an instance is moved by copying its
durable state (event log, create record, request-dedup marker, pinned
template version) into a sibling shard's store under a freshly minted
id, and re-driving its in-flight work there through the same
kill-and-restart path recovery uses. Nothing in the event log names the
instance id (events carry task paths, whiteboard keys and the lineage
of each completion in instance-relative dataset names), so the log
copies byte-for-byte and nothing is rewritten: each shard's provenance
graph folds the copy under whatever id it holds it by.

The move is a five-phase journaled protocol. Each phase opens with a
``shard.migrate.*`` fault point, and a crash in any window leaves
enough durable state for :meth:`ShardMigrator.resume` to finish or
undo the move without losing or duplicating a byte:

========  ======================================  =====================
phase     durable effect                          crash outcome
========  ======================================  =====================
prepare   nothing yet                             move never happened
export    ``migrate_out/<old>`` journal (source)  rolled back on resume
import    staged copy + ``migrate_in/<new>``      rolled back on resume
          journal (target, one transaction)
commit    ``forward/<old>`` + tombstone + journal rolled FORWARD on
          cleared (source, one transaction)       resume (commit point)
activate  target journal cleared, instance        already committed;
          adopted, lost work re-driven            plain recovery
                                                  finishes the re-drive
========  ======================================  =====================

The source transaction written at *commit* is the atomic commit point:
before it, the source still owns the instance (the staged target copy
is invisible — recovery and the invariant catalog skip staged imports);
after it, the durable forwarding record makes every stale
instance-scoped request route-chase to the new id.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from ..errors import EngineError, UnknownInstanceError, UnknownShardError
from ..faults.points import fire
from ..store.spaces import InstanceSpace, TemplateSpace, _seq_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .plane import Shard, ShardedControlPlane


def _canon(value: Any) -> str:
    """Canonical JSON used for byte-equality checks and digests."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _digest(events: List[Dict[str, Any]]) -> str:
    """Stable digest of an event-log slice (the migration invariant)."""
    return hashlib.sha256(_canon(events).encode("utf-8")).hexdigest()


class ShardMigrator:
    """Moves instances between a plane's shards, one journaled step at
    a time; survives a crash of either side at any fault window."""

    def __init__(self, plane: "ShardedControlPlane"):
        self.plane = plane
        #: the move currently in progress (old_id/new_id/source/target/
        #: phase) — the chaos driver reads it to crash the right victim
        #: when an InjectedCrash unwinds out of :meth:`migrate_instance`.
        self.current: Optional[Dict[str, Any]] = None
        #: committed moves, each with the exported log's length and
        #: digest so :func:`migration_invariants` can re-check the
        #: copied prefix at end of campaign.
        self.completed: List[Dict[str, Any]] = []
        #: copy-verification failures (never raised mid-move; campaigns
        #: fold these into their invariant report).
        self.violations: List[str] = []

    # ------------------------------------------------------------------
    # The five-phase move
    # ------------------------------------------------------------------

    def migrate_instance(self, instance_id: str, target_index: int) -> str:
        """Move one instance; returns its new (re-prefixed) id.

        Idempotent across interruptions: if the instance already moved
        (a forwarding record exists), the recorded destination is
        returned instead of moving twice.
        """
        plane = self.plane
        owner = plane.router.parse_prefix(instance_id)
        if owner is None or owner >= len(plane.shards):
            raise UnknownShardError(
                f"cannot migrate {instance_id!r}: no owning shard")
        if not 0 <= target_index < len(plane.shards):
            raise EngineError(f"no target shard {target_index}")
        if target_index == owner:
            raise EngineError(
                f"migration target of {instance_id!r} is its own shard")
        source = plane.shards[owner]
        target = plane.shards[target_index]
        if getattr(target, "retired", False) or not target.server.up:
            raise EngineError(f"target shard {target_index} cannot accept "
                              f"instances (retired or down)")
        if not source.server.up:
            raise EngineError(f"source shard {owner} is down")
        if source.store.instances.meta(instance_id) is None:
            forward = source.store.configuration.setting(
                f"forward/{instance_id}")
            if isinstance(forward, dict) and forward.get("to"):
                return forward["to"]
            raise UnknownInstanceError(
                f"unknown instance {instance_id!r} on shard {owner}")

        self.current = {"old_id": instance_id, "new_id": None,
                        "source": owner, "target": target_index,
                        "phase": "prepare"}
        fire("shard.migrate.prepare", instance=instance_id,
             source=owner, target=target_index)
        # Minting burns a serial on the target even if the move dies
        # here — gaps are harmless, collisions are impossible.
        new_id = target.server._next_instance_id()
        self.current["new_id"] = new_id
        source.store.configuration.set_setting(
            f"migrate_out/{instance_id}",
            {"new_id": new_id, "target": target_index, "phase": "exporting"})
        source.server.quiesce_for_migration(instance_id)

        self.current["phase"] = "export"
        fire("shard.migrate.export", instance=instance_id, source=owner)
        export = self._export(source, instance_id)

        self.current["phase"] = "import"
        fire("shard.migrate.import", instance=new_id, target=target_index)
        self._import(target, new_id, instance_id, owner, export)
        self._verify_copy(target, instance_id, new_id, export)

        self.current["phase"] = "commit"
        fire("shard.migrate.commit", instance=instance_id, source=owner)
        self._commit(source, instance_id, new_id, target_index, export)

        self.current["phase"] = "activate"
        fire("shard.migrate.activate", instance=new_id, target=target_index)
        self._activate(target, new_id)

        self.completed.append({
            "old_id": instance_id, "new_id": new_id,
            "source": owner, "target": target_index,
            "events": export["next_seq"],
            "digest": _digest(export["events"]),
        })
        self.current = None
        return new_id

    # ------------------------------------------------------------------
    # Phase bodies
    # ------------------------------------------------------------------

    def _export(self, source: "Shard",
                instance_id: str) -> Dict[str, Any]:
        """Read everything the instance owns out of the source store."""
        space = source.store.instances
        meta = dict(space.meta(instance_id))
        events = [dict(event) for event in space.events(instance_id)]
        epochs = [event["epoch"] for event in events
                  if isinstance(event.get("epoch"), int)]
        name = meta["template_name"]
        version = meta["version"]
        return {
            "meta": meta,
            "events": events,
            "next_seq": space.event_count(instance_id),
            "max_epoch": max(epochs, default=0),
            "request_key": meta.get("request_key"),
            "template": (name, version,
                         source.store.templates.load(name, version)),
        }

    def _import(self, target: "Shard", new_id: str, old_id: str,
                source_index: int, export: Dict[str, Any]) -> None:
        """Stage the copy in the target store — one transaction.

        The staged instance is invisible to the target until activation:
        recovery and the invariant catalog skip ids carrying a staged
        ``migrate_in/`` journal, so a crash here leaves dead weight the
        resume scan deletes, never a half-alive twin.
        """
        name, version, template_dict = export["template"]
        existing = target.store.kv.get(
            f"{TemplateSpace.PREFIX}{name}/v{version:06d}")
        if existing is None:
            target.store.templates.save_version(name, version, template_dict)
        elif _canon(existing) != _canon(template_dict):
            raise EngineError(
                f"template {name!r} v{version} differs between shards "
                f"{source_index} and {target.index}")
        meta = dict(export["meta"])
        meta["migrated_from"] = old_id
        instance_prefix = f"{InstanceSpace.PREFIX}{new_id}/"
        journal = {
            "old_id": old_id, "source": source_index, "phase": "staged",
            "request_key": export["request_key"],
        }
        configuration = target.store.configuration
        with target.store.kv.transaction() as txn:
            txn.put(f"{instance_prefix}meta", meta)
            txn.put(f"{instance_prefix}next_seq", export["next_seq"])
            for seq, event in enumerate(export["events"]):
                txn.put(_seq_key(f"{instance_prefix}event/", seq), event)
            if export["request_key"]:
                txn.put(configuration.setting_key(
                    f"request/{export['request_key']}"), new_id)
            txn.put(configuration.setting_key(f"migrate_in/{new_id}"),
                    journal)

    def _verify_copy(self, target: "Shard", old_id: str, new_id: str,
                     export: Dict[str, Any]) -> None:
        """Re-read the staged copy and compare it to the exported log."""
        copied = list(target.store.instances.events(new_id))
        if _canon(copied) != _canon(export["events"]):
            self.violations.append(
                f"migration {old_id}->{new_id}: staged event log differs "
                f"from the exported source log")

    def _commit(self, source: "Shard", old_id: str, new_id: str,
                target_index: int, export: Dict[str, Any]) -> None:
        """The commit point: forward + tombstone, one source transaction.

        After this transaction the instance exists exactly once (on the
        target, still staged); before it, exactly once (on the source).
        There is no durable state in which it runs on both. The source
        server then forgets it, its view folds and derivations included.
        """
        configuration = source.store.configuration
        instance_prefix = f"{InstanceSpace.PREFIX}{old_id}/"
        with source.store.kv.transaction() as txn:
            txn.put(configuration.setting_key(f"forward/{old_id}"),
                    {"to": new_id, "shard": target_index})
            if export["request_key"]:
                # Point the dedup marker at the new id so a redelivered
                # launch acks with an id that needs no forward chase.
                txn.put(configuration.setting_key(
                    f"request/{export['request_key']}"), new_id)
            txn.delete(f"{instance_prefix}meta")
            txn.delete(f"{instance_prefix}next_seq")
            for seq in range(export["next_seq"]):
                txn.delete(_seq_key(f"{instance_prefix}event/", seq))
            txn.delete(configuration.setting_key(f"migrate_out/{old_id}"))
        source.server.complete_migration(old_id)

    def _activate(self, target: "Shard", new_id: str) -> None:
        """Un-stage the copy and bring the instance to life on the
        target: journal cleared, epochs adopted, views caught up, lost
        in-flight work re-driven through the PEC retransmission path."""
        configuration = target.store.configuration
        with target.store.kv.transaction() as txn:
            txn.delete(configuration.setting_key(f"migrate_in/{new_id}"))
        events = list(target.store.instances.events(new_id))
        target.server.adopt_epoch(max(
            (event["epoch"] for event in events
             if isinstance(event.get("epoch"), int)),
            default=0,
        ))
        # Imported events bypassed the instance space's observer, and a
        # bind skips a staged import: fold them into the views and the
        # graph BEFORE adoption emits (apply requires seq == cursor).
        # apply_events, not catch_up: catch_up walks every instance.
        target.server.obs.views.apply_events(new_id, 0, events)
        target.server.adopt_instance(new_id)

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------

    def resume(self) -> Dict[str, str]:
        """Finish or undo every move a crash interrupted.

        Decision rule, per staged import found on an up shard: if the
        source holds a matching ``forward/`` record the move committed —
        roll it forward (activate); otherwise the source still owns the
        instance — roll it back (delete the staged copy, re-drive the
        quiesced work on the source). Orphaned source journals with no
        staged copy anywhere are likewise rolled back. Shards that are
        down are skipped; call again once they recover.

        Returns ``{old_id: new_id}`` for the moves rolled forward.
        """
        plane = self.plane
        finished: Dict[str, str] = {}
        for target in plane.shards:
            if not target.server.up or getattr(target, "retired", False):
                continue
            staged = target.store.configuration.settings("migrate_in/")
            for name, journal in sorted(staged.items()):
                if (not isinstance(journal, dict)
                        or journal.get("phase") != "staged"):
                    continue
                new_id = name.split("/", 1)[1]
                old_id = journal.get("old_id")
                source_index = journal.get("source")
                if (source_index is None
                        or not 0 <= source_index < len(plane.shards)):
                    continue
                source = plane.shards[source_index]
                if not source.server.up and not source.retired:
                    # Undecidable until the source store is back. A
                    # retired source's store stays readable: a drain can
                    # retire it while a committed move's target is down.
                    continue
                forward = source.store.configuration.setting(
                    f"forward/{old_id}")
                if isinstance(forward, dict) and forward.get("to") == new_id:
                    self._activate(target, new_id)
                    finished[old_id] = new_id
                else:
                    self._rollback_staged(target, new_id, journal)
                    self._release_source(source, old_id)
        for source in plane.shards:
            if not source.server.up:
                continue
            orphans = source.store.configuration.settings("migrate_out/")
            for name, journal in sorted(orphans.items()):
                if not isinstance(journal, dict):
                    continue
                old_id = name.split("/", 1)[1]
                target_index = journal.get("target")
                if (target_index is not None
                        and 0 <= target_index < len(plane.shards)):
                    target = plane.shards[target_index]
                    if not target.server.up:
                        continue  # staging state unknown until it's back
                    if target.store.configuration.setting(
                            f"migrate_in/{journal.get('new_id')}"):
                        continue  # handled by the staged-import pass
                self._release_source(source, old_id)
        self.current = None
        return finished

    def _rollback_staged(self, target: "Shard", new_id: str,
                         journal: Dict[str, Any]) -> None:
        """Delete a staged copy the source never committed to."""
        configuration = target.store.configuration
        instance_prefix = f"{InstanceSpace.PREFIX}{new_id}/"
        count = target.store.instances.event_count(new_id)
        request_key = journal.get("request_key")
        with target.store.kv.transaction() as txn:
            txn.delete(f"{instance_prefix}meta")
            txn.delete(f"{instance_prefix}next_seq")
            for seq in range(count):
                txn.delete(_seq_key(f"{instance_prefix}event/", seq))
            if (request_key and configuration.setting(
                    f"request/{request_key}") == new_id):
                txn.delete(configuration.setting_key(
                    f"request/{request_key}"))
            txn.delete(configuration.setting_key(f"migrate_in/{new_id}"))

    def _release_source(self, source: "Shard", old_id: str) -> None:
        """Clear the source journal and give the instance back.

        If the source server still holds the quiesce (it never crashed),
        the cancelled work is re-driven here; if it crashed, its own
        recovery already re-drove everything (``server-recovery``), so
        there is nothing to redo.
        """
        key = source.store.configuration.setting_key(f"migrate_out/{old_id}")
        source.store.kv.delete(key)
        if old_id in source.server.migrating:
            source.server.abandon_migration(old_id)


def migration_invariants(plane: "ShardedControlPlane") -> List[str]:
    """End-state checks for a plane that migrated instances.

    * no move left half-done: no ``migrate_out``/staged ``migrate_in``
      journals survive on any up shard;
    * every forwarding record chases (cycle-free) to an instance that
      exists in some live shard's store;
    * every committed move's copied log prefix still matches the
      exported log's digest (the not-one-byte-lost invariant — events
      appended after adoption extend the log, never rewrite it).
    """
    problems: List[str] = []
    for shard in plane.shards:
        if not shard.server.up and not getattr(shard, "retired", False):
            continue
        configuration = shard.store.configuration
        for name, journal in sorted(
                configuration.settings("migrate_out/").items()):
            problems.append(f"shard {shard.index}: unfinished migration "
                            f"journal {name} ({journal})")
        for name, journal in sorted(
                configuration.settings("migrate_in/").items()):
            if isinstance(journal, dict) and journal.get("phase") == "staged":
                problems.append(f"shard {shard.index}: staged import "
                                f"never resolved: {name}")
        for name, record in sorted(
                configuration.settings("forward/").items()):
            old_id = name.split("/", 1)[1]
            try:
                owner_index, final_id = plane.resolve_instance(old_id)
            except EngineError as exc:
                problems.append(f"forwarding record for {old_id} does not "
                                f"resolve: {exc}")
                continue
            owner_shard = plane.shards[owner_index]
            if owner_shard.store.instances.meta(final_id) is None:
                problems.append(f"forwarding record for {old_id} points at "
                                f"missing instance {final_id}")
    migrator = getattr(plane, "migrator", None)
    if migrator is not None:
        problems.extend(migrator.violations)
        for move in migrator.completed:
            shard = plane.shards[move["target"]]
            if shard.store.configuration.setting(
                    f"forward/{move['new_id']}") is not None:
                # The copy moved on (multi-hop): its log was tombstoned
                # here; the later hop's own record checks the last copy.
                continue
            prefix_events = []
            for seq, event in enumerate(
                    shard.store.instances.events(move["new_id"])):
                if seq >= move["events"]:
                    break
                prefix_events.append(event)
            if (len(prefix_events) != move["events"]
                    or _digest(prefix_events) != move["digest"]):
                problems.append(
                    f"migrated log prefix of {move['new_id']} no longer "
                    f"matches the log exported from {move['old_id']}")
    return problems
