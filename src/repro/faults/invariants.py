"""Recovery invariants: what must hold after every crash + recovery.

The paper's dependability story is a set of implicit invariants — "no
results were lost", "processes resumed where the log said", "every TEU is
accounted for exactly once". This module makes them explicit and checkable
against a live :class:`~repro.core.engine.server.BioOperaServer`:

* **log-replayable** — every instance's event log replays without error
  and without time anomalies (:func:`recovery.verify_log`);
* **replay-equivalence** — a fresh replay of the durable log produces the
  same instance state (status, outputs, per-task status/attempts) as the
  live in-memory instance;
* **exactly-once accounting** — per task occurrence, each attempt is
  dispatched at most once and completes on a node at most once;
* **monotonic, contiguous log** — the event keys a scan of the store finds
  are exactly sequences ``0 .. next_seq - 1`` (no holes, no phantoms);
* **no leaked slots** — the awareness model's per-node assignments and the
  dispatcher's in-flight table are the same set, seen from both sides;
* **single-epoch acceptance** — event epochs are monotone per log (checked
  in ``verify_log``): once a failover's epoch appears, no write from a
  fenced older epoch is ever accepted, and every node-reported completion
  carries the epoch of its own dispatch (no cross-epoch or
  healed-partition double-apply);
* **no lease double-grant** — at most one live lease per task occurrence,
  every live lease backed by an in-flight job;
* **WAL integrity** — the KV store's checkpoint chain + WAL suffix
  replays to exactly the live state
  (:meth:`~repro.store.kvstore.KVStore.audit`);
* **bounded-recovery equivalence** — when the store retains the
  segments a rewrite replaces (chaos campaigns run with
  ``retain_history=True``), the chain + suffix reconstruction must be
  byte-identical, under the canonical codec, to replaying the entire log
  from record zero — proof that a chain rewrite never changes recovery
  semantics (also inside :meth:`~repro.store.kvstore.KVStore.audit`).
* **no work for an ended instance** — no job is queued, held or in
  flight for an instance that has completed or aborted;
* **one terminal event** — an instance log holds one terminal event per
  run: none after it unless a task reset reopened the instance, and one
  whenever the instance has ended.

``final=True`` adds end-of-campaign obligations: all instances completed,
queue and in-flight tables empty, and (when ``baseline_outputs`` is given)
outputs byte-identical to the fault-free run under the canonical codec.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.engine import events as ev
from ..core.engine.recovery import (
    replay_instance, staged_import, verify_log,
)
from ..errors import StoreError
from ..store import codec


def run_catalog(server, baseline_outputs: Optional[Dict] = None,
                final: bool = False) -> List:
    """Run the catalog invariant by invariant: ``(name, violations)`` pairs.

    The per-invariant grouping is what the chaos CLI's ``--rerun`` repro
    mode prints as a pass/fail trace; :func:`check_server` flattens the
    same pairs into the single violation list campaigns record.
    """
    instance_ids = [
        iid for iid in server.store.instances.instance_ids()
        if not staged_import(server.store, iid)
    ]

    def each(check):
        """Apply a per-instance check across every persisted instance; a
        log that does not read back fails the check that tried to read it."""
        problems = []
        for iid in instance_ids:
            try:
                problems.extend(check(server, iid))
            except StoreError as exc:
                problems.append(f"{iid}: log unreadable: {exc}")
        return problems

    named = [
        ("log-replayable/epoch-monotone", each(lambda server, iid: [
            f"{iid}: {anomaly}"
            for anomaly in verify_log(server.store, iid, server._resolver)
        ])),
        ("replay-equivalence", each(_check_replay_equivalence)),
        ("exactly-once", each(_check_exactly_once)),
        ("contiguous-log", _check_log_contiguity(server, instance_ids)),
        ("view-equivalence", each(_check_view_equivalence)),
        ("prov-equivalence", _check_prov_equivalence(server)),
        ("slot-consistency", _check_slot_consistency(server)),
        ("leases", _check_leases(server)),
        ("wal-integrity", [f"store: {p}" for p in server.store.kv.audit()]),
        ("no-work-for-ended", _check_no_work_for_ended(server)),
        ("one-terminal-event", each(_check_one_terminal_event)),
    ]
    if final:
        named.append(("final-outputs", _check_final(server,
                                                    baseline_outputs)))
    return named


def check_server(server, baseline_outputs: Optional[Dict] = None,
                 final: bool = False) -> List[str]:
    """Run the full invariant catalog; returns violations (ideally [])."""
    return [
        problem
        for _name, problems in run_catalog(
            server, baseline_outputs=baseline_outputs, final=final)
        for problem in problems
    ]


def _check_replay_equivalence(server, instance_id: str) -> List[str]:
    live = server.instances.get(instance_id)
    if live is None:
        return [f"{instance_id}: persisted instance missing from memory"]
    try:
        twin = replay_instance(server.store, instance_id, server._resolver)
    except Exception as exc:  # noqa: BLE001 - report, not crash
        return [
            f"{instance_id}: replay failed: {type(exc).__name__}: {exc}"
        ]
    problems = []
    if twin.status != live.status:
        problems.append(
            f"{instance_id}: replay status {twin.status!r} != live "
            f"{live.status!r}"
        )
    if twin.event_count != live.event_count:
        problems.append(
            f"{instance_id}: replay saw {twin.event_count} events, live "
            f"applied {live.event_count}"
        )
    if codec.encode(twin.outputs) != codec.encode(live.outputs):
        problems.append(f"{instance_id}: replay outputs differ from live")
    live_states = sorted(
        (s.path, s.status, s.attempts) for s in live.iter_states()
    )
    twin_states = sorted(
        (s.path, s.status, s.attempts) for s in twin.iter_states()
    )
    if live_states != twin_states:
        diff = [
            pair for pair in zip(live_states, twin_states) if pair[0] != pair[1]
        ][:3]
        problems.append(
            f"{instance_id}: replayed task states diverge from live: {diff}"
        )
    return problems


def _check_exactly_once(server, instance_id: str) -> List[str]:
    """Per task occurrence: an attempt is dispatched at most once, and at
    most one node-reported completion lands per attempt."""
    problems = []
    status: Dict[str, str] = {}
    attempt: Dict[str, int] = {}
    dispatched_attempts = set()
    completed_attempts = set()
    dispatch_epoch: Dict[tuple, Optional[int]] = {}
    for event in server.store.instances.events(instance_id):
        kind = event["type"]
        path = event.get("path", "")
        if kind == ev.TASK_DISPATCHED:
            key = (path, event["attempt"])
            # Compensation tasks are re-queued verbatim after a crash, so
            # their attempt numbers legitimately repeat.
            if key in dispatched_attempts and not path.endswith("#comp"):
                problems.append(
                    f"{instance_id}: {path} attempt {event['attempt']} "
                    f"dispatched twice"
                )
            dispatched_attempts.add(key)
            dispatch_epoch[key] = event.get("epoch")
            status[path] = "dispatched"
            attempt[path] = event["attempt"]
        elif kind == ev.TASK_COMPLETED:
            if event.get("node"):
                # A node-reported completion must land on a live dispatch
                # ("failed" is also legal: an IGNORE handler completes a
                # failed task with its last node attached).
                if status.get(path) not in ("dispatched", "failed"):
                    problems.append(
                        f"{instance_id}: {path} completed from state "
                        f"{status.get(path)!r} (no live dispatch)"
                    )
                key = (path, attempt.get(path))
                if key in completed_attempts:
                    problems.append(
                        f"{instance_id}: {path} attempt {attempt.get(path)} "
                        f"completed twice"
                    )
                completed_attempts.add(key)
                # A completion must be accepted in the epoch that issued
                # its dispatch — a mismatch means a fenced server's report
                # crossed a healed partition and was applied anyway.
                issued = dispatch_epoch.get(key)
                accepted = event.get("epoch")
                if issued and accepted and issued != accepted:
                    problems.append(
                        f"{instance_id}: {path} attempt {attempt.get(path)} "
                        f"completed in epoch {accepted} but dispatched in "
                        f"epoch {issued}"
                    )
            status[path] = "completed"
        elif kind == ev.TASK_FAILED:
            status[path] = "failed"
        elif kind == ev.TASK_RESET:
            status.pop(path, None)
            attempt.pop(path, None)
    return problems


def _check_log_contiguity(server, instance_ids: List[str]) -> List[str]:
    """The event keys the store holds must be exactly ``0 .. next_seq - 1``.

    One scan of the instance space's keys, deliberately not ``events_from``:
    that reader's range ends at ``next_seq``, so it cannot see a phantom
    beyond the counter, and it raises on a hole instead of naming it.
    """
    space = server.store.instances
    held: Dict[str, List[int]] = {iid: [] for iid in instance_ids}
    for key in server.store.kv.keys(space.PREFIX):
        instance_id, _, rest = key[len(space.PREFIX):].partition("/")
        if rest.startswith("event/") and instance_id in held:
            held[instance_id].append(int(rest[len("event/"):]))
    problems = []
    for instance_id, seqs in held.items():
        recorded = space.event_count(instance_id)
        odd = sorted(set(seqs) ^ set(range(recorded)))
        if odd:
            problems.append(
                f"{instance_id}: next_seq says {recorded} events, log holds "
                f"{len(seqs)} (hole or phantom at seq {odd[:5]})"
            )
    return problems


def _check_view_equivalence(server, instance_id: str) -> List[str]:
    """Every materialized view must answer byte-identically to a full
    rescan of the durable log (the observability tentpole's contract —
    checked here after every crash + recovery)."""
    hub = getattr(server.store, "observability", None)
    if hub is None:
        return []
    problems = []
    if not hub.views.in_sync(server.store, instance_id):
        problems.append(
            f"{instance_id}: view catalog cursor "
            f"{hub.views.cursors.get(instance_id, 0)} != event count "
            f"{server.store.instances.event_count(instance_id)}"
        )
        return problems
    from ..core.monitor import queries

    pairs = [
        ("node_usage",
         [u.__dict__ for u in queries.node_usage(server.store, instance_id)],
         [u.__dict__ for u in queries.node_usage_rescan(
             server.store, instance_id)]),
        ("event_histogram",
         queries.event_histogram(server.store, instance_id),
         queries.event_histogram_rescan(server.store, instance_id)),
        ("completions_over_time",
         queries.completions_over_time(server.store, instance_id, 50.0),
         queries.completions_over_time_rescan(
             server.store, instance_id, 50.0)),
        ("slowest_activities",
         queries.slowest_activities(server.store, instance_id, 10),
         queries.slowest_activities_rescan(server.store, instance_id, 10)),
        ("retry_hotspots",
         queries.retry_hotspots(server.store, instance_id, 2),
         queries.retry_hotspots_rescan(server.store, instance_id, 2)),
        ("wall_time_breakdown",
         queries.wall_time_breakdown(server.store, instance_id),
         queries.wall_time_breakdown_rescan(server.store, instance_id)),
    ]
    for name, viewed, rescanned in pairs:
        if codec.encode(viewed) != codec.encode(rescanned):
            problems.append(
                f"{instance_id}: view {name} diverges from full rescan"
            )
    return problems


def _check_prov_equivalence(server) -> List[str]:
    """The incrementally maintained provenance graph must equal — byte for
    byte under the canonical codec — a graph rebuilt from scratch off the
    ``task_completed`` events of the durable logs (the provenance
    tentpole's contract, checked after every crash + recovery), and the
    PROV-JSON document it serves must equal the one the rebuilt graph
    builds."""
    hub = getattr(server.store, "observability", None)
    if hub is None:
        return []
    from ..prov.graph import ProvenanceGraph
    from ..prov.view import lineage_records

    try:
        graph = hub.provenance.graph
        rebuilt = ProvenanceGraph(lineage_records(server.store))
    except StoreError as exc:
        return [f"provenance: log unreadable: {exc}"]
    if codec.encode(graph.dump()) != codec.encode(rebuilt.dump()):
        return ["provenance graph diverges from a rebuild off the logs"]
    if (codec.encode(graph.to_prov_json())
            != codec.encode(rebuilt.to_prov_json())):
        return ["served PROV document diverges from a rebuilt one"]
    return []


def _check_slot_consistency(server) -> List[str]:
    """The awareness model's node assignments and the dispatcher's
    in-flight table must describe the same set of jobs."""
    problems = []
    assigned: Dict[str, str] = {}
    for view in server.awareness.nodes():
        for job_id in view.assigned:
            if job_id in assigned:
                problems.append(
                    f"job {job_id} assigned to both {assigned[job_id]} "
                    f"and {view.name}"
                )
            assigned[job_id] = view.name
    for job_id, (_job, node) in server.dispatcher.in_flight.items():
        if assigned.pop(job_id, None) != node:
            problems.append(
                f"in-flight job {job_id} not assigned on node {node}"
            )
    for job_id, node in sorted(assigned.items()):
        problems.append(
            f"leaked slot: job {job_id} assigned on {node} but not in flight"
        )
    return problems


def _check_leases(server) -> List[str]:
    """At most one live lease per task occurrence, each backed by an
    in-flight job — and no double-grant was ever counted."""
    problems = []
    doubles = server.metrics.get("lease_double_grants", 0)
    if doubles:
        problems.append(f"lease double-granted {doubles} time(s)")
    holders: Dict[str, str] = {}
    held = {} if server.leases is None else server.leases.held
    for job_id, lease in held.items():
        if job_id not in server.dispatcher.in_flight:
            problems.append(f"lease held for {job_id} with no in-flight job")
        other = holders.get(lease["key"])
        if other is not None:
            problems.append(
                f"two live leases for task {lease['key']}: "
                f"{other} and {job_id}"
            )
        holders[lease["key"]] = job_id
    return problems


def _check_no_work_for_ended(server) -> List[str]:
    """No job is queued, held or in flight for an instance that ended."""
    problems = []
    for instance_id in sorted(server.dispatcher.instances_with_jobs()):
        instance = server.instances.get(instance_id)
        if instance is not None and instance.terminal:
            problems.append(f"{instance_id}: {instance.status}, yet a "
                            f"job of it is queued, held or in flight")
    return problems


def _check_one_terminal_event(server, instance_id: str) -> List[str]:
    """One terminal event per run of an instance: a second one before a
    task reset reopens it is a violation, and so is none on an ended
    instance."""
    problems = []
    ended = False
    for seq, event in enumerate(server.store.instances.events(instance_id)):
        if event["type"] in (ev.INSTANCE_COMPLETED, ev.INSTANCE_ABORTED):
            if ended:
                problems.append(f"{instance_id}: second terminal event "
                                f"{event['type']} at seq {seq}")
            ended = True
        elif event["type"] == ev.TASK_RESET:
            ended = False
    live = server.instances.get(instance_id)
    if live is not None and live.terminal and not ended:
        problems.append(f"{instance_id}: {live.status} with no terminal "
                        f"event in its log")
    return problems


def _check_final(server, baseline_outputs: Optional[Dict]) -> List[str]:
    problems = []
    for instance_id in sorted(server.instances):
        instance = server.instances[instance_id]
        if instance.status != "completed":
            problems.append(
                f"{instance_id}: final status {instance.status!r}, "
                f"expected 'completed'"
            )
        elif baseline_outputs is not None:
            expected = baseline_outputs.get(instance_id)
            if expected is not None and (
                    codec.encode(instance.outputs) != codec.encode(expected)):
                problems.append(
                    f"{instance_id}: final outputs differ from the "
                    f"fault-free baseline"
                )
    queued = server.dispatcher.queue_length()
    if queued:
        problems.append(f"{queued} jobs still queued after completion")
    if server.dispatcher.in_flight:
        problems.append(
            f"{len(server.dispatcher.in_flight)} jobs still in flight "
            f"after completion"
        )
    return problems
