"""Smart re-execution: invalidate the downstream subgraph, replay the rest.

The paper's closing claim — "this makes it possible for the system to
recompute processes as data inputs or algorithms change" — becomes an
operator verb here: :func:`execute_rerun` launches a fresh instance of
the original template in which only the *invalidated* downstream
subgraph actually re-executes; every untouched ancestor is replayed from
the store's content-keyed memo cache (zero cost, virtual node
``"memo"``), and the rerun itself is recorded as new provenance linked
to the original run (``rerun/<new id>`` in the data space).

Invalidation is computed on the provenance graph:

* ``changed_inputs`` — the named launch parameters map to whiteboard
  datasets (``<iid>/wb:<name>``); everything transitively derived from
  them is stale;
* ``task_ids`` — the named task paths' outputs seed the stale set (the
  tasks themselves re-run, plus everything downstream).

Stale tasks' memo entries are deleted up front, so the set of re-executed
tasks equals the predicted invalidated subgraph exactly — which is what
:func:`rerun_report` verifies from the new instance's durable event log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from ..errors import (
    InvalidStateError,
    MigratedInstanceError,
    StoreError,
    UnknownInstanceError,
)
from .graph import ProvenanceGraph
from .view import provenance_graph


def require_instance(store, instance_id: str) -> Dict[str, Any]:
    """The instance's durable meta, or a *typed* error — never silence.

    Unknown ids raise :class:`UnknownInstanceError`; ids whose local copy
    was tombstoned by a committed shard migration raise
    :class:`MigratedInstanceError` carrying the forwarding target, so a
    plane-level caller can chase it like the console does.
    """
    meta = store.instances.meta(instance_id)
    if meta is not None:
        return meta
    forward = store.configuration.setting(f"forward/{instance_id}")
    if isinstance(forward, dict) and forward.get("to"):
        raise MigratedInstanceError(
            f"instance {instance_id!r} migrated to {forward['to']!r}",
            forwarded_to=forward["to"],
        )
    raise UnknownInstanceError(
        f"no provenance: unknown instance {instance_id!r}"
    )


@dataclass
class RerunPlan:
    """The minimal invalidated subgraph for one rerun request."""

    original_id: str
    template_name: str
    inputs: Dict[str, Any]
    changed_inputs: Dict[str, Any] = field(default_factory=dict)
    task_ids: List[str] = field(default_factory=list)
    #: datasets transitively invalidated by the change.
    invalidated: List[str] = field(default_factory=list)
    #: original-run task paths that must re-execute.
    stale_tasks: List[str] = field(default_factory=list)
    #: original-run task paths eligible for memo replay.
    memo_tasks: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """Codec-safe summary (recorded as the rerun's run record)."""
        return {
            "original_id": self.original_id,
            "template_name": self.template_name,
            "changed_inputs": sorted(self.changed_inputs),
            "task_ids": list(self.task_ids),
            "invalidated": list(self.invalidated),
            "stale_tasks": list(self.stale_tasks),
            "memo_tasks": list(self.memo_tasks),
        }


@dataclass
class RerunHandle:
    """A launched rerun: the new instance id plus its plan."""

    new_instance_id: str
    plan: RerunPlan


def _launch_inputs(store, instance_id: str) -> Dict[str, Any]:
    """The original launch's template name and inputs, from the log."""
    for event in store.instances.events(instance_id):
        if event["type"] != "instance_created":
            break
        return {
            "template_name": event["template_name"],
            "inputs": dict(event["inputs"]),
        }
    raise StoreError(
        f"instance {instance_id!r} has no instance_created event"
    )


def plan_rerun(store, instance_id: str,
               changed_inputs: Optional[Dict[str, Any]] = None,
               task_ids: Optional[Iterable[str]] = None,
               graph: Optional[ProvenanceGraph] = None) -> RerunPlan:
    """Compute the minimal invalidated subgraph for a rerun request."""
    require_instance(store, instance_id)
    if not changed_inputs and not task_ids:
        raise InvalidStateError(
            "rerun needs changed_inputs and/or task_ids — an unchanged "
            "rerun would replay everything from the memo cache"
        )
    graph = graph if graph is not None else provenance_graph(store)
    launch = _launch_inputs(store, instance_id)
    changed_inputs = dict(changed_inputs or {})
    task_ids = sorted(task_ids or ())
    seeds: List[str] = [
        f"{instance_id}/wb:{name}" for name in sorted(changed_inputs)
    ]
    invalidated: set = set()
    for task in task_ids:
        record = graph.activities.get((instance_id, task))
        if record is None:
            raise StoreError(
                f"no provenance recorded for task {task!r} of "
                f"{instance_id!r}"
            )
        # The forced task's own outputs are stale, and so is everything
        # derived from them.
        invalidated.update(record.outputs)
        seeds.extend(record.outputs)
    for seed in seeds:
        invalidated.update(graph.lineage.descendants(seed))
    stale_tasks = sorted({
        record.task
        for record in graph.run_records(instance_id)
        if invalidated.intersection(record.outputs)
    })
    memo_tasks = sorted(
        record.task
        for record in graph.run_records(instance_id)
        if record.task not in stale_tasks
    )
    return RerunPlan(
        original_id=instance_id,
        template_name=launch["template_name"],
        inputs=launch["inputs"],
        changed_inputs=changed_inputs,
        task_ids=list(task_ids),
        invalidated=sorted(invalidated),
        stale_tasks=stale_tasks,
        memo_tasks=memo_tasks,
    )


def execute_rerun(server, instance_id: str,
                  changed_inputs: Optional[Dict[str, Any]] = None,
                  task_ids: Optional[Iterable[str]] = None,
                  request_key: Optional[str] = None) -> RerunHandle:
    """Plan and launch a smart rerun; returns the handle.

    Memoization is enabled on the server (persisted, like the lease
    policy), stale tasks' cache entries are invalidated, and the new
    instance launches with the original inputs overlaid by
    ``changed_inputs``. The caller drives the environment to completion
    exactly as for any launch; :func:`rerun_report` then audits the
    memo-vs-executed split from the durable log.
    """
    store = server.store
    plan = plan_rerun(store, instance_id,
                      changed_inputs=changed_inputs, task_ids=task_ids,
                      graph=provenance_graph(store))
    if server.memo is None:
        server.enable_memoization()
    graph = provenance_graph(store)
    for task in plan.stale_tasks:
        record = graph.activities.get((instance_id, task))
        if record is not None and record.memo_key:
            store.data.memo_delete(record.memo_key)
    inputs = dict(plan.inputs)
    inputs.update(plan.changed_inputs)
    new_id = server.launch(plan.template_name, inputs,
                           request_key=request_key)
    summary = plan.to_dict()
    summary["rerun_id"] = new_id
    store.data.record_run(f"rerun/{new_id}", summary)
    return RerunHandle(new_instance_id=new_id, plan=plan)


def rerun_report(store, new_instance_id: str) -> Dict[str, Any]:
    """Audit a finished rerun from its durable event log.

    ``replayed`` are task paths completed from the memo cache (virtual
    node ``"memo"``), ``executed`` those dispatched to real nodes. The
    recorded plan rides along so callers can verify *executed == the
    predicted stale set* — the acceptance bar for minimality.
    """
    require_instance(store, new_instance_id)
    replayed: set = set()
    executed: set = set()
    for event in store.instances.events(new_instance_id):
        if event["type"] != "task_dispatched":
            continue
        path = event.get("path", "")
        if path.endswith("#comp"):
            continue
        if event.get("node") == "memo":
            replayed.add(path)
        else:
            executed.add(path)
    record = store.data.run(f"rerun/{new_instance_id}") or {}
    return {
        "rerun_id": new_instance_id,
        "original_id": record.get("original_id", ""),
        "replayed": sorted(replayed),
        "executed": sorted(executed - replayed),
        "memo_hits": len(replayed),
        "memo_misses": len(executed - replayed),
        "plan": record,
    }
